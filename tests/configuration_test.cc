// Tests for optimizer/configuration: applying configurations under the
// conditions ledger, the per-job search space, and the rules of thumb.

#include <gtest/gtest.h>

#include <bit>

#include "common/rng.h"
#include "cost/cost_cache.h"
#include "cost/whatif.h"
#include "optimizer/configuration.h"
#include "profiler/profiler.h"
#include "test_workflows.h"
#include "workloads/registry.h"

namespace stubby {
namespace {

using ::stubby::testing::MakeChain;

TEST(ApplyConfigurationTest, FixedReduceCountWins) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  Plan plan = f->plan();
  (*plan.GetMutableJob("Jp"))->conditions.num_reduce_fixed = 9;
  JobConfig c;
  c.num_reduce_tasks = 77;
  ASSERT_TRUE(ApplyConfiguration(&plan, "Jp", c).ok());
  EXPECT_EQ((*plan.GetJob("Jp"))->config.num_reduce_tasks, 9);
}

TEST(ApplyConfigurationTest, CombinerOnlyWhenProgramHasOne) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  Plan plan = f->plan();
  JobConfig c;
  c.use_combiner = true;
  // Jp has a combiner, Jc does not.
  ASSERT_TRUE(ApplyConfiguration(&plan, "Jp", c).ok());
  ASSERT_TRUE(ApplyConfiguration(&plan, "Jc", c).ok());
  EXPECT_TRUE((*plan.GetJob("Jp"))->config.use_combiner);
  EXPECT_FALSE((*plan.GetJob("Jc"))->config.use_combiner);
}

TEST(ApplyConfigurationTest, OutputCompressionFlowsIntoLayout) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  Plan plan = f->plan();
  JobConfig c;
  c.compress_output = true;
  ASSERT_TRUE(ApplyConfiguration(&plan, "Jp", c).ok());
  EXPECT_TRUE((*plan.GetDataset("MID"))->layout.compressed);
  ASSERT_TRUE((*plan.GetDataset("MID"))->annotation.layout.has_value());
  EXPECT_TRUE((*plan.GetDataset("MID"))->annotation.layout->compressed);
}

TEST(ApplyConfigurationTest, UnknownJobFails) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  Plan plan = f->plan();
  EXPECT_FALSE(ApplyConfiguration(&plan, "nope", JobConfig{}).ok());
}

// The configuration search evaluates every RRS point on one scratch plan,
// relying on ApplyConfiguration to overwrite everything a point controls.
// Applying a sequence of points to one plan must therefore leave it exactly
// as applying the last point to a fresh copy does: same structure, job
// configurations, dataset layouts, and what-if cost bits. Every other job
// starts with its compress_output flag out of step with its outputs'
// layouts, the state a packed job inherits from the job it absorbed.
TEST(ApplyConfigurationTest, ReusedScratchMatchesFreshCopy) {
  constexpr int kPoints = 60;
  for (const std::string& abbr : AllWorkloadAbbrs()) {
    SCOPED_TRACE(abbr);
    WorkloadOptions options;
    options.sample_rows = 1500;
    auto w = MakeWorkload(abbr, options);
    ASSERT_TRUE(w.ok()) << w.status();
    Dfs dfs = w->dfs;
    ASSERT_TRUE(Profiler(options.cluster).ProfilePlan(&w->plan, &dfs).ok());
    std::vector<std::string> ids;
    for (const auto& entry : w->plan.jobs()) ids.push_back(entry.first);
    for (size_t j = 1; j < ids.size(); j += 2) {
      JobConfig& config = (*w->plan.GetMutableJob(ids[j]))->config;
      config.compress_output = !config.compress_output;
    }
    const Plan& base = w->plan;
    WhatIfEngine engine(base.cluster());
    ASSERT_FALSE(engine.Cost(base).fallback);

    std::vector<std::pair<std::string, ConfigSpace>> spaces;
    for (const auto& [id, job] : base.jobs()) {
      ConfigSpace space = SpaceForJob(job, base.cluster());
      if (space.size() > 0) spaces.emplace_back(id, std::move(space));
    }
    ASSERT_FALSE(spaces.empty());
    auto apply = [&](Plan* plan, const std::vector<std::vector<double>>& pt) {
      for (size_t j = 0; j < spaces.size(); ++j) {
        const auto& [id, space] = spaces[j];
        JobConfig c = space.PointToConfig(pt[j], (*plan->GetJob(id))->config);
        ASSERT_TRUE(ApplyConfiguration(plan, id, c).ok());
      }
    };

    Rng rng(97);
    Plan scratch = base;
    int compress_flips = 0;
    bool last_compress = base.jobs().begin()->second.config.compress_output;
    for (int p = 0; p < kPoints; ++p) {
      // Coordinates hit the cube's faces a quarter of the time, so boolean
      // knobs such as compress_output flip often in both directions.
      std::vector<std::vector<double>> point;
      for (const auto& entry : spaces) {
        std::vector<double> slice(entry.second.size());
        for (double& u : slice) {
          u = rng.NextUint64(4) == 0 ? double(rng.NextUint64(2))
                                     : rng.NextDouble();
        }
        point.push_back(std::move(slice));
      }
      apply(&scratch, point);
      Plan fresh = base;
      apply(&fresh, point);

      const bool compress =
          scratch.jobs().begin()->second.config.compress_output;
      if (compress != last_compress) ++compress_flips;
      last_compress = compress;
      ASSERT_EQ(PlanSignature(scratch), PlanSignature(fresh)) << p;
      for (const auto& [id, job] : fresh.jobs()) {
        EXPECT_TRUE((*scratch.GetJob(id))->config == job.config) << id;
        EXPECT_EQ(JobContentDigest(**scratch.GetJob(id)).value(),
                  JobContentDigest(job).value())
            << id;
      }
      for (const auto& [id, ds] : fresh.datasets()) {
        const DatasetVertex& got = **scratch.GetDataset(id);
        EXPECT_TRUE(got.layout == ds.layout) << id;
        EXPECT_EQ(got.annotation.layout.has_value(),
                  ds.annotation.layout.has_value())
            << id;
        if (got.annotation.layout && ds.annotation.layout) {
          EXPECT_TRUE(*got.annotation.layout == *ds.annotation.layout) << id;
        }
      }
      EXPECT_EQ(std::bit_cast<uint64_t>(engine.Cost(scratch).cost),
                std::bit_cast<uint64_t>(engine.Cost(fresh).cost))
          << p;
    }
    EXPECT_GT(compress_flips, 5);
  }
}

TEST(SpaceForJobTest, PinnedReduceCountDropsTheDimension) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  const ClusterSpec& cluster = f->plan().cluster();
  JobVertex job = *(*f->plan().GetJob("Jp"));
  ConfigSpace free_space = SpaceForJob(job, cluster);
  bool has_reduce_dim = false;
  for (const auto& d : free_space.dims()) {
    if (d.name == "num_reduce_tasks") has_reduce_dim = true;
  }
  EXPECT_TRUE(has_reduce_dim);

  job.conditions.num_reduce_fixed = 4;
  ConfigSpace pinned = SpaceForJob(job, cluster);
  for (const auto& d : pinned.dims()) {
    EXPECT_NE(d.name, "num_reduce_tasks");
  }
  EXPECT_EQ(pinned.size() + 1, free_space.size());

  // Range partitioning with explicit splits also pins it.
  job.conditions.num_reduce_fixed.reset();
  job.branches[0].partition.type = PartitionType::kRange;
  job.branches[0].partition.split_points = {Row{int64_t{1}}};
  ConfigSpace ranged = SpaceForJob(job, cluster);
  for (const auto& d : ranged.dims()) {
    EXPECT_NE(d.name, "num_reduce_tasks");
  }
}

TEST(SpaceForJobTest, MapOnlyJobsHaveNoReduceDimension) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  JobVertex job = *(*f->plan().GetJob("Jp"));
  job.branches[0].reduce_stages.clear();
  job.branches[0].partition = PartitionSpec();
  ConfigSpace space = SpaceForJob(job, f->plan().cluster());
  for (const auto& d : space.dims()) {
    EXPECT_NE(d.name, "num_reduce_tasks");
  }
}

TEST(RuleOfThumbTest, ScalesReducersWithAnnotatedInput) {
  auto f = MakeChain(/*rows=*/2000, 50, 40,
                     /*logical_bytes=*/3 * ::stubby::testing::kGB);
  ASSERT_TRUE(f.ok());
  const Plan& plan = f->plan();
  JobConfig small =
      RuleOfThumbConfig(*(*plan.GetJob("Jp")), plan.cluster(), &plan);
  EXPECT_GE(small.num_reduce_tasks, 3);
  EXPECT_LE(small.num_reduce_tasks, 6);

  auto big = MakeChain(2000, 50, 40, /*logical_bytes=*/800ull << 30);
  ASSERT_TRUE(big.ok());
  JobConfig capped = RuleOfThumbConfig(*(*big->plan().GetJob("Jp")),
                                       big->plan().cluster(), &big->plan());
  EXPECT_EQ(capped.num_reduce_tasks,
            static_cast<int>(big->plan().cluster().total_reduce_slots() *
                             0.95));
}

TEST(RuleOfThumbTest, UsesCombinerWhenAvailable) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  const Plan& plan = f->plan();
  EXPECT_TRUE(RuleOfThumbConfig(*(*plan.GetJob("Jp")), plan.cluster(), &plan)
                  .use_combiner);
  EXPECT_FALSE(RuleOfThumbConfig(*(*plan.GetJob("Jc")), plan.cluster(), &plan)
                   .use_combiner);
}

TEST(RuleOfThumbTest, UnknownSizesFallBackToOneWave) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  const Plan& plan = f->plan();
  // Jc reads the intermediate MID, whose size is not annotated.
  JobConfig c =
      RuleOfThumbConfig(*(*plan.GetJob("Jc")), plan.cluster(), &plan);
  EXPECT_EQ(c.num_reduce_tasks,
            static_cast<int>(plan.cluster().total_reduce_slots() * 0.95));
}

}  // namespace
}  // namespace stubby
