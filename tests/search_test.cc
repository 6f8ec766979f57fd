// Tests for optimizer/unit and optimizer/search: dynamic optimization-unit
// generation (the Figure 9 traversal), in-unit enumeration, cost-based
// subplan choice, and the information-spectrum fallback.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>

#include "common/threading.h"
#include "cost/whatif.h"
#include "optimizer/bloom.h"
#include "optimizer/horizontal.h"
#include "optimizer/partition_fn.h"
#include "optimizer/search.h"
#include "optimizer/vertical.h"
#include "profiler/profiler.h"
#include "test_workflows.h"
#include "workloads/registry.h"

namespace stubby {
namespace {

using ::stubby::testing::MakeChain;
using ::stubby::testing::MakeSiblings;
using ::stubby::testing::ProfileInPlace;

TEST(UnitTest, ChainTraversal) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  std::set<std::string> processed;
  auto u1 = NextUnit(f->plan(), processed);
  ASSERT_TRUE(u1.has_value());
  EXPECT_EQ(u1->producers, std::vector<std::string>{"Jp"});
  EXPECT_EQ(u1->consumers, std::vector<std::string>{"Jc"});
  processed.insert("Jp");
  auto u2 = NextUnit(f->plan(), processed);
  ASSERT_TRUE(u2.has_value());
  EXPECT_EQ(u2->producers, std::vector<std::string>{"Jc"});
  EXPECT_TRUE(u2->consumers.empty());
  processed.insert("Jc");
  EXPECT_FALSE(NextUnit(f->plan(), processed).has_value());
}

TEST(UnitTest, SiblingsAreOneUnitOfConcurrentProducers) {
  auto f = MakeSiblings();
  ASSERT_TRUE(f.ok());
  auto u = NextUnit(f->plan(), {});
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->producers, (std::vector<std::string>{"Ja", "Jb"}));
  EXPECT_EQ(u->AllJobs().size(), 2u);
}

TEST(SearchTest, EnumerationCoversPackingCombinations) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  ProfileInPlace(&*f);
  WhatIfEngine whatif(f->plan().cluster());
  std::vector<std::shared_ptr<Transformation>> group = {
      std::make_shared<IntraJobVerticalPacking>(),
      std::make_shared<InterJobVerticalPacking>(),
  };
  UnitOptimizer optimizer(group, &whatif, UnitSearchOptions{});
  auto unit = NextUnit(f->plan(), {});
  ASSERT_TRUE(unit.has_value());
  auto subplans = optimizer.EnumerateSubplans(f->plan(), *unit);
  ASSERT_TRUE(subplans.ok());
  // Original, intra-packed, intra+inter-packed.
  EXPECT_EQ(subplans->size(), 3u);
  for (const auto& sp : *subplans) {
    EXPECT_TRUE(sp.plan.Validate().ok());
    EXPECT_GT(sp.cost, 0.0);
  }
}

TEST(SearchTest, PicksCheapestSubplanAndReportsRenames) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  ProfileInPlace(&*f);
  WhatIfEngine whatif(f->plan().cluster());
  std::vector<std::shared_ptr<Transformation>> group = {
      std::make_shared<IntraJobVerticalPacking>(),
      std::make_shared<InterJobVerticalPacking>(),
  };
  UnitOptimizer optimizer(group, &whatif, UnitSearchOptions{});
  auto unit = NextUnit(f->plan(), {});
  auto result = optimizer.Optimize(f->plan(), *unit);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->plan.Validate().ok());
  // Whatever it picked must be at least as good as the original's cost.
  double original_cost = whatif.Cost(f->plan()).cost;
  EXPECT_LE(result->cost, original_cost + 1e-9);
  // The chain should pack into one job here (shuffle elimination wins).
  if (result->plan.num_jobs() == 1) {
    EXPECT_EQ(result->renames.at("Jp"), "Jp+Jc");
    EXPECT_EQ(result->renames.at("Jc"), "Jp+Jc");
  }
}

TEST(SearchTest, FallbackModeMinimizesJobCount) {
  // No profiles: costing falls back to job count; the structural search
  // still packs (fewer jobs = lower fallback cost) but configurations are
  // left untouched.
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  WhatIfEngine whatif(f->plan().cluster());
  ASSERT_TRUE(whatif.Cost(f->plan()).fallback);
  std::vector<std::shared_ptr<Transformation>> group = {
      std::make_shared<IntraJobVerticalPacking>(),
      std::make_shared<InterJobVerticalPacking>(),
  };
  UnitOptimizer optimizer(group, &whatif, UnitSearchOptions{});
  auto unit = NextUnit(f->plan(), {});
  auto result = optimizer.Optimize(f->plan(), *unit);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->fallback);
  EXPECT_EQ(result->plan.num_jobs(), 1u);
  // Configurations untouched in fallback mode.
  EXPECT_EQ((*result->plan.GetJob("Jp+Jc"))->config, JobConfig{});
}

TEST(SearchTest, ConfigurationSearchImprovesCost) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  ProfileInPlace(&*f);
  WhatIfEngine whatif(f->plan().cluster());
  UnitSearchOptions with_config;
  with_config.enable_configuration = true;
  UnitSearchOptions without_config;
  without_config.enable_configuration = false;
  UnitOptimizer a({}, &whatif, with_config);
  UnitOptimizer b({}, &whatif, without_config);
  auto unit = NextUnit(f->plan(), {});
  auto ra = a.Optimize(f->plan(), *unit);
  auto rb = b.Optimize(f->plan(), *unit);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_LT(ra->cost, rb->cost);  // default configs are far from tuned
}

TEST(SearchTest, DeterministicBySeed) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  ProfileInPlace(&*f);
  WhatIfEngine whatif(f->plan().cluster());
  std::vector<std::shared_ptr<Transformation>> group = {
      std::make_shared<IntraJobVerticalPacking>(),
      std::make_shared<InterJobVerticalPacking>(),
  };
  UnitSearchOptions opts;
  opts.seed = 99;
  UnitOptimizer optimizer(group, &whatif, opts);
  auto unit = NextUnit(f->plan(), {});
  auto r1 = optimizer.Optimize(f->plan(), *unit);
  auto r2 = optimizer.Optimize(f->plan(), *unit);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_DOUBLE_EQ(r1->cost, r2->cost);
  EXPECT_EQ(PlanSignature(r1->plan), PlanSignature(r2->plan));
}

/// Signatures of a plain serial FIFO BFS over the unit's subplans: each
/// popped state (while under the cap) is a subplan and, below the depth
/// limit, pushes its not-yet-seen children in (transformation,
/// application) order. `cut_mid_level` reports whether the cap stopped the
/// search inside a level (a state of the last subplan's depth was left).
std::vector<std::string> SerialBfsSignatures(
    const Plan& plan, const OptimizationUnit& unit,
    const std::vector<std::shared_ptr<Transformation>>& transforms,
    int max_subplans, int max_depth, bool* cut_mid_level) {
  struct State {
    Plan plan;
    std::map<std::string, std::string> renames;  // original id -> current
    int depth = 0;
  };
  std::vector<std::string> out;
  std::set<std::string> seen{PlanSignature(plan)};
  std::deque<State> queue;
  queue.push_back(State{plan, {}, 0});
  int last_depth = -1;
  while (!queue.empty() && static_cast<int>(out.size()) < max_subplans) {
    State state = std::move(queue.front());
    queue.pop_front();
    std::vector<std::string> scope;
    for (const std::string& id : unit.AllJobs()) {
      auto it = state.renames.find(id);
      const std::string& mapped = it == state.renames.end() ? id : it->second;
      if (std::find(scope.begin(), scope.end(), mapped) == scope.end()) {
        scope.push_back(mapped);
      }
    }
    if (state.depth < max_depth) {
      for (const auto& t : transforms) {
        for (const Application& app : t->FindApplications(state.plan, scope)) {
          auto next = app.apply(state.plan);
          if (!next.ok()) continue;
          if (!seen.insert(PlanSignature(*next)).second) continue;
          State child{std::move(*next), state.renames, state.depth + 1};
          for (auto& [old_id, new_id] : child.renames) {
            auto it = app.renames.find(new_id);
            if (it != app.renames.end()) new_id = it->second;
          }
          for (const auto& [old_id, new_id] : app.renames) {
            child.renames.emplace(old_id, new_id);
          }
          queue.push_back(std::move(child));
        }
      }
    }
    out.push_back(PlanSignature(state.plan));
    last_depth = state.depth;
  }
  *cut_mid_level = !queue.empty() && queue.front().depth == last_depth;
  return out;
}

// EnumerateSubplans expands each BFS level as parallel tasks and merges the
// children in order; it must yield the serial FIFO BFS's subplans, in the
// same order and with the same cap cut (including caps that cut a level
// mid-way), at any thread count.
TEST(SearchTest, LevelParallelEnumerationMatchesSerialBfs) {
  const std::vector<std::shared_ptr<Transformation>> transforms = {
      std::make_shared<IntraJobVerticalPacking>(),
      std::make_shared<InterJobVerticalPacking>(),
      std::make_shared<HorizontalPacking>(),
      std::make_shared<PartitionFunctionTransform>(),
      std::make_shared<BloomTransferTransform>(),
  };
  ThreadPool one(1);
  ThreadPool four(4);
  int cut_mid_level = 0;
  for (const std::string& abbr : AllWorkloadAbbrs()) {
    SCOPED_TRACE(abbr);
    WorkloadOptions options;
    options.sample_rows = 1500;
    auto w = MakeWorkload(abbr, options);
    ASSERT_TRUE(w.ok()) << w.status();
    Dfs dfs = w->dfs;
    ASSERT_TRUE(Profiler(options.cluster).ProfilePlan(&w->plan, &dfs).ok());
    const Plan& plan = w->plan;
    WhatIfEngine whatif(plan.cluster());

    std::set<std::string> processed;
    while (auto unit = NextUnit(plan, processed)) {
      SCOPED_TRACE(unit->ToString());
      for (const auto& p : unit->producers) processed.insert(p);
      for (int max_depth : {1, 6}) {
        for (int max_subplans : {1, 2, 3, 7, 64}) {
          SCOPED_TRACE(::testing::Message() << "max_depth=" << max_depth
                                            << " max_subplans="
                                            << max_subplans);
          bool cut = false;
          const std::vector<std::string> want = SerialBfsSignatures(
              plan, *unit, transforms, max_subplans, max_depth, &cut);
          if (cut) ++cut_mid_level;
          UnitSearchOptions search;
          search.max_subplans = max_subplans;
          search.max_depth = max_depth;
          search.enable_configuration = false;
          for (ThreadPool* pool : {&one, &four}) {
            UnitOptimizer optimizer(transforms, &whatif, search, pool);
            auto got = optimizer.EnumerateSubplans(plan, *unit);
            ASSERT_TRUE(got.ok()) << got.status();
            std::vector<std::string> sigs;
            for (const SubplanCandidate& c : *got) {
              sigs.push_back(PlanSignature(c.plan));
            }
            EXPECT_EQ(sigs, want) << pool->threads() << " thread(s)";
          }
        }
      }
    }
  }
  // Some caps must cut a level part-way through.
  EXPECT_GT(cut_mid_level, 0);
}

}  // namespace
}  // namespace stubby
