// Tests for cost/: the phase-time model, the cluster scheduler, annotation
// adjustment, and the what-if engine (prediction accuracy, fallback).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/rng.h"
#include "cost/adjust.h"
#include "cost/cost_cache.h"
#include "cost/phase_model.h"
#include "cost/schedule.h"
#include "cost/whatif.h"
#include "optimizer/configuration.h"
#include "profiler/profiler.h"
#include "test_workflows.h"
#include "workloads/registry.h"

namespace stubby {
namespace {

using ::stubby::testing::MakeChain;
using ::stubby::testing::ProfileInPlace;
using ::stubby::testing::RunOn;

JobDataflow BaseFlow() {
  JobDataflow df;
  df.job_id = "J";
  df.num_map_tasks = 100;
  df.num_reduce_tasks = 50;
  df.map_input_records = 1'000'000;
  df.map_input_bytes = 1ull << 30;
  df.map_input_stored_bytes = 1ull << 30;
  df.map_cpu_units = 1'000'000;
  df.map_output_records = 1'000'000;
  df.map_output_bytes = 1ull << 30;
  df.combine_output_records = 1'000'000;
  df.combine_output_bytes = 1ull << 30;
  df.reduce_input_records = 1'000'000;
  df.reduce_input_bytes = 1ull << 30;
  df.reduce_cpu_units = 1'000'000;
  df.output_records = 1'000'000;
  df.output_bytes = 1ull << 30;
  df.max_map_task_input_bytes = (1ull << 30) / 100;
  df.max_reduce_input_bytes = (1ull << 30) / 50;
  df.nonempty_reduce_partitions = 50;
  return df;
}

TEST(PhaseModelTest, MoreDataTakesLonger) {
  PhaseTimeModel model((ClusterSpec()));
  JobConfig cfg;
  cfg.num_reduce_tasks = 50;
  JobDataflow small = BaseFlow();
  JobDataflow big = BaseFlow();
  big.map_input_bytes *= 4;
  big.map_input_stored_bytes *= 4;
  big.map_output_bytes *= 4;
  big.combine_output_bytes *= 4;
  big.reduce_input_bytes *= 4;
  big.output_bytes *= 4;
  EXPECT_GT(model.StandaloneJobTime(big, cfg),
            model.StandaloneJobTime(small, cfg));
}

TEST(PhaseModelTest, SkewSlowsTheSlowestTask) {
  PhaseTimeModel model((ClusterSpec()));
  JobConfig cfg;
  JobDataflow uniform = BaseFlow();
  JobDataflow skewed = BaseFlow();
  skewed.max_reduce_input_bytes *= 10;
  JobTaskTimes tu = model.TaskTimes(uniform, cfg);
  JobTaskTimes ts = model.TaskTimes(skewed, cfg);
  EXPECT_NEAR(tu.reduce_avg_sec, ts.reduce_avg_sec, 1e-9);
  EXPECT_GT(ts.reduce_max_sec, tu.reduce_max_sec * 5);
}

TEST(PhaseModelTest, SmallSortBufferCausesMoreSpillIo) {
  PhaseTimeModel model((ClusterSpec()));
  JobConfig big_buf;
  big_buf.io_sort_mb = 512;
  JobConfig tiny_buf;
  tiny_buf.io_sort_mb = 16;
  JobDataflow df = BaseFlow();
  df.num_map_tasks = 4;  // ~256 MB of map output per task
  EXPECT_GT(model.TaskTimes(df, tiny_buf).map_avg_sec,
            model.TaskTimes(df, big_buf).map_avg_sec);
  EXPECT_GT(model.SpillCount(512.0 * 1024 * 1024, tiny_buf, 1),
            model.SpillCount(512.0 * 1024 * 1024, big_buf, 1));
}

TEST(PhaseModelTest, PackedPipelinesShrinkTheBuffer) {
  PhaseTimeModel model((ClusterSpec()));
  JobConfig cfg;
  EXPECT_GE(model.SpillCount(600.0 * 1024 * 1024, cfg, 4),
            model.SpillCount(600.0 * 1024 * 1024, cfg, 1));
}

TEST(PhaseModelTest, MergePasses) {
  EXPECT_EQ(PhaseTimeModel::MergePasses(1, 10), 0);
  EXPECT_EQ(PhaseTimeModel::MergePasses(10, 10), 1);
  EXPECT_EQ(PhaseTimeModel::MergePasses(100, 10), 2);
  EXPECT_EQ(PhaseTimeModel::MergePasses(101, 10), 3);
}

TEST(PhaseModelTest, MapOutputCompressionTradesCpuForIo) {
  ClusterSpec cluster;
  cluster.network_mbps = 10;  // shuffle-bound cluster
  PhaseTimeModel model(cluster);
  JobConfig off;
  JobConfig on;
  on.compress_map_output = true;
  JobDataflow df = BaseFlow();
  JobTaskTimes t_off = model.TaskTimes(df, off);
  JobTaskTimes t_on = model.TaskTimes(df, on);
  EXPECT_LT(t_on.reduce_avg_sec, t_off.reduce_avg_sec);
}

TEST(ScheduleTest, SingleJobWaves) {
  ClusterSpec cluster;  // 150 map slots, 102 reduce slots
  ScheduledJob j;
  j.id = "J";
  j.times.map_tasks = 300;  // exactly two map waves
  j.times.map_avg_sec = 10;
  j.times.map_max_sec = 10;
  j.times.reduce_tasks = 0;
  j.times.job_overhead_sec = 5;
  auto res = SimulateCluster({j}, cluster);
  ASSERT_TRUE(res.ok());
  EXPECT_NEAR(res->makespan_sec, 5 + 2 * 10, 1e-6);
}

TEST(ScheduleTest, DependentJobsSerialize) {
  ClusterSpec cluster;
  ScheduledJob a, b;
  a.id = "A";
  a.times.map_tasks = 10;
  a.times.map_avg_sec = a.times.map_max_sec = 10;
  b = a;
  b.id = "B";
  b.deps = {"A"};
  auto res = SimulateCluster({a, b}, cluster);
  ASSERT_TRUE(res.ok());
  EXPECT_NEAR(res->job_finish_sec.at("A"), 10, 1e-6);
  EXPECT_NEAR(res->makespan_sec, 20, 1e-6);
}

TEST(ScheduleTest, IndependentJobsOverlapWhenSlotsAllow) {
  ClusterSpec cluster;
  ScheduledJob a, b;
  a.id = "A";
  a.times.map_tasks = 50;
  a.times.map_avg_sec = a.times.map_max_sec = 10;
  b = a;
  b.id = "B";
  auto res = SimulateCluster({a, b}, cluster);
  ASSERT_TRUE(res.ok());
  EXPECT_NEAR(res->makespan_sec, 10, 1e-6);  // 100 tasks <= 150 slots
}

TEST(ScheduleTest, SlotContentionSerializes) {
  ClusterSpec cluster;
  ScheduledJob a, b;
  a.id = "A";
  a.times.map_tasks = 150;
  a.times.map_avg_sec = a.times.map_max_sec = 10;
  b = a;
  b.id = "B";
  auto res = SimulateCluster({a, b}, cluster);
  ASSERT_TRUE(res.ok());
  EXPECT_NEAR(res->makespan_sec, 20, 1e-6);
}

TEST(ScheduleTest, ReducesWaitForOwnMapsOnly) {
  ClusterSpec cluster;
  ScheduledJob a;
  a.id = "A";
  a.times.map_tasks = 10;
  a.times.map_avg_sec = a.times.map_max_sec = 10;
  a.times.reduce_tasks = 10;
  a.times.reduce_avg_sec = a.times.reduce_max_sec = 7;
  auto res = SimulateCluster({a}, cluster);
  ASSERT_TRUE(res.ok());
  EXPECT_NEAR(res->makespan_sec, 17, 1e-6);
}

TEST(ScheduleTest, RejectsUnknownDependency) {
  ScheduledJob a;
  a.id = "A";
  a.deps = {"GHOST"};
  EXPECT_FALSE(SimulateCluster({a}, ClusterSpec()).ok());
}

TEST(ScheduleTest, RejectsDuplicateIds) {
  ScheduledJob a;
  a.id = "A";
  EXPECT_FALSE(SimulateCluster({a, a}, ClusterSpec()).ok());
}

TEST(AdjustTest, ComposeStatsMultipliesSelectivitiesAndSumsCpu) {
  // The paper's example: packed map selectivity = product of the old map
  // and reduce selectivities; CPU cost = sum (input-weighted).
  Schema s({"a"});
  Stage m = Stage::Map(MakeIdentityMap(s),
                       StageStats{0.5, 0.6, 2.0, 1.0});
  Stage r = Stage::Reduce(DistinctReduce("d", s, {"a"}), {"a"},
                          StageStats{0.2, 0.3, 4.0, 0.2});
  StageStats combined = ComposeStats({m, r});
  EXPECT_DOUBLE_EQ(combined.record_selectivity, 0.1);
  EXPECT_DOUBLE_EQ(combined.byte_selectivity, 0.18);
  EXPECT_DOUBLE_EQ(combined.cpu_per_record, 2.0 + 0.5 * 4.0);
}

TEST(AdjustTest, MergeDirectionPicksTheSurvivingShuffle) {
  JobAnnotations producer, consumer;
  SchemaAnnotation ps, cs;
  ps.k1 = FieldSet{"a"};
  ps.k2 = FieldSet{"p2"};
  ps.k3 = FieldSet{"pm"};
  cs.k2 = FieldSet{"c2"};
  cs.k3 = FieldSet{"out"};
  producer.schema = ps;
  consumer.schema = cs;
  ProfileAnnotation pp, cp;
  pp.k2_distinct_groups = 111;
  cp.k2_distinct_groups = 222;
  producer.profile = pp;
  consumer.profile = cp;

  JobAnnotations into_producer = MergeForVerticalPack(
      producer, consumer, PackDirection::kConsumerIntoProducer);
  EXPECT_EQ(*into_producer.schema->k2, FieldSet{"p2"});
  EXPECT_EQ(*into_producer.schema->k3, FieldSet{"out"});
  EXPECT_DOUBLE_EQ(into_producer.profile->k2_distinct_groups, 111);

  JobAnnotations into_consumer = MergeForVerticalPack(
      producer, consumer, PackDirection::kProducerIntoConsumer);
  EXPECT_EQ(*into_consumer.schema->k2, FieldSet{"c2"});
  EXPECT_EQ(*into_consumer.schema->k1, FieldSet{"a"});
  EXPECT_DOUBLE_EQ(into_consumer.profile->k2_distinct_groups, 222);
}

TEST(WhatIfTest, FallsBackWithoutProfiles) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  WhatIfEngine whatif(f->plan().cluster());
  EXPECT_FALSE(whatif.IsCostable(f->plan()));  // not profiled yet
  CostEstimate est = whatif.Cost(f->plan());
  EXPECT_TRUE(est.fallback);
  EXPECT_DOUBLE_EQ(est.cost, 2.0);  // job count
}

TEST(WhatIfTest, PredictsProfiledPlansCloseToActual) {
  auto f = MakeChain(4000);
  ASSERT_TRUE(f.ok());
  ProfileInPlace(&*f);
  WhatIfEngine whatif(f->plan().cluster());
  ASSERT_TRUE(whatif.IsCostable(f->plan()));
  auto predicted = whatif.PredictDataflow(f->plan());
  ASSERT_TRUE(predicted.ok());
  WorkflowDataflow actual = RunOn(*f, f->plan());
  // The profiled plan itself should be predicted tightly.
  EXPECT_NEAR(predicted->makespan_sec, actual.makespan_sec,
              0.25 * actual.makespan_sec);
  const JobDataflow* pa = predicted->FindJob("Jp");
  const JobDataflow* aa = actual.FindJob("Jp");
  ASSERT_TRUE(pa != nullptr && aa != nullptr);
  EXPECT_EQ(pa->num_map_tasks, aa->num_map_tasks);
  EXPECT_NEAR(static_cast<double>(pa->map_output_bytes),
              static_cast<double>(aa->map_output_bytes),
              0.05 * aa->map_output_bytes);
}

TEST(WhatIfTest, KeyHistogramRangeAndQuantile) {
  KeyHistogram h;
  h.field = "x";
  h.min = 0;
  h.max = 100;
  h.bucket_fractions = {0.25, 0.25, 0.25, 0.25};
  EXPECT_NEAR(h.FractionInRange(0, 50), 0.5, 1e-9);
  EXPECT_NEAR(h.FractionInRange(-10, 1000), 1.0, 1e-9);
  EXPECT_NEAR(h.Quantile(0.5), 50, 1.0);
  // With a heavy hitter holding 40% at x=10 the quantile shifts left.
  h.bucket_fractions = {0.15, 0.15, 0.15, 0.15};
  h.heavy_hitters = {{10.0, 0.4}};
  EXPECT_NEAR(h.FractionInRange(9, 11), 0.4 + 0.6 * 0.02, 0.01);
  EXPECT_LE(h.Quantile(0.4), 10.5);
}

// The full-bucket scan FractionInRange used before it learned to visit only
// the overlapping index window; kept verbatim as the bit-level reference.
double FullScanFractionInRange(const KeyHistogram& h, double lo, double hi) {
  if (h.bucket_fractions.empty() || h.max < h.min) return 1.0;
  double point_mass = 0.0;
  for (const auto& [value, fraction] : h.heavy_hitters) {
    if (value >= lo && value < hi) point_mass += fraction;
  }
  lo = std::max(lo, h.min);
  hi = std::min(hi, h.max + 1e-12);
  if (hi <= lo) return std::clamp(point_mass, 0.0, 1.0);
  if (h.max == h.min) {
    return std::clamp(point_mass + h.bucket_fractions[0], 0.0, 1.0);
  }
  const double width =
      (h.max - h.min) / static_cast<double>(h.bucket_fractions.size());
  double total = point_mass;
  for (size_t i = 0; i < h.bucket_fractions.size(); ++i) {
    double b_lo = h.min + width * static_cast<double>(i);
    double b_hi = b_lo + width;
    double overlap = std::min(hi, b_hi) - std::max(lo, b_lo);
    if (overlap > 0) total += h.bucket_fractions[i] * (overlap / width);
  }
  return std::clamp(total, 0.0, 1.0);
}

TEST(WhatIfTest, FractionInRangeWindowMatchesFullScan) {
  Rng rng(2012);
  const double kInf = std::numeric_limits<double>::infinity();
  // Origins and widths span magnitudes, down to buckets narrower than one
  // ulp of the origin, where edge arithmetic rounds the hardest.
  const double kOrigins[] = {0.0, -1.0, 3.5, -7e3, 1e6, 1e15};
  const double kWidths[] = {1.0, 1e-3, 0.37, 250.0, 1e-12, 1e-300, 1e9};
  int checked = 0;
  for (int trial = 0; trial < 400; ++trial) {
    KeyHistogram h;
    h.field = "k";
    const size_t n = 1 + rng.NextUint64(trial % 5 == 0 ? 1 : 200);
    h.min = kOrigins[rng.NextUint64(std::size(kOrigins))] *
            (rng.NextUint64(2) == 0 ? 1.0 : rng.NextDouble(0.5, 2.0));
    const double width = kWidths[rng.NextUint64(std::size(kWidths))] *
                         rng.NextDouble(0.5, 2.0);
    h.max = trial % 7 == 0 ? h.min : h.min + width * static_cast<double>(n);
    for (size_t i = 0; i < n; ++i) h.bucket_fractions.push_back(rng.NextDouble());
    const size_t hitters = rng.NextUint64(4);
    for (size_t i = 0; i < hitters; ++i) {
      h.heavy_hitters.emplace_back(h.min + rng.NextDouble(-0.1, 1.1) *
                                               (h.max - h.min),
                                   rng.NextDouble(0.0, 0.3));
    }
    const double span = h.max - h.min;
    const double w = span / static_cast<double>(n);
    auto pick = [&]() -> double {
      switch (rng.NextUint64(6)) {
        case 0:  // a bucket edge, computed exactly as the scan computes it
          return h.min + w * static_cast<double>(rng.NextUint64(n + 1));
        case 1:  // one of the edges' neighbours
          return std::nextafter(
              h.min + w * static_cast<double>(rng.NextUint64(n + 1)),
              rng.NextUint64(2) == 0 ? -kInf : kInf);
        case 2:  // outside [min, max]
          return rng.NextUint64(2) == 0 ? h.min - rng.NextDouble(0.0, 1e3)
                                        : h.max + rng.NextDouble(0.0, 1e3);
        case 3:
          return rng.NextUint64(2) == 0 ? -kInf : kInf;
        case 4:  // a heavy hitter, when there is one
          if (!h.heavy_hitters.empty()) {
            return h.heavy_hitters[rng.NextUint64(h.heavy_hitters.size())]
                .first;
          }
          [[fallthrough]];
        default:
          return h.min + rng.NextDouble(-0.2, 1.2) * span;
      }
    };
    for (int q = 0; q < 50; ++q) {
      double lo = pick();
      double hi = rng.NextUint64(8) == 0 ? lo : pick();
      if (rng.NextUint64(4) != 0 && hi < lo) std::swap(lo, hi);
      const double want = FullScanFractionInRange(h, lo, hi);
      const double got = h.FractionInRange(lo, hi);
      ASSERT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
          << "trial " << trial << " min=" << h.min << " max=" << h.max
          << " n=" << n << " lo=" << lo << " hi=" << hi << " want=" << want
          << " got=" << got;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 400 * 50);
}

TEST(CostCacheTest, JobDigestIsContentSensitive) {
  auto f = MakeChain(4000);
  ASSERT_TRUE(f.ok());
  ProfileInPlace(&*f);
  const Plan& plan = f->plan();
  auto jp = plan.GetJob("Jp");
  ASSERT_TRUE(jp.ok());
  // Identical content digests identically, and the structure-prefix +
  // configuration-suffix split recomposes to the full content digest.
  EXPECT_EQ(JobContentDigest(**jp).value(), JobContentDigest(**jp).value());
  CostDigest split = JobStructureDigest(**jp);
  MixJobConfiguration(&split, **jp);
  EXPECT_EQ(split.value(), JobContentDigest(**jp).value());

  const CostKey base = JobContentDigest(**jp).value();
  Plan other = plan;
  (*other.GetMutableJob("Jp"))->config.num_reduce_tasks += 1;
  EXPECT_NE(JobContentDigest(**other.GetJob("Jp")).value(), base);

  other = plan;
  (*other.GetMutableJob("Jp"))->config.io_sort_mb += 16.0;
  EXPECT_NE(JobContentDigest(**other.GetJob("Jp")).value(), base);

  other = plan;
  (*other.GetMutableJob("Jp"))->branches[0].inputs[0].prune_fraction = 0.5;
  EXPECT_NE(JobContentDigest(**other.GetJob("Jp")).value(), base);

  other = plan;
  JobVertex* job = *other.GetMutableJob("Jp");
  ASSERT_TRUE(job->branches[0].annotations.profile.has_value());
  job->branches[0].annotations.profile->combine_selectivity *= 0.5;
  EXPECT_NE(JobContentDigest(*job).value(), base);

  // Input size predictions feed the job-memo key.
  PredictedDataset p;
  p.records = 10.0;
  CostDigest a, b;
  MixPredictedDataset(&a, p);
  p.bytes += 1.0;
  MixPredictedDataset(&b, p);
  EXPECT_NE(a.value(), b.value());
}

TEST(CostCacheTest, JobMemoEvictsLeastRecentlyUsed) {
  CostCache cache(CostCache::Options{.job_capacity = 2});
  const CostKey k1{1, 1}, k2{2, 2}, k3{3, 3};
  CostJobEntry entry;
  entry.dataflow.job_id = "J1";
  cache.InsertJob(k1, entry);
  entry.dataflow.job_id = "J2";
  cache.InsertJob(k2, entry);
  ASSERT_NE(cache.FindJob(k1), nullptr);  // refresh: k2 becomes LRU
  entry.dataflow.job_id = "J3";
  cache.InsertJob(k3, entry);
  EXPECT_EQ(cache.job_entries(), 2u);
  EXPECT_EQ(cache.job_evictions(), 1u);
  EXPECT_EQ(cache.FindJob(k2), nullptr);
  ASSERT_NE(cache.FindJob(k1), nullptr);
  EXPECT_EQ(cache.FindJob(k1)->dataflow.job_id, "J1");
  EXPECT_EQ(cache.FindJob(k3)->dataflow.job_id, "J3");
}

TEST(CostCacheTest, CachedCostingIsBitIdentical) {
  auto f = MakeChain(4000);
  ASSERT_TRUE(f.ok());
  ProfileInPlace(&*f);
  WhatIfEngine plain(f->plan().cluster());
  const CostEstimate reference = plain.Cost(f->plan());

  WhatIfEngine cached(f->plan().cluster());
  CostCache cache;
  CostInstrumentation stats;
  cached.set_cache(&cache);
  cached.set_instrumentation(&stats);
  const CostEstimate first = cached.Cost(f->plan());
  const CostEstimate again = cached.Cost(f->plan());  // every job replays

  EXPECT_EQ(reference.cost, first.cost);  // exactly, not approximately
  EXPECT_EQ(reference.fallback, first.fallback);
  EXPECT_EQ(reference.dataflow.makespan_sec, first.dataflow.makespan_sec);
  EXPECT_EQ(reference.dataflow.job_finish_sec, first.dataflow.job_finish_sec);
  EXPECT_EQ(first.cost, again.cost);
  EXPECT_EQ(first.dataflow.job_finish_sec, again.dataflow.job_finish_sec);
  EXPECT_EQ(stats.whatif_invocations, 2u);
  EXPECT_EQ(stats.full_predictions, 1u);
  EXPECT_EQ(stats.incremental_predictions, 1u);
  EXPECT_EQ(stats.job_cache_hits, stats.job_predictions);
  EXPECT_EQ(stats.plan_cache_hits + stats.plan_cache_misses, 0u);

  // Changing one downstream job's configuration replays the untouched
  // upstream job from the per-job memo: an incremental prediction.
  const uint64_t hits = stats.job_cache_hits;
  Plan variant = f->plan();
  (*variant.GetMutableJob("Jc"))->config.io_sort_mb += 16.0;
  const CostEstimate changed = cached.Cost(variant);
  EXPECT_EQ(changed.cost, plain.Cost(variant).cost);
  EXPECT_EQ(stats.incremental_predictions, 2u);
  EXPECT_GT(stats.job_cache_hits, hits);
}

// The RRS loop builds one plan shape per configuration search and costs
// every point through CostPoint over it. The shape must therefore hold only configuration-independent facts: after
// any sequence of points applied to one scratch plan, the point cost —
// through the per-job memo with precomputed digests, or with no cache at
// all — equals a fresh, uncached Cost of a copy, bit for bit. Coordinates
// hit the cube's faces often, so compress_output (which rewrites produced
// datasets' layouts) flips in both directions.
TEST(WhatIfTest, PointCostWithShapeMatchesCost) {
  constexpr int kPoints = 60;
  for (const std::string& abbr : AllWorkloadAbbrs()) {
    SCOPED_TRACE(abbr);
    WorkloadOptions options;
    options.sample_rows = 1500;
    auto w = MakeWorkload(abbr, options);
    ASSERT_TRUE(w.ok()) << w.status();
    Dfs dfs = w->dfs;
    ASSERT_TRUE(Profiler(options.cluster).ProfilePlan(&w->plan, &dfs).ok());
    const Plan& base = w->plan;
    const WhatIfEngine reference(base.cluster());
    ASSERT_FALSE(reference.Cost(base).fallback);

    std::vector<std::pair<std::string, ConfigSpace>> spaces;
    for (const auto& [id, job] : base.jobs()) {
      ConfigSpace space = SpaceForJob(job, base.cluster());
      if (space.size() > 0) spaces.emplace_back(id, std::move(space));
    }
    ASSERT_FALSE(spaces.empty());

    for (const bool cached : {true, false}) {
      SCOPED_TRACE(cached ? "cache and digests" : "no cache");
      WhatIfEngine engine(base.cluster());
      CostCache cache;
      CostInstrumentation stats;
      if (cached) engine.set_cache(&cache);
      engine.set_instrumentation(&stats);
      Plan scratch = base;
      const auto shape = engine.Shape(scratch);
      ASSERT_TRUE(shape.ok()) << shape.status();

      Rng rng(97);
      int compress_flips = 0;
      for (int p = 0; p < kPoints; ++p) {
        for (const auto& [id, space] : spaces) {
          // Each point re-draws about half the jobs, so the others replay
          // from the per-job memo in the cached leg.
          if (rng.NextUint64(2) == 0) continue;
          std::vector<double> slice(space.size());
          for (double& u : slice) {
            u = rng.NextUint64(4) == 0 ? double(rng.NextUint64(2))
                                       : rng.NextDouble();
          }
          const JobConfig& current = (*scratch.GetJob(id))->config;
          JobConfig config = space.PointToConfig(slice, current);
          if (config.compress_output != current.compress_output) {
            ++compress_flips;
          }
          ASSERT_TRUE(ApplyConfiguration(&scratch, id, config).ok());
        }
        const auto digests = JobContentDigests(scratch);
        const CostEstimate point =
            engine.CostPoint(scratch, *shape, cached ? &digests : nullptr);
        const Plan copy = scratch;
        const CostEstimate fresh = reference.Cost(copy);
        ASSERT_FALSE(fresh.fallback) << p;
        EXPECT_FALSE(point.fallback) << p;
        ASSERT_EQ(std::memcmp(&point.cost, &fresh.cost, sizeof(double)), 0)
            << "point " << p << ": " << point.cost << " vs " << fresh.cost;
        EXPECT_EQ(point.dataflow.job_finish_sec, fresh.dataflow.job_finish_sec)
            << p;
      }
      EXPECT_GT(compress_flips, 5);
      EXPECT_EQ(stats.whatif_invocations, static_cast<uint64_t>(kPoints));
      if (cached) {
        EXPECT_GT(stats.job_cache_hits, 0u);
      }
    }
  }
}

TEST(WhatIfTest, PruningShrinksPredictedInput) {
  auto f = MakeChain(4000);
  ASSERT_TRUE(f.ok());
  ProfileInPlace(&*f);
  WhatIfEngine whatif(f->plan().cluster());
  Plan pruned = f->plan();
  auto jc = pruned.GetMutableJob("Jc");
  (*jc)->branches[0].inputs[0].prune_partitions = {0, 1};
  (*jc)->branches[0].inputs[0].prune_fraction = 0.25;
  auto full = whatif.PredictDataflow(f->plan());
  auto less = whatif.PredictDataflow(pruned);
  ASSERT_TRUE(full.ok() && less.ok());
  EXPECT_LT(less->FindJob("Jc")->map_input_bytes,
            full->FindJob("Jc")->map_input_bytes / 2);
}

}  // namespace
}  // namespace stubby
