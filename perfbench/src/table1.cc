// The two Table-1 workloads: `table1_optimize` (the optimizer and cost
// layers) and `table1_execute` (the executor with dfs and mr under it).

#include <cstring>
#include <map>
#include <utility>

#include "bench.h"
#include "cost/cost_cache.h"
#include "cost/whatif.h"
#include "exec/workflow_runner.h"
#include "optimizer/stubby.h"
#include "optimizer/transform.h"
#include "profiler/profiler.h"
#include "reuse/result_store.h"
#include "workloads/registry.h"

namespace perfbench {

const std::vector<std::string>& Table1Abbrs() {
  static const std::vector<std::string> kAbbrs = stubby::AllWorkloadAbbrs();
  return kAbbrs;
}

namespace {

using stubby::Status;
using Outputs = std::map<std::string, std::vector<stubby::Row>>;

constexpr int kOptimizeSampleRows = 6000;
/// How much the optimizer's work varies with its inputs (BR enumerates
/// 512 to 650 subplans depending on the data and the search seed) is
/// averaged over this many input sets per run.
constexpr int kOptimizeSubSeeds = 4;
constexpr int kExecuteSampleRows = 60000;
constexpr int kExecuteSubSeeds = 3;
/// Direct what-if calls timed per workflow for `cost.whatif_us.<WF>`.
constexpr int kWhatIfRepeats = 25;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// One Table-1 workflow, generated from one sub-seed and profiled.
struct Table1Workflow {
  std::string abbr;
  std::string key;  ///< "<abbr>/<seed>", the span and check id
  stubby::WorkloadOptions options;
  stubby::Workload workload;  ///< the plan carries profile annotations
  uint64_t base_rows = 0;     ///< sample rows over all base inputs
  double profile_s = 0.0;
};

/// Generates and profiles the eight workflows at `sample_rows` for one
/// seed, appending them to `out`.
Status BuildTable1(int sample_rows, uint64_t seed, Tracer* tracer,
                   std::vector<Table1Workflow>* out, double* build_s) {
  for (const std::string& abbr : Table1Abbrs()) {
    Table1Workflow wf;
    wf.abbr = abbr;
    wf.key = abbr + "/" + std::to_string(seed);
    wf.options.sample_rows = sample_rows;
    wf.options.seed = seed;
    const double t0 = NowSeconds();
    auto made = [&] {
      Tracer::Scope span(tracer, "workloads.MakeWorkload", wf.key);
      return stubby::MakeWorkload(abbr, wf.options);
    }();
    *build_s += SecondsSince(t0);
    if (!made.ok()) return made.status();
    wf.workload = std::move(*made);

    stubby::Dfs scratch;
    {
      Tracer::Scope span(tracer, "dfs.Copy", wf.key);
      scratch = wf.workload.dfs;
    }
    const double p0 = NowSeconds();
    {
      Tracer::Scope span(tracer, "profiler.ProfilePlan", wf.key);
      stubby::Profiler profiler(wf.options.cluster);
      STUBBY_RETURN_NOT_OK(profiler.ProfilePlan(&wf.workload.plan, &scratch));
    }
    wf.profile_s = SecondsSince(p0);

    for (const auto& [id, ds] : wf.workload.plan.datasets()) {
      if (!ds.is_base_input) continue;
      auto stored = wf.workload.dfs.Get(id);
      if (stored.ok()) wf.base_rows += (*stored)->num_rows();
    }
    out->push_back(std::move(wf));
  }
  return Status::OK();
}

/// Default options, the workflow's sub-seed as the unit-search seed, and
/// the borrowed pool.
stubby::StubbyOptions OptimizerOptions(const Config& config,
                                       const Table1Workflow& wf) {
  stubby::StubbyOptions options;
  options.unit.seed = wf.options.seed;
  options.pool = config.pool;
  return options;
}

/// Per-workflow medians over the sub-seeds, as `<prefix><WF>` metrics.
void SetPerWorkflow(const std::string& prefix,
                    const std::map<std::string, std::vector<double>>& values,
                    const std::string& unit, MetricSink* sink) {
  for (const auto& [abbr, v] : values) sink->Set(prefix + abbr, Median(v), unit);
}

void SetProfileLayers(const std::vector<Table1Workflow>& wfs, double build_s,
                      MetricSink* sink) {
  std::map<std::string, std::vector<double>> profile_s;
  for (const Table1Workflow& wf : wfs) {
    profile_s[wf.abbr].push_back(wf.profile_s);
  }
  SetPerWorkflow("profiler.profile_s.", profile_s, "s", sink);
  sink->Set("workloads.build_s", build_s, "s");
}

// ---------------------------------------------------------------------------
// table1_optimize: a fresh StubbyOptimizer (cold cost cache) per call, with
// default options, on the borrowed pool; one closed-loop client.

class OptimizeBench : public Bench {
 public:
  explicit OptimizeBench(const Config& config) : config_(config) {}

  /// One set-up per sub-seed.
  Status Setup(Tracer* tracer) override {
    wfs_.clear();
    build_s_ = 0.0;
    for (uint64_t seed : SubSeeds(config_.seed, kOptimizeSubSeeds)) {
      const double t0 = NowSeconds();
      STUBBY_RETURN_NOT_OK(
          BuildTable1(kOptimizeSampleRows, seed, tracer, &wfs_, &build_s_));
      setup_s_.push_back(SecondsSince(t0));
    }
    return Status::OK();
  }

  // Each plan's reference is its first optimization, so nothing to prepare.
  Status Prepare(Tracer*) override { return Status::OK(); }

  /// The warm-up optimizes the first sub-seed's workflows only.
  Status Round(Tracer* tracer, bool measured) override {
    if (measured) last_ = RoundStats{};
    std::vector<double> round_ms;
    const size_t n = measured ? wfs_.size() : Table1Abbrs().size();
    for (size_t i = 0; i < n; ++i) {
      const Table1Workflow& wf = wfs_[i];
      stubby::StubbyOptimizer optimizer(OptimizerOptions(config_, wf));
      const double cpu0 = ProcessCpuSeconds();
      const double t0 = NowSeconds();
      auto report = [&] {
        Tracer::Scope span(tracer, "optimizer.Optimize", wf.key);
        return optimizer.Optimize(wf.workload.plan);
      }();
      const double wall = SecondsSince(t0);
      const double cpu = ProcessCpuSeconds() - cpu0;
      checks.Count(report.ok() && Matches(wf.key, *report),
                   "table1_optimize " + wf.key);
      if (!measured) continue;
      round_ms.push_back(wall * 1e3);
      last_.wall_s += wall;
      if (!report.ok()) continue;
      last_.optimize_ms[wf.abbr].push_back(wall * 1e3);
      last_.cpu_s += cpu;
      last_.est_cost_s += report->estimated_cost;
      last_.subplans += report->subplans_enumerated;
      last_.units += report->units_processed;
      last_.costing.Add(report->costing);
      for (const stubby::PhaseReport& phase : report->phases) {
        last_.phase_s[phase.name] += phase.wall_sec;
      }
    }
    if (measured) RecordRound(std::move(round_ms), last_.wall_s);
    return Status::OK();
  }

  /// The price of one full prediction: a direct, uncached what-if call on
  /// each profiled plan.
  Status TraceLegs(Tracer* tracer) override {
    for (const Table1Workflow& wf : wfs_) {
      stubby::WhatIfEngine engine(wf.options.cluster);
      std::vector<double> us;
      for (int i = 0; i < kWhatIfRepeats; ++i) {
        const double t0 = NowSeconds();
        Tracer::Scope span(tracer, "cost.Cost", wf.key);
        const stubby::CostEstimate estimate = engine.Cost(wf.workload.plan);
        us.push_back(SecondsSince(t0) * 1e6);
        if (estimate.fallback) {
          return Status::Internal(wf.key + ": profiled plan fell back to "
                                           "job-count costing");
        }
      }
      whatif_us_[wf.abbr].push_back(Median(us));
    }
    return Status::OK();
  }

  void Headline(MetricSink* sink) const override {
    sink->Set("optimize_wf_per_s", units_per_s(), "workflows/s");
    sink->Set("est_cost_s", last_.est_cost_s, "s");
  }

  void Layers(MetricSink* sink) const override {
    SetPerWorkflow("optimizer.optimize_ms.", last_.optimize_ms, "ms", sink);
    for (const char* phase : {"vertical", "horizontal"}) {
      auto it = last_.phase_s.find(phase);
      sink->Set(std::string("optimizer.phase_s.") + phase,
                it == last_.phase_s.end() ? 0.0 : it->second, "s");
    }
    sink->Set("optimizer.cores_busy",
              last_.wall_s > 0 ? last_.cpu_s / last_.wall_s : 0.0, "cores");
    sink->Set("optimizer.subplans", last_.subplans, "count");
    sink->Set("optimizer.units", last_.units, "count");

    const stubby::CostInstrumentation& c = last_.costing;
    sink->Set("cost.whatif_calls", c.whatif_invocations, "count");
    sink->Set("cost.full_predictions", c.full_predictions, "count");
    sink->Set("cost.incremental_predictions", c.incremental_predictions,
              "count");
    sink->Set("cost.job_predictions", c.job_predictions, "count");
    sink->Set("cost.rrs_evaluations", c.rrs_evaluations, "count");
    const double plan_lookups =
        static_cast<double>(c.plan_cache_hits + c.plan_cache_misses);
    const double job_lookups =
        static_cast<double>(c.job_cache_hits + c.job_predictions);
    sink->Set("cost.plan_cache_lookups", plan_lookups, "count");
    sink->Set("cost.plan_cache_hit_ratio",
              plan_lookups > 0 ? c.plan_cache_hits / plan_lookups : 0.0,
              "ratio");
    sink->Set("cost.job_cache_lookups", job_lookups, "count");
    sink->Set("cost.job_cache_hit_ratio",
              job_lookups > 0 ? c.job_cache_hits / job_lookups : 0.0,
              "ratio");
    SetPerWorkflow("cost.whatif_us.", whatif_us_, "us", sink);
    SetProfileLayers(wfs_, build_s_, sink);
  }

 private:
  /// The last measured round: per-workflow times over the sub-seeds, and
  /// totals over every call.
  struct RoundStats {
    std::map<std::string, std::vector<double>> optimize_ms;
    std::map<std::string, double> phase_s;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double est_cost_s = 0.0;
    uint64_t subplans = 0;
    uint64_t units = 0;
    stubby::CostInstrumentation costing;
  };

  struct Chosen {
    std::string signature;
    double estimated_cost = 0.0;
  };

  /// The plan validates, and its signature and estimated-cost bits equal
  /// those of the first time this workflow was optimized.
  bool Matches(const std::string& key, const stubby::OptimizeReport& r) {
    if (!r.plan.Validate().ok()) return false;
    Chosen now{stubby::PlanSignature(r.plan), r.estimated_cost};
    auto [it, first] = chosen_.emplace(key, now);
    return first || (it->second.signature == now.signature &&
                     SameBits(it->second.estimated_cost, now.estimated_cost));
  }

  Config config_;
  std::vector<Table1Workflow> wfs_;
  double build_s_ = 0.0;
  std::map<std::string, Chosen> chosen_;
  RoundStats last_;
  std::map<std::string, std::vector<double>> whatif_us_;
};

// ---------------------------------------------------------------------------
// table1_execute: each workflow optimized once in set-up; every unit runs
// the chosen plan on a fresh copy of the base DFS. One closed-loop client.

Outputs CollectOutputs(const stubby::Plan& plan, const stubby::Dfs& dfs) {
  Outputs out;
  for (const auto& [id, ds] : plan.datasets()) {
    if (!ds.is_workflow_output) continue;
    auto stored = dfs.Get(id);
    out[id] = stored.ok() ? (*stored)->AllRows() : std::vector<stubby::Row>{};
  }
  return out;
}

bool OutputsMatch(const Outputs& got, const Outputs& want, bool exact) {
  if (got.size() != want.size()) return false;
  for (const auto& [id, rows] : want) {
    auto it = got.find(id);
    if (it == got.end()) return false;
    const bool same = exact ? stubby::RowsBitIdentical(it->second, rows)
                            : stubby::RowsApproxEqual(it->second, rows, 1e-6);
    if (!same) return false;
  }
  return true;
}

class ExecuteBench : public Bench {
 public:
  explicit ExecuteBench(const Config& config) : config_(config) {}

  /// One set-up per sub-seed: generate, profile, and optimize each plan
  /// once.
  Status Setup(Tracer* tracer) override {
    wfs_.clear();
    chosen_.clear();
    build_s_ = 0.0;
    est_cost_s_ = 0.0;
    rows_per_round_ = 0.0;
    for (uint64_t seed : SubSeeds(config_.seed, kExecuteSubSeeds)) {
      const double t0 = NowSeconds();
      const size_t first = wfs_.size();
      STUBBY_RETURN_NOT_OK(
          BuildTable1(kExecuteSampleRows, seed, tracer, &wfs_, &build_s_));
      for (size_t i = first; i < wfs_.size(); ++i) {
        const Table1Workflow& wf = wfs_[i];
        stubby::StubbyOptimizer optimizer(OptimizerOptions(config_, wf));
        auto report = [&] {
          Tracer::Scope span(tracer, "optimizer.Optimize", wf.key);
          return optimizer.Optimize(wf.workload.plan);
        }();
        if (!report.ok()) return report.status();
        est_cost_s_ += report->estimated_cost;
        rows_per_round_ += static_cast<double>(wf.base_rows);
        chosen_.push_back(std::move(report->plan));
      }
      setup_s_.push_back(SecondsSince(t0));
    }
    return Status::OK();
  }

  /// Reference outputs: the submitted, unoptimized plans run by the
  /// executor (not by anything the optimizer produced).
  Status Prepare(Tracer* tracer) override {
    reference_.clear();
    for (const Table1Workflow& wf : wfs_) {
      stubby::Dfs dfs = wf.workload.dfs;
      stubby::WorkflowRunner runner(wf.options.cluster, config_.pool);
      auto flow = [&] {
        Tracer::Scope span(tracer, "exec.Run", wf.key);
        return runner.Run(wf.workload.plan, &dfs);
      }();
      if (!flow.ok()) return flow.status();
      reference_.push_back(CollectOutputs(wf.workload.plan, dfs));
    }
    return Status::OK();
  }

  /// The warm-up runs the first sub-seed's plans only.
  Status Round(Tracer* tracer, bool measured) override {
    if (measured) last_ = RoundStats{};
    std::vector<double> round_ms;
    double round_s = 0.0;
    const size_t n = measured ? wfs_.size() : Table1Abbrs().size();
    for (size_t i = 0; i < n; ++i) {
      const Table1Workflow& wf = wfs_[i];
      stubby::WorkflowRunner runner(wf.options.cluster, config_.pool);
      const double t0 = NowSeconds();
      stubby::Dfs dfs;
      {
        Tracer::Scope span(tracer, "dfs.Copy", wf.key);
        dfs = wf.workload.dfs;
      }
      const double copy_s = SecondsSince(t0);
      const double cpu0 = ProcessCpuSeconds();
      const double r0 = NowSeconds();
      auto flow = [&] {
        Tracer::Scope span(tracer, "exec.Run", wf.key);
        return runner.Run(chosen_[i], &dfs);
      }();
      const double run_s = SecondsSince(r0);
      const double cpu = ProcessCpuSeconds() - cpu0;
      const double wall = SecondsSince(t0);
      checks.Count(flow.ok() && Matches(i, dfs), "table1_execute " + wf.key);
      if (!measured) continue;
      round_ms.push_back(wall * 1e3);
      round_s += wall;
      copy_ms_.push_back(copy_s * 1e3);
      if (!flow.ok()) continue;
      last_.run_ms[wf.abbr].push_back(run_s * 1e3);
      last_.run_s += run_s;
      last_.cpu_s += cpu;
      last_.makespan_s += flow->makespan_sec;
      for (const stubby::JobDataflow& job : flow->jobs) {
        last_.map_input_records += job.map_input_records;
        last_.shuffle_bytes += job.combine_output_bytes;
        last_.reduce_input_records += job.reduce_input_records;
        last_.output_records += job.output_records;
      }
    }
    if (measured) RecordRound(std::move(round_ms), round_s);
    return Status::OK();
  }

  void Headline(MetricSink* sink) const override {
    sink->Set("execute_rows_per_s",
              units_per_s() * rows_per_round_ /
                  static_cast<double>(wfs_.size()),
              "rows/s");
    sink->Set("est_cost_s", est_cost_s_, "s");
    sink->Set("sim_makespan_s", last_.makespan_s, "s");
  }

  void Layers(MetricSink* sink) const override {
    SetPerWorkflow("exec.run_ms.", last_.run_ms, "ms", sink);
    sink->Set("exec.cores_busy",
              last_.run_s > 0 ? last_.cpu_s / last_.run_s : 0.0, "cores");
    sink->Set("exec.map_input_records", last_.map_input_records, "count");
    sink->Set("exec.shuffle_bytes", last_.shuffle_bytes, "bytes");
    sink->Set("exec.reduce_input_records", last_.reduce_input_records,
              "count");
    sink->Set("exec.output_records", last_.output_records, "count");
    sink->Set("dfs.copy_ms", Median(copy_ms_), "ms");
    SetProfileLayers(wfs_, build_s_, sink);
  }

 private:
  struct RoundStats {
    std::map<std::string, std::vector<double>> run_ms;
    double run_s = 0.0;
    double cpu_s = 0.0;
    double makespan_s = 0.0;
    uint64_t map_input_records = 0;
    uint64_t shuffle_bytes = 0;
    uint64_t reduce_input_records = 0;
    uint64_t output_records = 0;
  };

  /// The first run of plan `i` matches the unoptimized plan's outputs;
  /// every later run is bit-identical to the first.
  bool Matches(size_t i, const stubby::Dfs& dfs) {
    Outputs got = CollectOutputs(wfs_[i].workload.plan, dfs);
    if (first_.size() <= i) {
      if (!OutputsMatch(got, reference_.at(i), /*exact=*/false)) return false;
      first_.push_back(std::move(got));
      return true;
    }
    return OutputsMatch(got, first_[i], /*exact=*/true);
  }

  Config config_;
  std::vector<Table1Workflow> wfs_;
  double build_s_ = 0.0;
  std::vector<stubby::Plan> chosen_;
  double est_cost_s_ = 0.0;
  double rows_per_round_ = 0.0;
  std::vector<Outputs> reference_;
  std::vector<Outputs> first_;
  std::vector<double> copy_ms_;
  RoundStats last_;
};

}  // namespace

std::unique_ptr<Bench> MakeOptimizeBench(const Config& config) {
  return std::make_unique<OptimizeBench>(config);
}

std::unique_ptr<Bench> MakeExecuteBench(const Config& config) {
  return std::make_unique<ExecuteBench>(config);
}

}  // namespace perfbench
