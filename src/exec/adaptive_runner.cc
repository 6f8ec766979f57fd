#include "exec/adaptive_runner.h"

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>

#include "cost/whatif.h"
#include "exec/workflow_runner.h"
#include "profiler/profiler.h"

namespace stubby {

namespace {

double RelErr(uint64_t observed, uint64_t predicted) {
  const double o = static_cast<double>(observed);
  const double p = static_cast<double>(predicted);
  return std::abs(o - p) / std::max(p, 1.0);
}

/// Worst relative error over the phase sizes the injector (and a wrong
/// input profile generally) distorts: map input, map output, final output,
/// and — when no combine model is in play — the reduce input. The analytic
/// combine model carries irreducible estimation error even with exact
/// profiles (Figure 14), so reduce_input_* participates only when the
/// prediction shows the combine pass-through (combine output bit-equal to
/// map output); the threshold must separate "the profile was wrong" from
/// "the model is approximate".
double MaxRelativeError(const JobDataflow& observed,
                        const JobDataflow& predicted) {
  double err = 0.0;
  err = std::max(err, RelErr(observed.map_input_records,
                             predicted.map_input_records));
  err = std::max(err,
                 RelErr(observed.map_input_bytes, predicted.map_input_bytes));
  err = std::max(err, RelErr(observed.map_output_records,
                             predicted.map_output_records));
  err = std::max(err, RelErr(observed.map_output_bytes,
                             predicted.map_output_bytes));
  err = std::max(err,
                 RelErr(observed.output_records, predicted.output_records));
  err = std::max(err,
                 RelErr(observed.output_bytes, predicted.output_bytes));
  const bool combine_inactive =
      predicted.combine_output_records == predicted.map_output_records &&
      predicted.combine_output_bytes == predicted.map_output_bytes;
  if (combine_inactive) {
    err = std::max(err, RelErr(observed.reduce_input_records,
                               predicted.reduce_input_records));
    err = std::max(err, RelErr(observed.reduce_input_bytes,
                               predicted.reduce_input_bytes));
  }
  return err;
}

}  // namespace

Result<Plan> BuildSuffixPlan(const Plan& plan,
                             const std::set<std::string>& executed,
                             const Dfs& dfs) {
  Plan suffix = plan;
  for (const std::string& jid : executed) suffix.RemoveJob(jid);

  std::vector<std::string> drop;
  std::vector<std::string> promote;
  for (const auto& [id, v] : suffix.datasets()) {
    if (!suffix.ProducerOf(id).empty()) continue;  // still computed here
    const bool consumed = !suffix.ConsumersOf(id).empty();
    if (!consumed && !v.is_base_input) {
      // Executed intermediates and already-written terminal outputs: done.
      drop.push_back(id);
      continue;
    }
    if (consumed) promote.push_back(id);
  }
  for (const std::string& id : drop) suffix.RemoveDataset(id);

  for (const std::string& id : promote) {
    STUBBY_ASSIGN_OR_RETURN(DatasetPtr ds, dfs.Get(id));
    STUBBY_ASSIGN_OR_RETURN(DatasetVertex * v, suffix.GetMutableDataset(id));
    v->is_base_input = true;
    v->materialized_from.clear();
    v->layout = ds->layout();
    v->annotation.schema = ds->schema();
    v->annotation.layout = ds->layout();
    v->annotation.num_records = ds->logical_rows();
    v->annotation.bytes = ds->logical_bytes();
    v->annotation.num_partitions = static_cast<int>(ds->num_partitions());
  }

  STUBBY_RETURN_NOT_OK(suffix.Validate());
  return suffix;
}

Result<OptimizeReport> ReoptimizeSuffix(const Plan& suffix, const Dfs& dfs,
                                        const StubbyOptions& options,
                                        ThreadPool* pool) {
  // Corrected profiles: instrumented execution over the actual data. The
  // scratch DFS copy shares immutable dataset payloads, so this costs one
  // pass over the suffix, not a data copy.
  Plan profiled = suffix;
  Dfs scratch = dfs;
  Profiler profiler(suffix.cluster());
  STUBBY_RETURN_NOT_OK(profiler.ProfilePlan(&profiled, &scratch));

  StubbyOptions opts = options;
  opts.reuse_store = nullptr;
  opts.reuse_dfs = nullptr;
  opts.reoptimize = false;
  opts.pool = pool;
  return StubbyOptimizer(opts).Optimize(profiled);
}

std::string AdaptiveStats::ToString() const {
  std::ostringstream os;
  os << "jobs_executed=" << jobs_executed << " checks=" << checks
     << " reoptimizations=" << reoptimizations
     << " suffix_jobs_replanned=" << suffix_jobs_replanned
     << " max_rel_error=" << max_rel_error << " order=[";
  for (size_t i = 0; i < executed_order.size(); ++i) {
    if (i > 0) os << ",";
    os << executed_order[i];
  }
  os << "]";
  return os.str();
}

Result<AdaptiveRunResult> AdaptiveRunner::Run(const Plan& plan,
                                              Dfs* dfs) const {
  AdaptiveRunResult out;
  WhatIfEngine whatif(cluster_);
  // Prediction for the plan currently executing, costed on first use (the
  // loop validates the plan before the first job runs). Adaptivity needs a
  // prediction to compare against; fallback-costed plans (annotations
  // missing) execute exactly like a hook-less WorkflowRunner.
  std::optional<CostEstimate> predicted;
  bool adaptive = options_.reoptimize;
  using Splice = std::optional<Plan>;
  Splice last_splice;
  auto reoptimize = [&](const Plan& current,
                        const std::set<std::string>& executed,
                        const JobDataflow& observed, bool jobs_remain,
                        const Dfs& run_dfs) -> Result<Splice> {
    out.stats.executed_order.push_back(observed.job_id);
    ++out.stats.jobs_executed;
    if (adaptive && !predicted.has_value()) {
      predicted = whatif.Cost(current);
      adaptive = !predicted->fallback;
    }
    if (!adaptive || !jobs_remain) return Splice();
    const JobDataflow* pred = predicted->dataflow.FindJob(observed.job_id);
    if (pred == nullptr) return Splice();

    ++out.stats.checks;
    const double err = MaxRelativeError(observed, *pred);
    out.stats.max_rel_error = std::max(out.stats.max_rel_error, err);
    if (err <= options_.reoptimize_threshold) return Splice();

    // The prediction was wrong enough to distrust the rest of the plan:
    // re-plan the remainder against observed reality and splice it in.
    STUBBY_ASSIGN_OR_RETURN(Plan suffix,
                            BuildSuffixPlan(current, executed, run_dfs));
    if (suffix.num_jobs() == 0) return Splice();
    STUBBY_ASSIGN_OR_RETURN(
        OptimizeReport replan,
        ReoptimizeSuffix(suffix, run_dfs, options_, pool_));
    predicted = whatif.Cost(replan.plan);
    adaptive = !predicted->fallback;
    ++out.stats.reoptimizations;
    out.stats.suffix_jobs_replanned += replan.plan.num_jobs();
    last_splice = replan.plan;
    return Splice(std::move(replan.plan));
  };

  WorkflowRunner runner(cluster_, pool_, exec_);
  STUBBY_ASSIGN_OR_RETURN(out.dataflow, runner.Run(plan, dfs, reoptimize));
  out.final_plan = last_splice.has_value() ? std::move(*last_splice) : plan;
  return out;
}

}  // namespace stubby
