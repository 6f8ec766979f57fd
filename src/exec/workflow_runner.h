// WorkflowRunner: executes a whole plan job-by-job in topological order on
// the simulated cluster, then derives the workflow's simulated wall-clock
// makespan by pushing the observed per-job dataflow through the phase-time
// model and the slot-based cluster scheduler. This is the reproduction's
// ground truth — the role the 51-node EC2 cluster plays in the paper — and
// the repo's one execution loop: adaptive re-optimization
// (exec/adaptive_runner.h) plugs into it as a per-job hook.

#pragma once

#include <functional>
#include <optional>
#include <set>
#include <string>

#include "common/result.h"
#include "cost/dataflow.h"
#include "dfs/dfs.h"
#include "exec/job_runner.h"
#include "workflow/plan.h"

namespace stubby {

class ThreadPool;

/// Called after every executed job with the plan whose jobs are running,
/// the ids of all jobs executed so far, the job's observed dataflow,
/// whether jobs remain, and the DFS holding every output written so far.
/// Returning a plan splices it in: its jobs replace the not-yet-executed
/// remainder (executed jobs never re-run). Returning nullopt continues the
/// current plan.
using AfterJobHook = std::function<Result<std::optional<Plan>>(
    const Plan& current, const std::set<std::string>& executed,
    const JobDataflow& observed, bool jobs_remain, const Dfs& dfs)>;

/// Executes plans end-to-end. The pool, when given, is borrowed and lets
/// each job's map/reduce tasks run concurrently; results stay bit-identical
/// to a single-threaded run, and so does toggling ExecOptions::vectorized.
class WorkflowRunner {
 public:
  explicit WorkflowRunner(ClusterSpec cluster, ThreadPool* pool = nullptr,
                          ExecOptions exec = {})
      : cluster_(std::move(cluster)), pool_(pool), exec_(exec) {}

  /// Validates and runs `plan`. Base inputs must already exist in `dfs`;
  /// intermediate and output datasets are (re)created there. Returns the
  /// observed dataflow of every executed job, in execution order, and the
  /// simulated makespan of the composite schedule.
  Result<WorkflowDataflow> Run(const Plan& plan, Dfs* dfs,
                               const AfterJobHook& after_job = {}) const;

 private:
  ClusterSpec cluster_;
  ThreadPool* pool_ = nullptr;
  ExecOptions exec_;
};

}  // namespace stubby
