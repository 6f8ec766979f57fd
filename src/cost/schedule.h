// Cluster scheduler: a discrete-event simulation of slot-based task
// execution over a workflow DAG. Jobs contribute map tasks (runnable once
// all upstream jobs finish) and reduce tasks (runnable once the job's own
// maps finish); tasks occupy map/reduce slots FIFO. This captures the
// concurrency effects the paper leans on — e.g. two small sibling jobs
// running concurrently can beat one horizontally-packed job when the
// cluster has spare slots (the PJ workflow of Section 7.2).

#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "cost/phase_model.h"
#include "mr/cluster.h"

namespace stubby {

/// One job as seen by the scheduler.
struct ScheduledJob {
  std::string id;
  std::vector<std::string> deps;  ///< upstream job ids
  JobTaskTimes times;
};

/// Outcome of a simulated run.
struct ScheduleResult {
  double makespan_sec = 0.0;
  std::map<std::string, double> job_finish_sec;
};

/// A job DAG with its dependencies resolved from ids to indices, validated
/// once and then simulated under any number of task-time assignments (the
/// what-if engine simulates one per configuration point).
struct ScheduleGraph {
  std::vector<std::string> ids;
  /// Position of ids[i] in sorted id order: the FIFO tie-break between
  /// jobs that become ready at the same time.
  std::vector<int> id_rank;
  std::vector<int> num_deps;                    ///< upstream jobs of job i
  std::vector<std::vector<size_t>> dependents;  ///< jobs waiting on job i
};

/// Resolves `deps[i]`, the upstream job ids of job `ids[i]`. Fails with
/// InvalidArgument on duplicate ids, unknown dependencies or a cycle.
Result<ScheduleGraph> ResolveScheduleGraph(
    std::vector<std::string> ids,
    const std::vector<std::vector<std::string>>& deps);

/// Simulated finish times over a ScheduleGraph, indexed like its jobs.
struct ScheduleTimes {
  double makespan_sec = 0.0;
  std::vector<double> finish_sec;
};

/// Simulates `graph` with job i taking `times[i]` (one entry per job).
/// Equal, bit for bit, to the id-keyed SimulateCluster over the same jobs.
Result<ScheduleTimes> SimulateCluster(const ScheduleGraph& graph,
                                      const std::vector<JobTaskTimes>& times,
                                      const ClusterSpec& cluster);

/// Simulates the execution of `jobs` (any order; dependencies resolved by
/// id) on the cluster. Fails if dependencies reference unknown jobs or form
/// a cycle.
Result<ScheduleResult> SimulateCluster(const std::vector<ScheduledJob>& jobs,
                                       const ClusterSpec& cluster);

}  // namespace stubby
