#include "exec/workflow_runner.h"

#include <algorithm>
#include <deque>
#include <map>

#include "cost/phase_model.h"
#include "cost/schedule.h"

namespace stubby {

Result<WorkflowDataflow> WorkflowRunner::Run(
    const Plan& plan, Dfs* dfs, const AfterJobHook& after_job) const {
  STUBBY_RETURN_NOT_OK(plan.Validate());
  for (const auto& [id, ds] : plan.datasets()) {
    if (ds.is_base_input && !dfs->Exists(id)) {
      return Status::FailedPrecondition("base input dataset '" + id +
                                        "' missing from DFS");
    }
  }

  const Plan* current = &plan;
  std::optional<Plan> spliced;  // owns the current plan after a splice
  STUBBY_ASSIGN_OR_RETURN(std::vector<std::string> order,
                          current->TopologicalOrder());
  std::deque<std::string> remaining(order.begin(), order.end());
  JobRunner job_runner(cluster_, pool_, exec_);
  PhaseTimeModel model(cluster_);

  std::set<std::string> executed;
  // Dataset id -> the executed job that wrote it: dependency fixup for
  // spliced jobs whose inputs are promoted outputs of executed jobs, so the
  // composite schedule keeps the true cross-splice ordering constraints.
  std::map<std::string, std::string> produced_by;
  WorkflowDataflow flow;
  std::vector<ScheduledJob> scheduled;
  while (!remaining.empty()) {
    const std::string jid = remaining.front();
    remaining.pop_front();
    STUBBY_ASSIGN_OR_RETURN(const JobVertex* job, current->GetJob(jid));
    STUBBY_ASSIGN_OR_RETURN(JobDataflow df,
                            job_runner.Run(*current, *job, dfs));
    ScheduledJob sj;
    sj.id = jid;
    sj.deps = current->UpstreamJobs(jid);
    for (const std::string& in : job->InputDatasets()) {
      auto it = produced_by.find(in);
      if (it == produced_by.end()) continue;
      if (std::find(sj.deps.begin(), sj.deps.end(), it->second) ==
          sj.deps.end()) {
        sj.deps.push_back(it->second);
      }
    }
    sj.times = model.TaskTimes(df, job->config);
    scheduled.push_back(std::move(sj));
    for (const std::string& o : job->OutputDatasets()) produced_by[o] = jid;
    executed.insert(jid);
    flow.jobs.push_back(std::move(df));
    if (!after_job) continue;

    STUBBY_ASSIGN_OR_RETURN(
        std::optional<Plan> suffix,
        after_job(*current, executed, flow.jobs.back(), !remaining.empty(),
                  *dfs));
    if (!suffix.has_value()) continue;
    spliced = std::move(suffix);
    current = &*spliced;
    STUBBY_ASSIGN_OR_RETURN(order, current->TopologicalOrder());
    remaining.assign(order.begin(), order.end());
  }

  STUBBY_ASSIGN_OR_RETURN(ScheduleResult sched,
                          SimulateCluster(scheduled, cluster_));
  flow.makespan_sec = sched.makespan_sec;
  for (const ScheduledJob& sj : scheduled) {
    flow.job_finish_sec.push_back(sched.job_finish_sec.at(sj.id));
  }
  return flow;
}

}  // namespace stubby
