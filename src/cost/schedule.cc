#include "cost/schedule.h"

#include <algorithm>
#include <queue>

namespace stubby {

namespace {

// Tasks are scheduled in wave-sized batches (all tasks of a batch share the
// same duration) which keeps the event count proportional to waves x jobs
// rather than tasks, making the simulation cheap enough to sit inside the
// optimizer's inner costing loop. The slowest task's extra time (skew) is
// charged to the final batch of each phase.
struct JobState {
  const JobTaskTimes* times = nullptr;
  int id_rank = 0;
  int deps_remaining = 0;
  double ready_time = -1.0;  ///< maps may start (deps done + overhead)
  int maps_pending = 0;
  int maps_running = 0;
  double reduce_ready_time = -1.0;  ///< reduces may start (maps done)
  int reduces_pending = 0;
  int reduces_running = 0;
  double finish_time = -1.0;
  bool done = false;
};

struct Event {
  double time;
  int seq;  // tie-break for determinism
  enum Kind { kMapBatchDone, kReduceBatchDone } kind;
  size_t job_index;
  int count;  // tasks in the batch

  bool operator>(const Event& other) const {
    if (time != other.time) return time > other.time;
    return seq > other.seq;
  }
};

}  // namespace

Result<ScheduleGraph> ResolveScheduleGraph(
    std::vector<std::string> ids,
    const std::vector<std::vector<std::string>>& deps) {
  const size_t n = ids.size();
  std::map<std::string, size_t> index;
  for (size_t i = 0; i < n; ++i) {
    if (!index.emplace(ids[i], i).second) {
      return Status::InvalidArgument("duplicate job id '" + ids[i] + "'");
    }
  }
  ScheduleGraph graph;
  graph.id_rank.resize(n);
  int rank = 0;
  for (const auto& [id, i] : index) graph.id_rank[i] = rank++;
  graph.num_deps.assign(n, 0);
  graph.dependents.resize(n);
  for (size_t i = 0; i < n; ++i) {
    for (const std::string& d : deps[i]) {
      auto it = index.find(d);
      if (it == index.end()) {
        return Status::InvalidArgument("job '" + ids[i] +
                                       "' depends on unknown job '" + d + "'");
      }
      graph.dependents[it->second].push_back(i);
      graph.num_deps[i]++;
    }
  }
  // Kahn's algorithm: every job must become ready eventually.
  std::vector<int> remaining = graph.num_deps;
  std::vector<size_t> ready;
  for (size_t i = 0; i < n; ++i) {
    if (remaining[i] == 0) ready.push_back(i);
  }
  size_t reached = 0;
  while (!ready.empty()) {
    const size_t i = ready.back();
    ready.pop_back();
    ++reached;
    for (size_t dep : graph.dependents[i]) {
      if (--remaining[dep] == 0) ready.push_back(dep);
    }
  }
  if (reached != n) {
    return Status::InvalidArgument("job dependencies form a cycle");
  }
  graph.ids = std::move(ids);
  return graph;
}

Result<ScheduleTimes> SimulateCluster(const ScheduleGraph& graph,
                                      const std::vector<JobTaskTimes>& times,
                                      const ClusterSpec& cluster) {
  std::vector<JobState> state(graph.ids.size());
  for (size_t i = 0; i < state.size(); ++i) {
    state[i].times = &times[i];
    state[i].id_rank = graph.id_rank[i];
    state[i].maps_pending = std::max(0, times[i].map_tasks);
    state[i].reduces_pending = std::max(0, times[i].reduce_tasks);
    state[i].deps_remaining = graph.num_deps[i];
  }

  int free_map = cluster.total_map_slots();
  int free_reduce = cluster.total_reduce_slots();

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> pq;
  int seq = 0;
  double now = 0.0;

  for (size_t i = 0; i < state.size(); ++i) {
    if (state[i].deps_remaining == 0) {
      state[i].ready_time = state[i].times->job_overhead_sec;
    }
  }

  auto finish_job = [&](size_t i) {
    state[i].done = true;
    state[i].finish_time = now;
    for (size_t dep : graph.dependents[i]) {
      if (--state[dep].deps_remaining == 0) {
        state[dep].ready_time =
            now + state[dep].times->job_overhead_sec;
      }
    }
  };

  // Schedules as many ready tasks as slots allow; FIFO by (ready_time, id).
  auto dispatch = [&]() {
    // Map tasks.
    while (free_map > 0) {
      size_t best = state.size();
      for (size_t i = 0; i < state.size(); ++i) {
        if (state[i].maps_pending > 0 && state[i].ready_time >= 0 &&
            state[i].ready_time <= now) {
          if (best == state.size() ||
              state[i].ready_time < state[best].ready_time ||
              (state[i].ready_time == state[best].ready_time &&
               state[i].id_rank < state[best].id_rank)) {
            best = i;
          }
        }
      }
      if (best == state.size()) break;
      JobState& js = state[best];
      int n = std::min(free_map, js.maps_pending);
      js.maps_pending -= n;
      js.maps_running += n;
      free_map -= n;
      double dur = js.maps_pending == 0 ? js.times->map_max_sec
                                        : js.times->map_avg_sec;
      pq.push(Event{now + std::max(0.0, dur), seq++, Event::kMapBatchDone,
                    best, n});
    }
    // Reduce tasks.
    while (free_reduce > 0) {
      size_t best = state.size();
      for (size_t i = 0; i < state.size(); ++i) {
        if (state[i].reduces_pending > 0 && state[i].reduce_ready_time >= 0 &&
            state[i].reduce_ready_time <= now) {
          if (best == state.size() ||
              state[i].reduce_ready_time < state[best].reduce_ready_time ||
              (state[i].reduce_ready_time == state[best].reduce_ready_time &&
               state[i].id_rank < state[best].id_rank)) {
            best = i;
          }
        }
      }
      if (best == state.size()) break;
      JobState& js = state[best];
      int n = std::min(free_reduce, js.reduces_pending);
      js.reduces_pending -= n;
      js.reduces_running += n;
      free_reduce -= n;
      double dur = js.reduces_pending == 0 ? js.times->reduce_max_sec
                                           : js.times->reduce_avg_sec;
      pq.push(Event{now + std::max(0.0, dur), seq++, Event::kReduceBatchDone,
                    best, n});
    }
  };

  // Jobs with zero tasks complete instantly at their ready time; model them
  // as a zero-length map batch.
  for (size_t i = 0; i < state.size(); ++i) {
    if (state[i].times->map_tasks <= 0) state[i].maps_pending = 1;
  }

  // Kick-off events at initial ready times so that jobs whose overhead
  // elapses while others are running get dispatched promptly.
  for (size_t i = 0; i < state.size(); ++i) {
    if (state[i].ready_time >= 0) {
      pq.push(Event{state[i].ready_time, seq++, Event::kMapBatchDone, i, 0});
    }
  }

  dispatch();
  // Advance to the earliest pending ready time whenever nothing runs.
  size_t guard = 0;
  const size_t kGuardLimit = 10'000'000;
  while (true) {
    if (pq.empty()) {
      // Nothing running: advance to the earliest future ready time.
      double next_ready = -1.0;
      for (const auto& js : state) {
        if (js.done) continue;
        double t = -1.0;
        if (js.maps_pending > 0 && js.ready_time >= 0) t = js.ready_time;
        if (js.reduces_pending > 0 && js.reduce_ready_time >= 0) {
          t = t < 0 ? js.reduce_ready_time : std::min(t, js.reduce_ready_time);
        }
        if (t >= 0 && (next_ready < 0 || t < next_ready)) next_ready = t;
      }
      if (next_ready < 0) break;  // all done
      now = next_ready;
      dispatch();
      if (pq.empty()) break;  // defensive: nothing schedulable
      continue;
    }
    if (++guard > kGuardLimit) {
      return Status::Internal("cluster simulation exceeded event limit");
    }
    Event ev = pq.top();
    pq.pop();
    now = ev.time;
    JobState& js = state[ev.job_index];
    if (ev.kind == Event::kMapBatchDone) {
      js.maps_running -= ev.count;
      free_map += ev.count;
      if (js.maps_pending == 0 && js.maps_running == 0) {
        if (js.times->reduce_tasks > 0) {
          js.reduce_ready_time = now;
        } else if (!js.done) {
          finish_job(ev.job_index);
        }
      }
    } else {
      js.reduces_running -= ev.count;
      free_reduce += ev.count;
      if (js.reduces_pending == 0 && js.reduces_running == 0 && !js.done) {
        finish_job(ev.job_index);
      }
    }
    dispatch();
  }

  ScheduleTimes result;
  result.finish_sec.resize(state.size());
  for (size_t i = 0; i < state.size(); ++i) {
    if (!state[i].done) {
      return Status::Internal("job '" + graph.ids[i] +
                              "' never completed in simulation");
    }
    result.finish_sec[i] = state[i].finish_time;
    result.makespan_sec = std::max(result.makespan_sec, state[i].finish_time);
  }
  return result;
}

Result<ScheduleResult> SimulateCluster(const std::vector<ScheduledJob>& jobs,
                                       const ClusterSpec& cluster) {
  std::vector<std::string> ids;
  std::vector<std::vector<std::string>> deps;
  std::vector<JobTaskTimes> times;
  ids.reserve(jobs.size());
  deps.reserve(jobs.size());
  times.reserve(jobs.size());
  for (const ScheduledJob& j : jobs) {
    ids.push_back(j.id);
    deps.push_back(j.deps);
    times.push_back(j.times);
  }
  STUBBY_ASSIGN_OR_RETURN(ScheduleGraph graph,
                          ResolveScheduleGraph(std::move(ids), deps));
  STUBBY_ASSIGN_OR_RETURN(ScheduleTimes sim,
                          SimulateCluster(graph, times, cluster));
  ScheduleResult result;
  result.makespan_sec = sim.makespan_sec;
  for (size_t i = 0; i < jobs.size(); ++i) {
    result.job_finish_sec[graph.ids[i]] = sim.finish_sec[i];
  }
  return result;
}

}  // namespace stubby
