// `stubbyd_zipf`: the service/trace.h Zipf trace through one StubbyService
// under a store byte budget, as a closed loop of `threads` clients — each
// client submits one request, the loop drains, and repeats until the trace
// is done. Reuse and service do most of the work; the optimizer and the
// executor see thousands of small plans.

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>

#include "bench.h"
#include "optimizer/transform.h"
#include "reuse/result_store.h"
#include "reuse/session.h"
#include "service/stubbyd.h"
#include "service/trace.h"

namespace perfbench {
namespace {

using stubby::Status;
using Outputs = std::map<std::string, std::vector<stubby::Row>>;

constexpr int kUniverse = 48;
constexpr int kRows = 800;
constexpr int kTenants = 6;
constexpr double kZipf = 1.1;
constexpr int kSubmissions = 5000;
/// Traces per run (one service pass each per round), so the figures do not
/// hang on one draw of the Zipf sequence.
constexpr int kSubSeeds = 2;
/// About a third of the unbudgeted store footprint, so hits (reads) run
/// beside registrations and evictions (writes).
constexpr uint64_t kStoreBudgetBytes = 80 * 1024;
/// Submissions replayed by the untimed warm-up, on a throwaway service.
constexpr size_t kWarmupSubmissions = 500;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameOutputs(const Outputs& a, const Outputs& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [id, rows] : a) {
    auto it = b.find(id);
    if (it == b.end() || !stubby::RowsBitIdentical(rows, it->second)) {
      return false;
    }
  }
  return true;
}

/// What the daemon and the sequential replay must agree on, per request.
bool SameSession(const stubby::ReuseSessionResult& a,
                 const stubby::ReuseSessionResult& b) {
  return stubby::PlanSignature(a.report.plan) ==
             stubby::PlanSignature(b.report.plan) &&
         SameBits(a.report.estimated_cost, b.report.estimated_cost) &&
         SameBits(a.simulated_cost, b.simulated_cost) &&
         a.reuse.ToString() == b.reuse.ToString() &&
         SameOutputs(a.outputs, b.outputs);
}

/// One sub-seed's trace with the reference outputs of its universe.
struct Trace {
  stubby::SubmissionTrace trace;
  std::map<std::string, Outputs> reference;  ///< by universe entry name
};

/// One daemon pass over a trace.
struct Pass {
  double wall_s = 0.0;
  std::vector<double> e2e_ms;  ///< per committed request, submit to commit
  std::vector<double> drain_ms;
  double drain_s = 0.0;
  double drain_cpu_s = 0.0;
  stubby::ServiceStats stats;
  uint64_t evictions = 0;
  uint64_t stored_bytes = 0;
  std::string store_bytes;  ///< serialized final store (trace run only)
  std::vector<stubby::RequestResult> results;  ///< trace run only
};

class ZipfBench : public Bench {
 public:
  explicit ZipfBench(const Config& config) : config_(config) {
    service_options_.store.byte_budget = kStoreBudgetBytes;
    service_options_.wave_size = static_cast<size_t>(config.threads);
    service_options_.queue_capacity = static_cast<size_t>(config.threads);
  }

  Status Setup(Tracer* tracer) override {
    traces_.clear();
    build_s_ = 0.0;
    for (uint64_t seed : SubSeeds(config_.seed, kSubSeeds)) {
      stubby::TraceOptions options;
      options.universe = kUniverse;
      options.rows = kRows;
      options.tenants = kTenants;
      options.zipf = kZipf;
      options.submissions = kSubmissions;
      options.seed = seed;
      const double t0 = NowSeconds();
      auto trace = [&] {
        Tracer::Scope span(tracer, "workloads.MakeSubmissionTrace",
                           std::to_string(seed));
        return stubby::MakeSubmissionTrace(options);
      }();
      if (!trace.ok()) return trace.status();
      for (stubby::Submission& sub : trace->submissions) {
        sub.options.unit.seed = seed;
      }
      traces_.push_back(Trace{std::move(*trace), {}});
      setup_s_.push_back(SecondsSince(t0));
      build_s_ += setup_s_.back();
    }
    return Status::OK();
  }

  /// Reference outputs: a store-less session recompute of every universe
  /// entry.
  Status Prepare(Tracer* tracer) override {
    for (Trace& t : traces_) {
      t.reference.clear();
      const stubby::StubbyOptions& options = t.trace.submissions[0].options;
      for (const stubby::TraceWorkflow& w : t.trace.universe) {
        auto run = [&] {
          Tracer::Scope span(tracer, "reuse.ReuseSession::Run", w.name);
          return stubby::ReuseSession(nullptr).Run(*w.plan, *w.dfs, options);
        }();
        if (!run.ok()) return run.status();
        t.reference[w.name] = std::move(run->outputs);
      }
    }
    return Status::OK();
  }

  /// One pass over each trace; the warm-up replays a prefix of the first.
  Status Round(Tracer* tracer, bool measured) override {
    if (!measured) {
      Pass warm;
      return RunPass(tracer, traces_[0], kWarmupSubmissions, false, &warm);
    }
    last_.clear();
    est_cost_s_ = 0.0;
    makespan_s_ = 0.0;
    std::vector<double> round_ms;
    double round_s = 0.0;
    for (const Trace& t : traces_) {
      Pass pass;
      STUBBY_RETURN_NOT_OK(RunPass(tracer, t, t.trace.submissions.size(),
                                   true, &pass));
      round_ms.insert(round_ms.end(), pass.e2e_ms.begin(), pass.e2e_ms.end());
      round_s += pass.wall_s;
      last_.push_back(std::move(pass));
    }
    RecordRound(std::move(round_ms), round_s);
    return Status::OK();
  }

  /// Each trace through one sequential fresh-session loop over one shared
  /// store (what the daemon must reproduce): gates bit-identity with the
  /// last round's daemon passes and times the loop against them.
  Status TraceLegs(Tracer* tracer) override {
    session_ms_.clear();
    sequential_s_ = 0.0;
    for (size_t k = 0; k < last_.size(); ++k) {
      const Pass& daemon = last_[k];
      const std::vector<stubby::Submission>& subs =
          traces_[k].trace.submissions;
      stubby::ResultStore store(service_options_.store);
      const double t0 = NowSeconds();
      for (size_t i = 0; i < daemon.results.size(); ++i) {
        const stubby::Submission& sub = subs[i];
        const double s0 = NowSeconds();
        auto run = [&] {
          Tracer::Scope span(tracer, "reuse.ReuseSession::Run", sub.name);
          return stubby::ReuseSession(&store).Run(*sub.plan, *sub.dfs,
                                                  sub.options);
        }();
        session_ms_.push_back(SecondsSince(s0) * 1e3);
        const stubby::RequestResult& r = daemon.results[i];
        checks.Count(run.ok() && r.status.ok() &&
                         SameSession(*run, r.session),
                     "stubbyd_zipf sequential request " + std::to_string(i));
      }
      sequential_s_ += SecondsSince(t0);
      checks.Count(store.Serialize() == daemon.store_bytes,
                   "stubbyd_zipf: final store equals the sequential "
                   "replay's");
    }
    return Status::OK();
  }

  void Headline(MetricSink* sink) const override {
    sink->Set("requests_per_s", units_per_s(), "requests/s");
    const Percentile p99 = PercentileOf(BestUnitMs(), 0.99);
    sink->Set("latency_p99_ms", p99.value, "ms");
    sink->Set("latency_p99_samples_beyond", p99.beyond, "count");
    sink->Set("est_cost_s", est_cost_s_, "s");
    sink->Set("sim_makespan_s", makespan_s_, "s");
  }

  /// Over the last round's passes: latency percentiles over all their
  /// requests, counters summed.
  void Layers(MetricSink* sink) const override {
    std::vector<double> optimize_ms, execute_ms, service_ms, queue_wait_ms,
        drain_ms;
    stubby::ServiceStats s;
    uint64_t evictions = 0;
    uint64_t stored_bytes = 0;
    double wall_s = 0.0, drain_s = 0.0, drain_cpu_s = 0.0;
    for (const Pass& p : last_) {
      for (const stubby::RequestResult& r : p.results) {
        optimize_ms.push_back(r.session.optimize_sec * 1e3);
        execute_ms.push_back(r.session.execute_sec * 1e3);
        service_ms.push_back(r.service_sec * 1e3);
        queue_wait_ms.push_back((r.e2e_sec - r.service_sec) * 1e3);
      }
      drain_ms.insert(drain_ms.end(), p.drain_ms.begin(), p.drain_ms.end());
      s.completed += p.stats.completed;
      s.requests_with_hits += p.stats.requests_with_hits;
      s.conflicts += p.stats.conflicts;
      s.waves += p.stats.waves;
      s.reuse.Add(p.stats.reuse);
      evictions += p.evictions;
      stored_bytes += p.stored_bytes;
      wall_s += p.wall_s;
      drain_s += p.drain_s;
      drain_cpu_s += p.drain_cpu_s;
    }
    const double completed = static_cast<double>(s.completed);
    sink->Set("optimizer.optimize_ms.p50",
              PercentileOf(optimize_ms, 0.5).value, "ms");
    sink->Set("optimizer.optimize_ms.p99",
              PercentileOf(optimize_ms, 0.99).value, "ms");
    sink->Set("exec.execute_ms.p50", PercentileOf(execute_ms, 0.5).value,
              "ms");

    sink->Set("reuse.hit_ratio",
              completed > 0 ? s.requests_with_hits / completed : 0.0,
              "ratio");
    sink->Set("reuse.workflow_hits", s.reuse.workflow_hits, "count");
    sink->Set("reuse.whole_job_hits", s.reuse.whole_job_hits, "count");
    sink->Set("reuse.prefix_hits", s.reuse.prefix_hits, "count");
    sink->Set("reuse.lookups", s.reuse.lookups, "count");
    sink->Set("reuse.registered", s.reuse.registered, "count");
    sink->Set("reuse.evictions", evictions, "count");
    sink->Set("reuse.stored_bytes", stored_bytes, "bytes");
    sink->Set("reuse.signature_keys", s.reuse.signature_keys_computed,
              "count");
    const double probes = static_cast<double>(s.reuse.probe_cache_hits +
                                              s.reuse.probe_cache_misses);
    sink->Set("reuse.probe_memo_hit_ratio",
              probes > 0 ? s.reuse.probe_cache_hits / probes : 0.0, "ratio");
    sink->Set("reuse.session_ms.p50", PercentileOf(session_ms_, 0.5).value,
              "ms");
    sink->Set("reuse.session_ms.p99", PercentileOf(session_ms_, 0.99).value,
              "ms");

    sink->Set("service.drain_ms.p50", PercentileOf(drain_ms, 0.5).value,
              "ms");
    sink->Set("service.drain_ms.p99", PercentileOf(drain_ms, 0.99).value,
              "ms");
    sink->Set("service.service_ms.p50", PercentileOf(service_ms, 0.5).value,
              "ms");
    sink->Set("service.queue_wait_ms.p50",
              PercentileOf(queue_wait_ms, 0.5).value, "ms");
    sink->Set("service.conflict_ratio",
              completed > 0 ? s.conflicts / completed : 0.0, "ratio");
    sink->Set("service.waves", s.waves, "count");
    sink->Set("service.cores_busy", drain_s > 0 ? drain_cpu_s / drain_s : 0.0,
              "cores");
    sink->Set("service.daemon_vs_sequential",
              sequential_s_ > 0 ? wall_s / sequential_s_ : 0.0, "ratio");
    sink->Set("workloads.build_s", build_s_, "s");
  }

 private:
  /// Replays the first `n` submissions of `t` through a fresh service and
  /// checks every committed request against the reference.
  Status RunPass(Tracer* tracer, const Trace& t, size_t n, bool measured,
                 Pass* pass) {
    n = std::min(n, t.trace.submissions.size());
    const size_t clients = service_options_.queue_capacity;
    stubby::StubbyService service(service_options_, config_.pool);
    size_t committed = 0;
    const double t0 = NowSeconds();
    for (size_t next = 0; next < n;) {
      for (size_t c = 0; c < clients && next < n; ++c, ++next) {
        const stubby::Submission& sub = t.trace.submissions[next];
        Tracer::Scope span(tracer, "service.Submit", sub.name);
        auto id = service.Submit(sub);
        if (!id.ok()) return id.status();
      }
      const double cpu0 = ProcessCpuSeconds();
      const double d0 = NowSeconds();
      std::vector<stubby::RequestResult> drained = [&] {
        Tracer::Scope span(tracer, "service.Drain");
        return service.Drain();
      }();
      const double d = SecondsSince(d0);
      pass->drain_s += d;
      pass->drain_cpu_s += ProcessCpuSeconds() - cpu0;
      pass->drain_ms.push_back(d * 1e3);
      committed += drained.size();
      for (stubby::RequestResult& r : drained) {
        auto want = t.reference.find(r.name);
        checks.Count(r.status.ok() && want != t.reference.end() &&
                         SameOutputs(r.session.outputs, want->second),
                     "stubbyd_zipf request " + std::to_string(r.id) + " " +
                         r.name);
        if (!measured) continue;
        pass->e2e_ms.push_back(r.e2e_sec * 1e3);
        est_cost_s_ += r.session.report.estimated_cost;
        makespan_s_ += r.session.simulated_cost;
        // Only the trace run's per-layer figures and sequential leg need
        // the results themselves.
        if (config_.trace_run) pass->results.push_back(std::move(r));
      }
    }
    pass->wall_s = SecondsSince(t0);
    checks.Count(committed == n, "stubbyd_zipf: every submission committed");
    pass->stats = service.stats();
    pass->evictions = service.store().evictions();
    pass->stored_bytes = service.store().stored_bytes();
    if (config_.trace_run) pass->store_bytes = service.store().Serialize();
    return Status::OK();
  }

  Config config_;
  stubby::ServiceOptions service_options_;
  std::vector<Trace> traces_;
  double build_s_ = 0.0;
  std::vector<Pass> last_;  ///< the last measured round, one per trace
  double est_cost_s_ = 0.0;  ///< over the last measured round
  double makespan_s_ = 0.0;  ///< over the last measured round
  std::vector<double> session_ms_;
  double sequential_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Bench> MakeZipfBench(const Config& config) {
  return std::make_unique<ZipfBench>(config);
}

}  // namespace perfbench
