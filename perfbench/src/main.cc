// stubbybench: the Stubby benchmark program.
//
//   stubbybench --workload table1_optimize|table1_execute|stubbyd_zipf
//               [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
//               [--threads N]
//
// --trace 0 (the measured run): set up (repeating the set-up until at
// least three input sets and a second of set-up have been timed; the
// median per input set is `setup_s`), prepare the check references, run
// one untimed warm-up round, then repeat measured rounds with tracing off
// for --seconds (at least two rounds). Prints every metric with its unit,
// then one JSON line with the end-to-end metrics.
//
// --trace 1 (the trace run): set-up, preparation and warm-up traced, then
// measured rounds for --seconds in pairs, one untraced and one traced
// (`trace.overhead_frac` compares the two), then the legs only the trace
// run has. The per-layer metrics come from the spans and the last measured
// round's reports; the spans go to --trace-out as Chrome trace-event JSON.
//
// Every unit of work is checked; the exit code is 1 when any check fails
// or any call returns an error, 2 on a usage error.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>

#include "bench.h"
#include "common/threading.h"
#include "harness.h"

namespace perfbench {

void Checks::Count(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  if (++failed <= 5) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void Bench::RecordRound(std::vector<double> unit_ms, double wall_s) {
  if (wall_s > 0) {
    round_rate_.push_back(static_cast<double>(unit_ms.size()) / wall_s);
  }
  round_unit_ms_.push_back(std::move(unit_ms));
}

std::vector<double> Bench::BestUnitMs() const {
  std::vector<double> best;
  for (const std::vector<double>& round : round_unit_ms_) {
    if (best.empty()) best = round;
    for (size_t i = 0; i < best.size() && i < round.size(); ++i) {
      best[i] = std::min(best[i], round[i]);
    }
  }
  return best;
}

double Bench::units_per_s() const {
  return round_rate_.empty()
             ? 0.0
             : *std::max_element(round_rate_.begin(), round_rate_.end());
}

std::vector<uint64_t> SubSeeds(uint64_t seed, int count) {
  std::vector<uint64_t> seeds;
  for (int j = 0; j < count; ++j) {
    seeds.push_back(seed * static_cast<uint64_t>(count) +
                    static_cast<uint64_t>(j));
  }
  return seeds;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const auto* const kMetrics = [] {
    auto* m = new std::vector<std::pair<std::string, std::string>>;
    auto add = [m](std::string name, std::string unit) {
      m->emplace_back(std::move(name), std::move(unit));
    };
    // Workload-level figures that only apply to one workload.
    add("optimize_wf_per_s", "workflows/s");
    add("execute_rows_per_s", "rows/s");
    add("requests_per_s", "requests/s");
    add("latency_samples", "count");
    add("latency_p50_ms", "ms");
    add("latency_p90_ms", "ms");
    add("latency_p90_samples_beyond", "count");
    add("latency_p99_ms", "ms");
    add("latency_p99_samples_beyond", "count");
    add("est_cost_s", "s");
    add("sim_makespan_s", "s");
    add("failed_frac", "ratio");
    // optimizer
    for (const std::string& wf : Table1Abbrs()) {
      add("optimizer.optimize_ms." + wf, "ms");
    }
    add("optimizer.phase_s.vertical", "s");
    add("optimizer.phase_s.horizontal", "s");
    add("optimizer.cores_busy", "cores");
    add("optimizer.subplans", "count");
    add("optimizer.units", "count");
    add("optimizer.optimize_ms.p50", "ms");
    add("optimizer.optimize_ms.p99", "ms");
    // cost
    for (const char* c : {"whatif_calls", "full_predictions",
                          "incremental_predictions", "job_predictions",
                          "rrs_evaluations", "plan_cache_lookups"}) {
      add(std::string("cost.") + c, "count");
    }
    add("cost.plan_cache_hit_ratio", "ratio");
    add("cost.job_cache_lookups", "count");
    add("cost.job_cache_hit_ratio", "ratio");
    for (const std::string& wf : Table1Abbrs()) {
      add("cost.whatif_us." + wf, "us");
    }
    // exec, dfs
    for (const std::string& wf : Table1Abbrs()) {
      add("exec.run_ms." + wf, "ms");
    }
    add("exec.cores_busy", "cores");
    add("exec.map_input_records", "count");
    add("exec.shuffle_bytes", "bytes");
    add("exec.reduce_input_records", "count");
    add("exec.output_records", "count");
    add("exec.execute_ms.p50", "ms");
    add("dfs.copy_ms", "ms");
    // profiler, workloads
    for (const std::string& wf : Table1Abbrs()) {
      add("profiler.profile_s." + wf, "s");
    }
    add("workloads.build_s", "s");
    // reuse
    add("reuse.hit_ratio", "ratio");
    for (const char* c : {"workflow_hits", "whole_job_hits", "prefix_hits",
                          "lookups", "registered", "evictions"}) {
      add(std::string("reuse.") + c, "count");
    }
    add("reuse.stored_bytes", "bytes");
    add("reuse.signature_keys", "count");
    add("reuse.probe_memo_hit_ratio", "ratio");
    add("reuse.session_ms.p50", "ms");
    add("reuse.session_ms.p99", "ms");
    // service
    add("service.drain_ms.p50", "ms");
    add("service.drain_ms.p99", "ms");
    add("service.service_ms.p50", "ms");
    add("service.queue_wait_ms.p50", "ms");
    add("service.conflict_ratio", "ratio");
    add("service.waves", "count");
    add("service.cores_busy", "cores");
    add("service.daemon_vs_sequential", "ratio");
    // Self time per layer in the traced instance; they and bench.other add
    // up to trace.wall_s.
    for (const char* layer : {"workloads", "profiler", "optimizer", "cost",
                              "exec", "dfs", "reuse", "service"}) {
      add(std::string(layer) + ".self_s", "s");
    }
    add("bench.other", "s");
    add("trace.wall_s", "s");
    add("trace.overhead_frac", "ratio");
    return m;
  }();
  return *kMetrics;
}

namespace {

using stubby::Status;

/// Set-ups are repeated until this many input sets have been timed and
/// they took a second in all (at most kMaxSetups times), so a cheap set-up
/// still gets a steady median.
constexpr size_t kMinSetupSamples = 3;
constexpr double kMinSetupSeconds = 1.0;
constexpr int kMaxSetups = 25;
/// Measured rounds run until --seconds have passed, and at least this many,
/// so the fastest round is the best of several.
constexpr int kMinRounds = 2;

double Sum(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  int threads = stubby::ThreadPool::HardwareThreads();
};

const std::map<std::string, std::function<std::unique_ptr<Bench>(
                                const Config&)>>& Workloads() {
  static const std::map<std::string, std::function<std::unique_ptr<Bench>(
                                         const Config&)>>
      kWorkloads = {{"table1_optimize", MakeOptimizeBench},
                    {"table1_execute", MakeExecuteBench},
                    {"stubbyd_zipf", MakeZipfBench}};
  return kWorkloads;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (flag == "--threads") {
      args->threads = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return Workloads().count(args->workload) > 0 && args->seconds > 0 &&
         args->threads >= 1;
}

void PrintMetrics(const MetricSink& sink) {
  for (const MetricSink::Metric& m : sink.metrics()) {
    std::printf("  %-36s %18s %s\n", m.name.c_str(),
                FullPrecision(m.value).c_str(), m.unit.c_str());
  }
}

void PrintResult(const Checks& checks, const MetricSink& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              checks.failed == 0 && checks.attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed),
              metrics.Json().c_str());
  std::fflush(stdout);
}

/// Latency figures over a bench's measured units, and its failure share.
void SetUnitMetrics(const Bench& bench, MetricSink* sink) {
  const std::vector<double> best_ms = bench.BestUnitMs();
  const Percentile p90 = PercentileOf(best_ms, 0.90);
  sink->Set("latency_samples", p90.samples, "count");
  sink->Set("latency_p50_ms", PercentileOf(best_ms, 0.50).value, "ms");
  sink->Set("latency_p90_ms", p90.value, "ms");
  sink->Set("latency_p90_samples_beyond", p90.beyond, "count");
  sink->Set("failed_frac",
            bench.checks.attempted > 0
                ? static_cast<double>(bench.checks.failed) /
                      bench.checks.attempted
                : 1.0,
            "ratio");
}

int Fail(const Status& status, const char* step, Checks* checks,
         const MetricSink& metrics) {
  std::fprintf(stderr, "%s failed: %s\n", step, status.ToString().c_str());
  checks->Count(false, step);
  PrintResult(*checks, metrics);
  return 1;
}

int MeasuredRun(const Args& args, const Config& config) {
  const auto& make = Workloads().at(args.workload);
  Tracer off(false);
  MetricSink e2e;
  Checks setup_checks;
  std::vector<double> setup_s;
  std::unique_ptr<Bench> bench;
  for (int rep = 0; rep < kMaxSetups &&
                    (setup_s.size() < kMinSetupSamples ||
                     Sum(setup_s) < kMinSetupSeconds);
       ++rep) {
    bench.reset();  // one instance in memory at a time
    bench = make(config);
    Status st = bench->Setup(&off);
    if (!st.ok()) return Fail(st, "set-up", &setup_checks, e2e);
    setup_s.insert(setup_s.end(), bench->setup_s().begin(),
                   bench->setup_s().end());
  }
  Status st = bench->Prepare(&off);
  if (!st.ok()) return Fail(st, "prepare", &bench->checks, e2e);
  st = bench->Round(&off, /*measured=*/false);
  if (!st.ok()) return Fail(st, "warm-up", &bench->checks, e2e);
  const double t0 = NowSeconds();
  for (int round = 0; round < kMinRounds || SecondsSince(t0) < args.seconds;
       ++round) {
    const double r0 = NowSeconds();
    st = bench->Round(&off, /*measured=*/true);
    if (!st.ok()) return Fail(st, "measured round", &bench->checks, e2e);
    std::printf("round %.4f s\n", SecondsSince(r0));
  }

  e2e.Set("setup_s", Median(setup_s), "s");
  e2e.Set("units_per_s", bench->units_per_s(), "1/s");
  e2e.Set("peak_rss_mb", PeakRssMb(), "MB");

  MetricSink detail;
  bench->Headline(&detail);
  SetUnitMetrics(*bench, &detail);
  std::printf("%s seed=%llu threads=%d: %.1f s measured, %zu units a round\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.threads,
              SecondsSince(t0), bench->BestUnitMs().size());
  PrintMetrics(e2e);
  PrintMetrics(detail);
  PrintResult(bench->checks, e2e);
  return bench->checks.failed == 0 ? 0 : 1;
}

int TraceRun(const Args& args, const Config& config) {
  MetricSink layers;
  for (const auto& [name, unit] : PerLayerMetrics()) layers.Set(name, 0, unit);
  Tracer tracer(true);
  std::unique_ptr<Bench> bench = Workloads().at(args.workload)(config);
  auto fail = [&](const Status& st, const char* step) {
    return Fail(st, step, &bench->checks, layers);
  };

  // Root 1: set-up, preparation and warm-up.
  Status st = [&] {
    Tracer::Scope root(&tracer, "bench.run", args.workload);
    {
      Tracer::Scope span(&tracer, "bench.setup");
      STUBBY_RETURN_NOT_OK(bench->Setup(&tracer));
    }
    {
      Tracer::Scope span(&tracer, "bench.prepare");
      STUBBY_RETURN_NOT_OK(bench->Prepare(&tracer));
    }
    Tracer::Scope span(&tracer, "bench.warmup");
    return bench->Round(&tracer, /*measured=*/false);
  }();
  if (!st.ok()) return fail(st, "set-up");

  // Measured rounds in pairs, one untraced and one traced (each traced
  // round its own root), in alternating order, so the tracing overhead is
  // measured on a warm instance without an order bias.
  Tracer off(false);
  double untraced_s = 0.0;
  double traced_s = 0.0;
  const double t0 = NowSeconds();
  for (int pair = 0; pair == 0 || SecondsSince(t0) < args.seconds; ++pair) {
    for (int leg = 0; leg < 2; ++leg) {
      const bool traced = (leg + pair) % 2 == 1;
      const double r0 = NowSeconds();
      if (traced) {
        Tracer::Scope root(&tracer, "bench.round", args.workload);
        st = bench->Round(&tracer, /*measured=*/true);
      } else {
        st = bench->Round(&off, /*measured=*/true);
      }
      (traced ? traced_s : untraced_s) += SecondsSince(r0);
      if (!st.ok()) return fail(st, "measured round");
    }
  }

  // Root 3: the legs only the trace run has.
  st = [&] {
    Tracer::Scope root(&tracer, "bench.legs", args.workload);
    return bench->TraceLegs(&tracer);
  }();
  if (!st.ok()) return fail(st, "trace legs");

  MetricSink figures;
  bench->Headline(&figures);
  SetUnitMetrics(*bench, &figures);
  bench->Layers(&figures);

  const std::vector<Span>& spans = tracer.spans();
  double self_total = 0.0;
  for (const auto& [layer, s] : SelfSecondsByLayer(spans)) {
    self_total += s;
    figures.Set(layer == "bench" ? "bench.other" : layer + ".self_s", s, "s");
  }
  double wall = 0.0;
  for (const Span& s : spans) {
    if (s.parent < 0) wall += s.Duration();
  }
  figures.Set("trace.wall_s", wall, "s");
  figures.Set("trace.overhead_frac", traced_s / untraced_s - 1.0, "ratio");
  bench->checks.Count(std::abs(self_total - wall) <= 1e-9 * wall,
                      "per-layer self times add up to the traced wall time");

  for (const MetricSink::Metric& m : figures.metrics()) {
    const bool listed = layers.Find(m.name) != nullptr;
    bench->checks.Count(listed, "per-layer metric " + m.name + " is listed");
    if (listed) layers.Set(m.name, m.value, m.unit);
  }

  if (!args.trace_out.empty()) {
    std::FILE* f = std::fopen(args.trace_out.c_str(), "w");
    const std::string text = tracer.ChromeTraceJson();
    const bool written =
        f != nullptr &&
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    if (f != nullptr) std::fclose(f);
    bench->checks.Count(written, "writing " + args.trace_out);
  }

  std::printf("%s seed=%llu threads=%d: trace run, %zu spans, rounds "
              "untraced %.3f s, traced %.3f s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.threads,
              spans.size(), untraced_s, traced_s);
  PrintMetrics(layers);
  PrintResult(bench->checks, layers);
  return bench->checks.failed == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: stubbybench --workload table1_optimize|"
                 "table1_execute|stubbyd_zipf [--seed N] [--seconds S] "
                 "[--trace 0|1] [--trace-out FILE] [--threads N]\n");
    return 2;
  }
  stubby::ThreadPool pool(args.threads);
  Config config;
  config.seed = args.seed;
  config.threads = args.threads;
  config.pool = &pool;
  config.trace_run = args.trace;
  return args.trace ? TraceRun(args, config) : MeasuredRun(args, config);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
