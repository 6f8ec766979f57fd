// The Stubby benchmark's workloads. Each one is a Bench: a set-up that is
// timed as `setup_s`, an untimed preparation of the reference outputs its
// correctness checks compare against, and a round of units of work (one
// Optimize call, one WorkflowRunner::Run, or one stubbyd submission each)
// that stubbybench repeats for the measured loop. The benches call the
// stubby library through its public headers only and wrap every call in a
// span named "<layer>.<call>", so a traced instance yields per-layer self
// time.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "harness.h"

namespace stubby {
class ThreadPool;
}

namespace perfbench {

struct Config {
  uint64_t seed = 1;
  /// Width of the one pool every workload borrows; stubbyd_zipf also runs
  /// this many closed-loop clients.
  int threads = 1;
  stubby::ThreadPool* pool = nullptr;
  /// Set for the trace run, whose extra legs need the last round's full
  /// results kept in memory.
  bool trace_run = false;
};

/// Correctness bookkeeping: every unit of work attempted, and every unit
/// that returned an error or failed a check (`failed_frac`'s parts).
struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// Counts one unit; reports the first few failures on stderr.
  void Count(bool ok, const std::string& what);
};

class Bench {
 public:
  virtual ~Bench() = default;

  /// Generates the workload's inputs (and profiles / optimizes them, as
  /// the workload needs), timing the set-up of each input set into
  /// setup_s(), whose median is `setup_s`.
  virtual stubby::Status Setup(Tracer* tracer) = 0;
  /// Computes the reference outputs of the correctness checks. Not timed.
  virtual stubby::Status Prepare(Tracer* tracer) = 0;
  /// One round of units; `measured` is false for the warm-up round.
  virtual stubby::Status Round(Tracer* tracer, bool measured) = 0;
  /// Legs run only in the trace run, after the rounds (stubbyd_zipf's
  /// sequential replay).
  virtual stubby::Status TraceLegs(Tracer*) { return stubby::Status::OK(); }

  /// The workload's own end-to-end figures over its measured rounds: its
  /// native throughput, `latency_p99_ms` where it has the samples, and the
  /// deterministic `est_cost_s` / `sim_makespan_s`.
  virtual void Headline(MetricSink* sink) const = 0;
  /// Per-layer figures of the last measured round (and the trace legs).
  virtual void Layers(MetricSink* sink) const = 0;

  /// Wall time of each input set's set-up, in seconds.
  const std::vector<double>& setup_s() const { return setup_s_; }
  /// Each unit's fastest wall time over the measured rounds, in
  /// milliseconds. Every round runs the same units in the same order, so
  /// a unit's fastest repetition is the one least disturbed by other load
  /// on the machine (which here comes in bursts of a second or two).
  std::vector<double> BestUnitMs() const;
  /// Units per second of the fastest measured round, over the round's unit
  /// wall time (for stubbyd, whose units overlap, its pass wall time).
  double units_per_s() const;

  Checks checks;

 protected:
  /// Records one measured round: each unit's wall time in milliseconds, in
  /// round order, and the round's wall time.
  void RecordRound(std::vector<double> unit_ms, double wall_s);

  std::vector<double> setup_s_;

 private:
  std::vector<std::vector<double>> round_unit_ms_;
  std::vector<double> round_rate_;
};

/// The inputs of one run: `count` sub-seeds derived from the run's seed,
/// seed * count + j for j < count, so no two runs share one. A workload
/// whose work varies with its inputs averages over several of them.
std::vector<uint64_t> SubSeeds(uint64_t seed, int count);

std::unique_ptr<Bench> MakeOptimizeBench(const Config& config);
std::unique_ptr<Bench> MakeExecuteBench(const Config& config);
std::unique_ptr<Bench> MakeZipfBench(const Config& config);

/// The eight Table-1 workflows, in registry order.
const std::vector<std::string>& Table1Abbrs();

/// Every per-layer metric (name, unit) the trace run reports, on every
/// workload; a layer that does no work on a workload reports 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace perfbench
