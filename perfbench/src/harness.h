// Measurement helpers of the Stubby benchmark: percentiles with their
// sample counts, an in-memory span recorder with per-layer self time and a
// Chrome trace-event writer, metric-name validation, process resource
// probes, and the metric sink that prints the result line. Nothing here
// depends on the stubby library, so the helpers are unit-tested on their
// own (tests/harness_test.cc).

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile of a sample set, linearly interpolated between the two
/// nearest ranks (numpy's default), with how many samples it rests on and
/// how many lie strictly above it.
struct Percentile {
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
};

/// `q` in [0, 1]. An empty set gives value 0 with 0 samples.
Percentile PercentileOf(std::vector<double> values, double q);

/// Median of `values` (0 for an empty set).
double Median(std::vector<double> values);

/// Seconds on the monotonic clock since an arbitrary fixed origin.
double NowSeconds();

/// Wall seconds since `t0` (a NowSeconds() reading).
inline double SecondsSince(double t0) { return NowSeconds() - t0; }

/// CPU seconds (user + system) this process has used so far, all threads.
double ProcessCpuSeconds();

/// High-water resident set size of this process, in MiB.
double PeakRssMb();

/// One recorded interval. `parent` indexes the enclosing span in the
/// recorder (-1 for a root); `id` names the workflow or request it served.
struct Span {
  std::string name;  ///< "<layer>.<call>", e.g. "optimizer.Optimize"
  std::string id;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;

  std::string Layer() const;
  double Duration() const { return end_s - start_s; }
};

/// Self time of span `index`: its duration minus the part of its interval
/// covered by the union of its children's intervals (children may overlap
/// each other and need not nest inside the parent exactly).
double SelfSeconds(const std::vector<Span>& spans, size_t index);

/// Sum of SelfSeconds over the spans of each layer. The values add up to
/// the summed duration of the root spans whenever children nest inside
/// their parents.
std::map<std::string, double> SelfSecondsByLayer(const std::vector<Span>& spans);

/// Records spans from one thread, nesting them by a stack. When disabled,
/// Begin/End cost one branch and record nothing, so the same code path is
/// measured with tracing on and off.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span under the innermost open one; returns its index (or -1
  /// when disabled).
  int Begin(std::string name, std::string id = "");
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// The spans as Chrome trace-event JSON ("X" complete events, times in
  /// microseconds from the first span's start).
  std::string ChromeTraceJson() const;

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, std::string id = "")
        : tracer_(tracer), index_(tracer->Begin(std::move(name),
                                                std::move(id))) {}
    ~Scope() { tracer_->End(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// True for a metric name BENCHMARK.json accepts: starts with a letter
/// or digit, at most 64 characters of letters, digits, '_', '.', '-'.
bool ValidMetricName(const std::string& name);

/// True for a unit BENCHMARK.json accepts: 1 to 16 characters of letters,
/// digits, '_', '/', '%', '.', '-'.
bool ValidUnit(const std::string& unit);

/// Collects named metrics in insertion order and prints them.
class MetricSink {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  /// Records a metric; a later Set of the same name overwrites the value.
  /// Returns false (recording nothing) for an invalid name or unit or a
  /// non-finite value.
  bool Set(const std::string& name, double value, const std::string& unit);

  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* Find(const std::string& name) const;

  /// The `"metrics": {...}` object body: {"name": {"value": v, "unit": u}}
  /// with every value printed at full precision.
  std::string Json() const;

 private:
  std::vector<Metric> metrics_;
};

/// Formats a double with all its significant digits.
std::string FullPrecision(double value);

}  // namespace perfbench
