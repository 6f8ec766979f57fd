#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

Percentile PercentileOf(std::vector<double> values, double q) {
  Percentile p;
  p.samples = values.size();
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  p.value = values[lo] * (1.0 - frac) + values[hi] * frac;
  p.beyond = static_cast<size_t>(
      values.end() - std::upper_bound(values.begin(), values.end(), p.value));
  return p;
}

double Median(std::vector<double> values) {
  return PercentileOf(std::move(values), 0.5).value;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Span::Layer() const {
  const size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

double SelfSeconds(const std::vector<Span>& spans, size_t index) {
  const Span& s = spans[index];
  std::vector<std::pair<double, double>> covered;
  for (const Span& c : spans) {
    if (c.parent != static_cast<int>(index)) continue;
    const double lo = std::max(c.start_s, s.start_s);
    const double hi = std::min(c.end_s, s.end_s);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  double child = 0.0;
  double reach = s.start_s;
  for (const auto& [lo, hi] : covered) {
    const double from = std::max(lo, reach);
    if (hi > from) {
      child += hi - from;
      reach = hi;
    }
  }
  return s.Duration() - child;
}

std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<Span>& spans) {
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].Layer()] += SelfSeconds(spans, i);
  }
  return out;
}

int Tracer::Begin(std::string name, std::string id) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::move(name);
  s.id = std::move(id);
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_s = NowSeconds();
  s.end_s = s.start_s;
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int index) {
  if (!enabled_ || index < 0) return;
  spans_[static_cast<size_t>(index)].end_s = NowSeconds();
  // Spans close innermost first; tolerate a skipped End by unwinding to it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::string Tracer::ChromeTraceJson() const {
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char times[96];
    std::snprintf(times, sizeof(times), "\"ts\": %.3f, \"dur\": %.3f",
                  (s.start_s - origin) * 1e6, s.Duration() * 1e6);
    out += "  {\"name\": " + JsonString(s.name) + ", \"cat\": " +
           JsonString(s.Layer()) + ", \"ph\": \"X\", " + times +
           ", \"pid\": 1, \"tid\": 1, \"args\": {\"span\": " +
           std::to_string(i) + ", \"parent\": " + std::to_string(s.parent) +
           ", \"id\": " + JsonString(s.id) + "}}";
    out += i + 1 < spans_.size() ? ",\n" : "\n";
  }
  return out + "]}\n";
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64 || !std::isalnum(
          static_cast<unsigned char>(name[0]))) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

bool ValidUnit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '/' || c == '%' || c == '.' || c == '-';
  });
}

bool MetricSink::Set(const std::string& name, double value,
                     const std::string& unit) {
  if (!ValidMetricName(name) || !ValidUnit(unit) || !std::isfinite(value)) {
    return false;
  }
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return true;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
  return true;
}

const MetricSink::Metric* MetricSink::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string MetricSink::Json() const {
  std::string out = "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ", ";
    out += JsonString(m.name) + ": {\"value\": " + FullPrecision(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

std::string FullPrecision(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace perfbench
