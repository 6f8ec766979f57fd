// Unit tests of the benchmark's measurement helpers (src/harness.h).

#include "harness.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace perfbench {
namespace {

TEST(PercentileTest, InterpolatesBetweenRanksAndCountsSamples) {
  const std::vector<double> v = {5, 1, 4, 2, 3};  // unsorted on purpose
  const Percentile p50 = PercentileOf(v, 0.5);
  EXPECT_DOUBLE_EQ(p50.value, 3.0);
  EXPECT_EQ(p50.samples, 5u);
  EXPECT_EQ(p50.beyond, 2u);

  const Percentile p90 = PercentileOf(v, 0.9);  // rank 3.6 of 0..4
  EXPECT_DOUBLE_EQ(p90.value, 4.6);
  EXPECT_EQ(p90.beyond, 1u);

  EXPECT_DOUBLE_EQ(PercentileOf(v, 0.0).value, 1.0);
  EXPECT_DOUBLE_EQ(PercentileOf(v, 1.0).value, 5.0);
  EXPECT_EQ(PercentileOf(v, 1.0).beyond, 0u);
}

TEST(PercentileTest, MatchesTheTenSamplesBeyondRule) {
  // p90 of 100 samples 1..100 sits at 90.1 with exactly ten samples above.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  const Percentile p90 = PercentileOf(v, 0.9);
  EXPECT_NEAR(p90.value, 90.1, 1e-9);
  EXPECT_EQ(p90.samples, 100u);
  EXPECT_EQ(p90.beyond, 10u);
}

TEST(PercentileTest, TiesAreNotBeyond) {
  const Percentile p = PercentileOf({7, 7, 7, 7}, 0.5);
  EXPECT_DOUBLE_EQ(p.value, 7.0);
  EXPECT_EQ(p.beyond, 0u);
}

TEST(PercentileTest, EmptyAndSingleSample) {
  const Percentile empty = PercentileOf({}, 0.9);
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_DOUBLE_EQ(empty.value, 0.0);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
  EXPECT_DOUBLE_EQ(PercentileOf({3.5}, 0.99).value, 3.5);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
}

Span MakeSpan(const std::string& name, double start, double end,
              int parent) {
  Span s;
  s.name = name;
  s.start_s = start;
  s.end_s = end;
  s.parent = parent;
  return s;
}

TEST(SelfTimeTest, SubtractsTheUnionOfOverlappingChildren) {
  std::vector<Span> spans = {
      MakeSpan("bench.run", 0, 10, -1),
      MakeSpan("optimizer.Optimize", 1, 4, 0),
      MakeSpan("cost.Cost", 3, 6, 0),          // overlaps the first child
      MakeSpan("exec.Run", 5, 5.5, 0),         // inside the second child
      MakeSpan("service.Drain", 9, 12, 0),     // runs past the parent
      MakeSpan("reuse.Run", 1.5, 2, 1),        // grandchild
  };
  // Children of the root cover [1,6] and [9,10]: 6 of its 10 seconds.
  EXPECT_DOUBLE_EQ(SelfSeconds(spans, 0), 4.0);
  EXPECT_DOUBLE_EQ(SelfSeconds(spans, 1), 2.5);
  EXPECT_DOUBLE_EQ(SelfSeconds(spans, 2), 3.0);
  EXPECT_DOUBLE_EQ(SelfSeconds(spans, 5), 0.5);

  const auto by_layer = SelfSecondsByLayer(spans);
  EXPECT_DOUBLE_EQ(by_layer.at("bench"), 4.0);
  EXPECT_DOUBLE_EQ(by_layer.at("optimizer"), 2.5);
  EXPECT_DOUBLE_EQ(by_layer.at("reuse"), 0.5);
}

TEST(SelfTimeTest, NestedSpansAddUpToTheRootWall) {
  Tracer tracer(true);
  {
    Tracer::Scope root(&tracer, "bench.run", "wf");
    {
      Tracer::Scope a(&tracer, "optimizer.Optimize", "IR");
      Tracer::Scope b(&tracer, "cost.Cost", "IR");
    }
    Tracer::Scope c(&tracer, "exec.Run", "IR");
  }
  const std::vector<Span>& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 1);
  EXPECT_EQ(spans[3].parent, 0);
  EXPECT_EQ(spans[1].id, "IR");
  double total = 0.0;
  for (const auto& [layer, s] : SelfSecondsByLayer(spans)) {
    EXPECT_GE(s, 0.0) << layer;
    total += s;
  }
  EXPECT_NEAR(total, spans[0].Duration(), 1e-12);
}

TEST(TracerTest, DisabledRecordsNothing) {
  Tracer tracer(false);
  {
    Tracer::Scope s(&tracer, "optimizer.Optimize");
  }
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(TracerTest, ChromeTraceHasOneCompleteEventPerSpan) {
  Tracer tracer(true);
  {
    Tracer::Scope root(&tracer, "bench.run", "say \"hi\"");
    Tracer::Scope child(&tracer, "exec.Run", "IR");
  }
  const std::string json = tracer.ChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"exec.Run\", \"cat\": \"exec\", "
                      "\"ph\": \"X\""),
            std::string::npos);
  EXPECT_NE(json.find("\"id\": \"say \\\"hi\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\": 0"), std::string::npos);
}

TEST(MetricNameTest, AcceptsTheBenchmarkJsonAlphabetOnly) {
  EXPECT_TRUE(ValidMetricName("setup_s"));
  EXPECT_TRUE(ValidMetricName("optimizer.optimize_ms.BR"));
  EXPECT_TRUE(ValidMetricName("0ok-name"));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(".hidden"));
  EXPECT_FALSE(ValidMetricName("_x"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("slash/name"));

  EXPECT_TRUE(ValidUnit("ms"));
  EXPECT_TRUE(ValidUnit("1/s"));
  EXPECT_TRUE(ValidUnit("%"));
  EXPECT_TRUE(ValidUnit("workflows/s"));
  EXPECT_FALSE(ValidUnit(""));
  EXPECT_FALSE(ValidUnit("a unit"));
  EXPECT_FALSE(ValidUnit(std::string(17, 'u')));
}

TEST(MetricSinkTest, RejectsInvalidEntriesAndPrintsFullPrecision) {
  MetricSink sink;
  EXPECT_TRUE(sink.Set("latency_p50_ms", 1.2034567890123, "ms"));
  EXPECT_FALSE(sink.Set("bad name", 1.0, "ms"));
  EXPECT_FALSE(sink.Set("nan_metric", 0.0 / 0.0, "ms"));
  EXPECT_TRUE(sink.Set("latency_p50_ms", 2.5, "ms"));  // overwrites
  ASSERT_EQ(sink.metrics().size(), 1u);
  EXPECT_EQ(sink.Json(),
            "{\"latency_p50_ms\": {\"value\": 2.5, \"unit\": \"ms\"}}");
  EXPECT_EQ(FullPrecision(0.1), "0.10000000000000001");
}

TEST(ResourceTest, PeakRssCoversThisProcessAllocations) {
  const double before = PeakRssMb();
  EXPECT_GT(before, 0.0);
  // Touch 64 MiB so the high-water mark must rise past it.
  std::vector<char> block(64u << 20);
  for (size_t i = 0; i < block.size(); i += 4096) block[i] = 1;
  const double after = PeakRssMb();
  EXPECT_GE(after, 64.0);
  EXPECT_GE(after, before);
  EXPECT_EQ(block[4096], 1);
}

TEST(ResourceTest, CpuSecondsAdvanceWithWork) {
  const double c0 = ProcessCpuSeconds();
  volatile double sink = 0.0;
  const double t0 = NowSeconds();
  while (SecondsSince(t0) < 0.05) sink = sink + 1.0;
  EXPECT_GT(ProcessCpuSeconds(), c0);
}

}  // namespace
}  // namespace perfbench
