// Metrics registry tests: counter/gauge/histogram semantics, percentile math
// at bucket boundaries, exporter formats, aggregation, and concurrency.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"

namespace obiwan {
namespace {

TEST(Counter, IncAndReset) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(Gauge, SetAddReset) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 7);
  g.Add(5);
  EXPECT_EQ(g.Value(), 12);
  g.Reset();
  EXPECT_EQ(g.Value(), 0);
}

TEST(Histogram, BucketBoundariesAreInclusiveUpper) {
  // Bucket i covers bounds[i-1] < v <= bounds[i].
  Histogram h({100, 200});
  h.Observe(100);  // exactly on the first bound -> bucket 0
  h.Observe(101);  // just above -> bucket 1
  h.Observe(200);  // exactly on the second bound -> bucket 1
  h.Observe(201);  // overflow bucket
  auto counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(h.Count(), 4u);
  EXPECT_EQ(h.Sum(), 100 + 101 + 200 + 201);
  EXPECT_EQ(h.Max(), 201);
}

TEST(Histogram, NegativeObservationsClampToZero) {
  Histogram h({10});
  h.Observe(-5);
  EXPECT_EQ(h.BucketCounts()[0], 1u);
  EXPECT_EQ(h.Sum(), 0);
  EXPECT_EQ(h.Max(), 0);
}

TEST(Histogram, EmptyPercentileIsZero) {
  Histogram h({10, 20});
  EXPECT_EQ(h.Percentile(0.5), 0.0);
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Max(), 0);
}

TEST(Histogram, PercentileInterpolatesAtBucketBoundaries) {
  // 50 observations land exactly on bound 100, 50 exactly on bound 200. The
  // p50 rank falls precisely at the end of the first bucket -> exactly 100;
  // p95/p99 interpolate linearly inside the second bucket.
  Histogram h({100, 200});
  for (int i = 0; i < 50; ++i) h.Observe(100);
  for (int i = 0; i < 50; ++i) h.Observe(200);
  EXPECT_DOUBLE_EQ(h.P50(), 100.0);
  EXPECT_DOUBLE_EQ(h.P95(), 190.0);  // 100 + (95-50)/50 * 100
  EXPECT_DOUBLE_EQ(h.P99(), 198.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 200.0);  // p100 == Max
}

TEST(Histogram, FirstBucketInterpolatesFromZero) {
  Histogram h({100});
  h.Observe(100);
  // One observation: p50 rank = 0.5 of 1, half-way through [0, 100].
  EXPECT_DOUBLE_EQ(h.P50(), 50.0);
}

TEST(Histogram, OverflowRanksReturnTrackedMax) {
  Histogram h({100});
  for (int i = 0; i < 10; ++i) h.Observe(5000);
  EXPECT_DOUBLE_EQ(h.P50(), 5000.0);
  EXPECT_DOUBLE_EQ(h.P99(), 5000.0);
  EXPECT_EQ(h.Max(), 5000);
}

TEST(Histogram, PercentileNeverExceedsMax) {
  // All mass in (100, 200] but the real max is 150 — interpolation must not
  // report a latency larger than anything observed.
  Histogram h({100, 200});
  for (int i = 0; i < 100; ++i) h.Observe(150);
  EXPECT_DOUBLE_EQ(h.P99(), 150.0);
}

TEST(Histogram, ResetZeroesEverything) {
  Histogram h({10});
  h.Observe(5);
  h.Observe(50);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Sum(), 0);
  EXPECT_EQ(h.Max(), 0);
  for (auto c : h.BucketCounts()) EXPECT_EQ(c, 0u);
}

TEST(Histogram, WeightedObserveCountsEveryRepresentedObservation) {
  MetricsRegistry reg;
  Histogram& h = reg.GetHistogram("sampled_ns", {}, {100, 200, 400, 800});
  h.Observe(300, 64);
  EXPECT_EQ(h.Count(), 64u);
  EXPECT_EQ(h.Sum(), 300 * 64);
  EXPECT_EQ(h.BucketCounts()[2], 64u);
  EXPECT_EQ(h.Max(), 300);
  const std::string prom = reg.DumpPrometheus();
  EXPECT_NE(prom.find("sampled_ns_bucket{le=\"400\"} 64"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("sampled_ns_count 64"), std::string::npos) << prom;
}

TEST(ExponentialBucketsTest, GrowsByFactor) {
  auto bounds = ExponentialBuckets(1000, 2.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_EQ(bounds[0], 1000);
  EXPECT_EQ(bounds[1], 2000);
  EXPECT_EQ(bounds[2], 4000);
  EXPECT_EQ(bounds[3], 8000);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(Registry, SameIdentityReturnsSameHandle) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("x_total", {{"site", "1"}});
  Counter& b = reg.GetCounter("x_total", {{"site", "1"}});
  EXPECT_EQ(&a, &b);
  Counter& c = reg.GetCounter("x_total", {{"site", "2"}});
  EXPECT_NE(&a, &c);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(Registry, LabelOrderIsCanonicalized) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("x_total", {{"a", "1"}, {"b", "2"}});
  Counter& b = reg.GetCounter("x_total", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
}

TEST(Registry, TypeMismatchYieldsDummyNotCrash) {
  MetricsRegistry reg;
  Counter& real = reg.GetCounter("mixed", {});
  real.Inc(7);
  Gauge& dummy = reg.GetGauge("mixed", {});
  dummy.Set(99);  // goes to the process-wide dummy, not the counter
  EXPECT_EQ(real.Value(), 7u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, ResetZeroesButKeepsHandles) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("c_total", {});
  Histogram& h = reg.GetHistogram("h_ns", {}, {10, 20});
  c.Inc(5);
  h.Observe(15);
  reg.Reset();
  EXPECT_EQ(c.Value(), 0u);
  EXPECT_EQ(h.Count(), 0u);
  c.Inc();  // handle still live and registered
  EXPECT_EQ(reg.GetCounter("c_total", {}).Value(), 1u);
}

TEST(Registry, DumpTextListsEveryInstance) {
  MetricsRegistry reg;
  reg.GetCounter("req_total", {{"site", "1"}}).Inc(3);
  reg.GetGauge("depth", {}).Set(-2);
  reg.GetHistogram("lat_ns", {}, {10}).Observe(5);
  std::string text = reg.DumpText();
  EXPECT_NE(text.find("req_total{site=\"1\"} 3"), std::string::npos);
  EXPECT_NE(text.find("depth -2"), std::string::npos);
  EXPECT_NE(text.find("count=1"), std::string::npos);
}

TEST(Registry, DumpPrometheusExpandsHistograms) {
  MetricsRegistry reg;
  reg.GetCounter("req_total", {{"site", "1"}}, "requests").Inc(3);
  Histogram& h = reg.GetHistogram("lat_ns", {}, {10, 20}, "latency");
  h.Observe(5);
  h.Observe(25);
  std::string prom = reg.DumpPrometheus();
  EXPECT_NE(prom.find("# TYPE req_total counter"), std::string::npos);
  EXPECT_NE(prom.find("req_total{site=\"1\"} 3"), std::string::npos);
  EXPECT_NE(prom.find("lat_ns_bucket{le=\"10\"} 1"), std::string::npos);
  // Buckets are cumulative and end with +Inf == count.
  EXPECT_NE(prom.find("lat_ns_bucket{le=\"20\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("lat_ns_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("lat_ns_count 2"), std::string::npos);
}

TEST(Registry, DumpJsonHasAllSections) {
  MetricsRegistry reg;
  reg.GetCounter("req_total", {{"site", "1"}}).Inc(3);
  reg.GetHistogram("lat_ns", {}, {10}).Observe(5);
  std::string json = reg.DumpJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\":["), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":["), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":["), std::string::npos);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
}

// RFC 8259: every byte below 0x20 must be escaped inside a JSON string, so
// a tab or a raw control byte in a label value cannot break DumpJson.
TEST(Registry, DumpJsonEscapesControlCharacters) {
  MetricsRegistry reg;
  reg.GetCounter("ctl_total", {{"path", "a\tb\x01" "c\r\"q\"\\"}}).Inc(1);
  std::string json = reg.DumpJson();
  EXPECT_NE(json.find("\"path\":\"a\\tb\\u0001c\\r\\\"q\\\"\\\\\""),
            std::string::npos)
      << json;
  EXPECT_TRUE(std::none_of(json.begin(), json.end(), [](char c) {
    return static_cast<unsigned char>(c) < 0x20;
  })) << json;
}

TEST(Registry, SummarizeHistogramsMergesBySubsetMatch) {
  MetricsRegistry reg;
  Histogram& site1 = reg.GetHistogram("lat_ns", {{"op", "call"}, {"site", "1"}},
                                      {100, 200});
  Histogram& site2 = reg.GetHistogram("lat_ns", {{"op", "call"}, {"site", "2"}},
                                      {100, 200});
  Histogram& other = reg.GetHistogram("lat_ns", {{"op", "get"}, {"site", "1"}},
                                      {100, 200});
  for (int i = 0; i < 50; ++i) site1.Observe(100);
  for (int i = 0; i < 50; ++i) site2.Observe(200);
  other.Observe(999999);  // different op — must not leak into the merge

  HistogramSummary s = reg.SummarizeHistograms("lat_ns", {{"op", "call"}});
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum, 50 * 100 + 50 * 200);
  EXPECT_EQ(s.max, 200);
  EXPECT_DOUBLE_EQ(s.p50, 100.0);
  EXPECT_DOUBLE_EQ(s.p95, 190.0);

  // Nothing matches -> zero summary.
  HistogramSummary none = reg.SummarizeHistograms("lat_ns", {{"op", "push"}});
  EXPECT_EQ(none.count, 0u);
  EXPECT_EQ(none.p99, 0.0);
}

TEST(Registry, SummarizeHistogramsSkipsMismatchedBounds) {
  MetricsRegistry reg;
  reg.GetHistogram("lat_ns", {{"site", "1"}}, {100}).Observe(50);
  reg.GetHistogram("lat_ns", {{"site", "2"}}, {999}).Observe(500);
  HistogramSummary s = reg.SummarizeHistograms("lat_ns");
  EXPECT_EQ(s.count, 1u);  // second series has different bounds
}

TEST(Registry, SumCountersBySubsetMatch) {
  MetricsRegistry reg;
  reg.GetCounter("faults_total", {{"site", "1"}}).Inc(3);
  reg.GetCounter("faults_total", {{"site", "2"}}).Inc(4);
  reg.GetCounter("other_total", {{"site", "1"}}).Inc(100);
  EXPECT_EQ(reg.SumCounters("faults_total"), 7u);
  EXPECT_EQ(reg.SumCounters("faults_total", {{"site", "2"}}), 4u);
  EXPECT_EQ(reg.SumCounters("missing_total"), 0u);
}

TEST(Registry, ConcurrentUpdatesLoseNothing) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  Counter& c = reg.GetCounter("hits_total", {});
  Histogram& h = reg.GetHistogram("lat_ns", {}, {100, 200, 400});
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.Inc();
        h.Observe((t + 1) * 100);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.Value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.Count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.Max(), kThreads * 100);
  std::uint64_t bucket_total = 0;
  for (auto n : h.BucketCounts()) bucket_total += n;
  EXPECT_EQ(bucket_total, h.Count());
}

TEST(Registry, ConcurrentRegistrationIsSafe) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  std::vector<Counter*> handles(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, &handles, t] {
      handles[static_cast<std::size_t>(t)] =
          &reg.GetCounter("shared_total", {{"k", "v"}});
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(handles[0], handles[t]);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, NextInstanceIsMonotonic) {
  std::uint64_t a = MetricsRegistry::NextInstance();
  std::uint64_t b = MetricsRegistry::NextInstance();
  EXPECT_LT(a, b);
}

TEST(Registry, DumpPrometheusEscapesLabelValues) {
  MetricsRegistry reg;
  reg.GetCounter("esc_total",
                 {{"path", "a\\b"}, {"msg", "he said \"hi\"\nbye"}},
                 "line one\nback\\slash")
      .Inc(1);
  std::string prom = reg.DumpPrometheus();
  // Label values: backslash, quote, and newline are escaped per the
  // Prometheus exposition format.
  EXPECT_NE(prom.find("path=\"a\\\\b\""), std::string::npos);
  EXPECT_NE(prom.find("msg=\"he said \\\"hi\\\"\\nbye\""), std::string::npos);
  // HELP text: backslash and newline escaped (quotes stay raw there).
  EXPECT_NE(prom.find("# HELP esc_total line one\\nback\\\\slash"),
            std::string::npos);
  // No raw newline may survive inside any exposition line.
  for (std::size_t pos = prom.find('\n'); pos + 1 < prom.size();
       pos = prom.find('\n', pos + 1)) {
    EXPECT_NE(prom[pos + 1], '"');  // a line never starts mid-label-value
  }
  // The text dump (and registry identity) still use the raw value.
  EXPECT_NE(reg.DumpText().find("msg=\"he said \"hi\"\nbye\""),
            std::string::npos);
}

TEST(Registry, DumpPrometheusEscapedHistogramLabels) {
  MetricsRegistry reg;
  reg.GetHistogram("esc_ns", {{"op", "a\"b"}}, {10}).Observe(5);
  std::string prom = reg.DumpPrometheus();
  EXPECT_NE(prom.find("esc_ns_bucket{op=\"a\\\"b\",le=\"10\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("esc_ns_count{op=\"a\\\"b\"} 1"), std::string::npos);
}

}  // namespace
}  // namespace obiwan
