// Tests for the snapshot/delta engine (obs/snapshot.h), the up/down gauge
// mode, and the Prometheus exposition naming rules (obs/prometheus.h).
// Metric names are unique per test: the registry is a process-global
// singleton, so a name reused across tests would see leftover state.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/snapshot.h"

namespace bloc::obs {
namespace {

// ---------------------------------------------------------------------------
// UpDownGauge

TEST(UpDownGauge, TracksLevelAndWatermark) {
  UpDownGauge& gauge = GetUpDownGauge("test.snapshot.updown.basic");
  gauge.Add(5);
  gauge.Add(3);
  EXPECT_EQ(gauge.Value(), 8);
  EXPECT_EQ(gauge.Max(), 8);
  gauge.Sub(6);
  EXPECT_EQ(gauge.Value(), 2);
  EXPECT_EQ(gauge.Max(), 8);  // watermark holds after the drop
  gauge.Add(1);
  EXPECT_EQ(gauge.Value(), 3);
  EXPECT_EQ(gauge.Max(), 8);
}

TEST(UpDownGauge, BalancedAcrossMetricsEnabledToggle) {
  // Paired Add/Sub straddling a SetMetricsEnabled(false) window (exactly
  // what --mode=obs does mid-run) must still balance: depth gauges would
  // otherwise drift negative or stick high, so Add/Sub are not gated.
  UpDownGauge& gauge = GetUpDownGauge("test.snapshot.updown.toggle");
  gauge.Add(4);
  SetMetricsEnabled(false);
  gauge.Sub(4);       // the matching release lands while recording is off
  gauge.Add(2);       // and a new acquire starts while off
  SetMetricsEnabled(true);
  gauge.Sub(2);
  EXPECT_EQ(gauge.Value(), 0);
  EXPECT_EQ(gauge.Max(), 4);
}

TEST(UpDownGauge, SameNameReturnsSameInstance) {
  UpDownGauge& a = GetUpDownGauge("test.snapshot.updown.dedupe");
  UpDownGauge& b = GetUpDownGauge("test.snapshot.updown.dedupe");
  EXPECT_EQ(&a, &b);
}

TEST(UpDownGauge, ConcurrentAddSubStaysExact) {
  UpDownGauge& gauge = GetUpDownGauge("test.snapshot.updown.concurrent");
  constexpr int kThreads = 4;
  constexpr int kOps = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < kOps; ++i) {
        gauge.Add(1);
        gauge.Sub(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(gauge.Value(), 0);
  EXPECT_GE(gauge.Max(), 1);
  EXPECT_LE(gauge.Max(), kThreads);
}

// ---------------------------------------------------------------------------
// Snapshot

TEST(Snapshot, CapturesCountersGaugesAndHistograms) {
  GetCounter("test.snapshot.capture.counter").Inc(7);
  GetGauge("test.snapshot.capture.gauge").Set(42);
  GetUpDownGauge("test.snapshot.capture.updown").Add(3);
  Histogram& hist = GetHistogram("test.snapshot.capture.hist");
  hist.Record(10);
  hist.Record(1000);

  const Snapshot snap = Snapshot::Capture();
  EXPECT_GT(snap.captured_ns, 0u);

  const CounterSnapshot* counter =
      snap.FindCounter("test.snapshot.capture.counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value, 7u);

  // Plain and up/down gauges fold into one sorted gauge list.
  const GaugeSnapshot* gauge = snap.FindGauge("test.snapshot.capture.gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->value, 42);
  const GaugeSnapshot* updown =
      snap.FindGauge("test.snapshot.capture.updown");
  ASSERT_NE(updown, nullptr);
  EXPECT_EQ(updown->value, 3);

  const HistogramState* state =
      snap.FindHistogram("test.snapshot.capture.hist");
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->count, 2u);
  EXPECT_EQ(state->sum, 1010u);
  EXPECT_EQ(state->max, 1000u);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : state->buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, 2u);

  EXPECT_TRUE(std::is_sorted(
      snap.counters.begin(), snap.counters.end(),
      [](const auto& a, const auto& b) { return a.name < b.name; }));
  EXPECT_EQ(snap.FindCounter("test.snapshot.no.such.metric"), nullptr);
}

// ---------------------------------------------------------------------------
// Delta

TEST(Delta, CounterDeltaAndRate) {
  Counter& counter = GetCounter("test.snapshot.delta.counter");
  counter.Inc(100);
  const Snapshot before = Snapshot::Capture();
  counter.Inc(50);
  Snapshot after = Snapshot::Capture();
  // Pin the interval so the rate assertion is exact.
  after.captured_ns = before.captured_ns + 2'000'000'000ull;  // 2 s

  const Delta delta = Delta::Between(before, after);
  EXPECT_EQ(delta.interval_ns, 2'000'000'000ull);
  const CounterDelta* d = delta.FindCounter("test.snapshot.delta.counter");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->delta, 50u);
  EXPECT_DOUBLE_EQ(d->rate_per_sec, 25.0);
}

TEST(Delta, MetricNewAfterBeforeStartsFromZero) {
  const Snapshot before = Snapshot::Capture();
  GetCounter("test.snapshot.delta.born_later").Inc(9);
  GetHistogram("test.snapshot.delta.hist_born_later").Record(33);
  const Delta delta = Delta::Between(before, Snapshot::Capture());

  const CounterDelta* c = delta.FindCounter("test.snapshot.delta.born_later");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->delta, 9u);
  const HistogramDelta* h =
      delta.FindHistogram("test.snapshot.delta.hist_born_later");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  EXPECT_EQ(h->sum, 33u);
}

TEST(Delta, HistogramIntervalScopedQuantiles) {
  Histogram& hist = GetHistogram("test.snapshot.delta.hist_interval");
  // Pre-interval samples are huge; the interval itself records small ones.
  // Interval quantiles must reflect only the interval.
  for (int i = 0; i < 100; ++i) hist.Record(1 << 20);
  const Snapshot before = Snapshot::Capture();
  for (int i = 0; i < 100; ++i) hist.Record(64);
  const Delta delta = Delta::Between(before, Snapshot::Capture());

  const HistogramDelta* h =
      delta.FindHistogram("test.snapshot.delta.hist_interval");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 100u);
  EXPECT_EQ(h->sum, 6400u);
  EXPECT_DOUBLE_EQ(h->mean, 64.0);
  // Factor-2 envelope: 64 lands in bucket [64, 127].
  EXPECT_GE(h->p50, 64.0);
  EXPECT_LE(h->p50, 127.0);
  EXPECT_GE(h->p99, 64.0);
  EXPECT_LE(h->p99, 127.0);
  EXPECT_LE(h->p50, h->p99);
}

TEST(Delta, QuantileVsExactEnvelopeUnderConcurrentWriters) {
  Histogram& hist = GetHistogram("test.snapshot.delta.hist_concurrent");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;

  const Snapshot before = Snapshot::Capture();
  std::vector<std::thread> writers;
  std::vector<std::vector<std::uint64_t>> written(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&hist, &written, t] {
      std::uint64_t state = 0x9e3779b97f4a7c15ull * (t + 1);
      for (int i = 0; i < kPerThread; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint64_t value = (state >> 33) % 100000;
        hist.Record(value);
        written[t].push_back(value);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  const Delta delta = Delta::Between(before, Snapshot::Capture());

  const HistogramDelta* h =
      delta.FindHistogram("test.snapshot.delta.hist_concurrent");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, static_cast<std::uint64_t>(kThreads * kPerThread));

  std::vector<std::uint64_t> all;
  for (const auto& w : written) all.insert(all.end(), w.begin(), w.end());
  std::sort(all.begin(), all.end());
  for (const double q : {0.50, 0.90, 0.99}) {
    const double exact = static_cast<double>(
        all[static_cast<std::size_t>(q * (all.size() - 1))]);
    const double estimate = h->Quantile(q);
    // log2 buckets guarantee the estimate within a factor of 2.
    EXPECT_GE(estimate, exact / 2.0) << "q=" << q;
    EXPECT_LE(estimate, exact * 2.0 + 1.0) << "q=" << q;
  }
}

TEST(Delta, EmptyIntervalHasZeroQuantiles) {
  GetHistogram("test.snapshot.delta.hist_idle").Record(500);
  const Snapshot before = Snapshot::Capture();
  const Delta delta = Delta::Between(before, Snapshot::Capture());
  const HistogramDelta* h =
      delta.FindHistogram("test.snapshot.delta.hist_idle");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 0u);
  EXPECT_DOUBLE_EQ(h->Quantile(0.99), 0.0);
}

// ---------------------------------------------------------------------------
// Prometheus exposition

TEST(Prometheus, NameMangling) {
  EXPECT_EQ(PrometheusName("serve.e2e_latency_us"),
            "bloc_serve_e2e_latency_us");
  EXPECT_EQ(PrometheusName("dsp.thread_pool.queue_depth"),
            "bloc_dsp_thread_pool_queue_depth");
  // Names already carrying the project prefix are not double-prefixed.
  EXPECT_EQ(PrometheusName("bloc.search.gated_rounds"),
            "bloc_search_gated_rounds");
  EXPECT_EQ(PrometheusName("bloc_already_flat"), "bloc_already_flat");
  EXPECT_EQ(PrometheusName("weird-name with spaces"),
            "bloc_weird_name_with_spaces");
}

TEST(Prometheus, LabelEscaping) {
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(EscapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(EscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapeLabelValue("a\nb"), "a\\nb");
}

TEST(Prometheus, HistogramBucketsAreCumulativeAndCapped) {
  Histogram& hist = GetHistogram("test.snapshot.prom.hist");
  hist.Record(1);
  hist.Record(100);
  hist.Record(100);

  std::ostringstream out;
  WritePrometheus(out, Snapshot::Capture());
  const std::string text = out.str();
  ASSERT_NE(text.find("# TYPE bloc_test_snapshot_prom_hist histogram"),
            std::string::npos);

  // Walk this histogram's bucket lines: cumulative counts must be
  // non-decreasing, end with +Inf == _count, and report le bounds in
  // increasing order.
  std::istringstream lines(text);
  std::string line;
  double prev_count = -1.0;
  double prev_le = -1.0;
  double inf_count = -1.0;
  while (std::getline(lines, line)) {
    const std::string prefix = "bloc_test_snapshot_prom_hist_bucket{le=\"";
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t close = line.find('"', prefix.size());
    ASSERT_NE(close, std::string::npos) << line;
    const std::string le = line.substr(prefix.size(), close - prefix.size());
    const double count = std::stod(line.substr(close + 3));
    EXPECT_GE(count, prev_count) << line;
    prev_count = count;
    if (le == "+Inf") {
      inf_count = count;
    } else {
      const double bound = std::stod(le);
      EXPECT_GT(bound, prev_le) << line;
      prev_le = bound;
    }
  }
  EXPECT_EQ(inf_count, 3.0);
  ASSERT_NE(text.find("bloc_test_snapshot_prom_hist_count 3"),
            std::string::npos);
  ASSERT_NE(text.find("bloc_test_snapshot_prom_hist_sum 201"),
            std::string::npos);
}

TEST(Prometheus, GaugesEmitValueAndWatermark) {
  Gauge& gauge = GetGauge("test.snapshot.prom.gauge");
  gauge.Set(9);
  gauge.Set(4);
  std::ostringstream out;
  WritePrometheus(out, Snapshot::Capture());
  const std::string text = out.str();
  EXPECT_NE(text.find("bloc_test_snapshot_prom_gauge 4"), std::string::npos);
  EXPECT_NE(text.find("bloc_test_snapshot_prom_gauge_max 9"),
            std::string::npos);
}

}  // namespace
}  // namespace bloc::obs
