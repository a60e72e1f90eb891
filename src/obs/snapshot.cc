#include "obs/snapshot.h"

#include <algorithm>

namespace bloc::obs {

namespace {

// Shared rank-walk over an explicit bucket array; mirrors
// Histogram::Quantile so delta quantiles carry the same factor-2 envelope.
// `max_value` caps interpolation: for a cumulative snapshot it is the exact
// observed max; for an interval delta it is the cumulative max at `after`,
// still a valid upper bound on any sample inside the interval.
double BucketQuantile(const std::array<std::uint64_t, 64>& counts,
                      std::uint64_t max_value, double q) noexcept {
  q = std::clamp(q, 0.0, 1.0);
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total - 1) + 1.0;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double lo_rank = static_cast<double>(cum) + 1.0;
    cum += counts[i];
    if (rank > static_cast<double>(cum)) continue;
    const double lo = static_cast<double>(Histogram::BucketLowerBound(i));
    const double hi = static_cast<double>(
        std::min(Histogram::BucketUpperBound(i), max_value));
    if (counts[i] == 1) return 0.5 * (lo + std::max(lo, hi));
    const double frac = (rank - lo_rank) / static_cast<double>(counts[i] - 1);
    return lo + (std::max(lo, hi) - lo) * std::clamp(frac, 0.0, 1.0);
  }
  return static_cast<double>(max_value);
}

template <typename T>
const T* FindByName(const std::vector<T>& v, std::string_view name) noexcept {
  auto it = std::lower_bound(
      v.begin(), v.end(), name,
      [](const T& a, std::string_view n) { return a.name < n; });
  if (it == v.end() || it->name != name) return nullptr;
  return &*it;
}

double SecondsOf(std::uint64_t interval_ns) noexcept {
  return static_cast<double>(interval_ns) * 1e-9;
}

}  // namespace

double HistogramState::Quantile(double q) const noexcept {
  return BucketQuantile(buckets, max, q);
}

double HistogramDelta::Quantile(double q) const noexcept {
  return BucketQuantile(buckets, max_seen, q);
}

Snapshot Snapshot::Capture() {
  Snapshot snap;
  snap.captured_ns = NowNs();
  const MetricsRegistry& reg = MetricsRegistry::Global();
  reg.VisitCounters([&snap](const Counter& c) {
    snap.counters.push_back({c.name(), c.Value()});
  });
  reg.VisitGauges([&snap](const Gauge& g) {
    snap.gauges.push_back({g.name(), g.Value(), g.Max()});
  });
  reg.VisitUpDownGauges([&snap](const UpDownGauge& g) {
    snap.gauges.push_back({g.name(), g.Value(), g.Max()});
  });
  reg.VisitHistograms([&snap](const Histogram& h) {
    HistogramState state;
    state.name = h.name();
    state.sum = h.Sum();
    state.max = h.MaxValue();
    for (std::size_t i = 0; i < HistogramState::kBuckets; ++i) {
      state.buckets[i] = h.BucketCount(i);
      state.count += state.buckets[i];
    }
    snap.histograms.push_back(std::move(state));
  });
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

const CounterSnapshot* Snapshot::FindCounter(
    std::string_view name) const noexcept {
  return FindByName(counters, name);
}
const GaugeSnapshot* Snapshot::FindGauge(std::string_view name) const noexcept {
  return FindByName(gauges, name);
}
const HistogramState* Snapshot::FindHistogram(
    std::string_view name) const noexcept {
  return FindByName(histograms, name);
}

Delta Delta::Between(const Snapshot& before, const Snapshot& after) {
  Delta d;
  d.interval_ns = after.captured_ns >= before.captured_ns
                      ? after.captured_ns - before.captured_ns
                      : 0;
  const double secs = SecondsOf(d.interval_ns);

  // `after` drives every merge: a metric registered during the interval has
  // no `before` row and counts from zero; one only in `before` is dropped
  // (metrics never unregister, so that means mismatched snapshots).
  d.counters.reserve(after.counters.size());
  for (const CounterSnapshot& a : after.counters) {
    const CounterSnapshot* b = before.FindCounter(a.name);
    const std::uint64_t prev = b != nullptr ? b->value : 0;
    CounterDelta cd;
    cd.name = a.name;
    cd.delta = a.value >= prev ? a.value - prev : 0;
    cd.rate_per_sec = secs > 0.0 ? static_cast<double>(cd.delta) / secs : 0.0;
    d.counters.push_back(std::move(cd));
  }

  d.gauges.reserve(after.gauges.size());
  for (const GaugeSnapshot& a : after.gauges) {
    d.gauges.push_back({a.name, a.value, a.max});
  }

  d.histograms.reserve(after.histograms.size());
  for (const HistogramState& a : after.histograms) {
    const HistogramState* b = before.FindHistogram(a.name);
    HistogramDelta hd;
    hd.name = a.name;
    hd.max_seen = a.max;
    for (std::size_t i = 0; i < HistogramState::kBuckets; ++i) {
      const std::uint64_t prev = b != nullptr ? b->buckets[i] : 0;
      hd.buckets[i] = a.buckets[i] >= prev ? a.buckets[i] - prev : 0;
      hd.count += hd.buckets[i];
    }
    const std::uint64_t prev_sum = b != nullptr ? b->sum : 0;
    hd.sum = a.sum >= prev_sum ? a.sum - prev_sum : 0;
    hd.rate_per_sec = secs > 0.0 ? static_cast<double>(hd.count) / secs : 0.0;
    hd.mean = hd.count == 0 ? 0.0
                            : static_cast<double>(hd.sum) /
                                  static_cast<double>(hd.count);
    hd.p50 = hd.Quantile(0.50);
    hd.p90 = hd.Quantile(0.90);
    hd.p99 = hd.Quantile(0.99);
    d.histograms.push_back(std::move(hd));
  }
  return d;
}

const CounterDelta* Delta::FindCounter(std::string_view name) const noexcept {
  return FindByName(counters, name);
}
const GaugeDelta* Delta::FindGauge(std::string_view name) const noexcept {
  return FindByName(gauges, name);
}
const HistogramDelta* Delta::FindHistogram(
    std::string_view name) const noexcept {
  return FindByName(histograms, name);
}

}  // namespace bloc::obs
