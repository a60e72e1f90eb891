#include "obs/metrics.h"

#include <algorithm>
#include <chrono>

namespace bloc::obs {

std::uint64_t NowNs() noexcept {
  // One shared epoch so timestamps from every thread are comparable.
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

namespace {
std::atomic<bool> g_metrics_enabled{true};
}  // namespace

bool MetricsEnabled() noexcept {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void SetMetricsEnabled(bool on) noexcept {
  g_metrics_enabled.store(on, std::memory_order_relaxed);
}

namespace detail {

std::size_t ThisThreadShard() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kCounterShards;
  return shard;
}

}  // namespace detail

std::uint64_t Histogram::Count() const noexcept {
  std::uint64_t n = 0;
  for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
  return n;
}

double Histogram::Quantile(double q) const noexcept {
  q = std::clamp(q, 0.0, 1.0);
  std::uint64_t counts[kBuckets];
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  // Rank of the q-quantile sample, 1-based; walk buckets until we pass it,
  // then interpolate linearly between the bucket's bounds.
  const double rank = q * static_cast<double>(total - 1) + 1.0;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts[i] == 0) continue;
    const double lo_rank = static_cast<double>(cum) + 1.0;
    cum += counts[i];
    if (rank > static_cast<double>(cum)) continue;
    const double lo = static_cast<double>(BucketLowerBound(i));
    // No sample exceeds the observed max, so the bucket holding it (and the
    // open-ended top bucket) interpolates toward the max, never past it —
    // the estimate always stays inside [min bucket bound, observed max].
    const double hi =
        static_cast<double>(std::min(BucketUpperBound(i), MaxValue()));
    if (counts[i] == 1) return 0.5 * (lo + std::max(lo, hi));
    const double frac =
        (rank - lo_rank) / static_cast<double>(counts[i] - 1);
    return lo + (std::max(lo, hi) - lo) * std::clamp(frac, 0.0, 1.0);
  }
  return static_cast<double>(MaxValue());
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never dies
  return *registry;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& c : counters_) {
    if (c->name() == name) return *c;
  }
  counters_.push_back(
      std::unique_ptr<Counter>(new Counter(std::string(name))));
  return *counters_.back();
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& g : gauges_) {
    if (g->name() == name) return *g;
  }
  gauges_.push_back(std::unique_ptr<Gauge>(new Gauge(std::string(name))));
  return *gauges_.back();
}

UpDownGauge& MetricsRegistry::GetUpDownGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& g : updown_gauges_) {
    if (g->name() == name) return *g;
  }
  updown_gauges_.push_back(
      std::unique_ptr<UpDownGauge>(new UpDownGauge(std::string(name))));
  return *updown_gauges_.back();
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& h : histograms_) {
    if (h->name() == name) return *h;
  }
  histograms_.push_back(
      std::unique_ptr<Histogram>(new Histogram(std::string(name))));
  return *histograms_.back();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap.counters.reserve(counters_.size());
    for (const auto& c : counters_) {
      snap.counters.push_back({c->name(), c->Value()});
    }
    snap.gauges.reserve(gauges_.size() + updown_gauges_.size());
    for (const auto& g : gauges_) {
      snap.gauges.push_back({g->name(), g->Value(), g->Max()});
    }
    // Up/down gauges fold into the same snapshot rows: a level + watermark
    // reads the same either way, so RunReport and /report cover both kinds.
    for (const auto& g : updown_gauges_) {
      snap.gauges.push_back({g->name(), g->Value(), g->Max()});
    }
    snap.histograms.reserve(histograms_.size());
    for (const auto& h : histograms_) {
      snap.histograms.push_back({h->name(), h->Count(), h->Sum(),
                                 h->MaxValue(), h->Quantile(0.50),
                                 h->Quantile(0.95), h->Quantile(0.99)});
    }
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

void MetricsRegistry::VisitCounters(
    const std::function<void(const Counter&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& c : counters_) fn(*c);
}

void MetricsRegistry::VisitGauges(
    const std::function<void(const Gauge&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& g : gauges_) fn(*g);
}

void MetricsRegistry::VisitUpDownGauges(
    const std::function<void(const UpDownGauge&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& g : updown_gauges_) fn(*g);
}

void MetricsRegistry::VisitHistograms(
    const std::function<void(const Histogram&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& h : histograms_) fn(*h);
}

}  // namespace bloc::obs
