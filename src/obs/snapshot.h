// Point-in-time registry snapshots and interval deltas (DESIGN.md §5h).
//
// MetricsSnapshot (obs/metrics.h) summarizes histograms to fixed quantiles
// at capture time, which is enough for end-of-run reports but not for live
// scraping: a scraper needs the raw log2 buckets (Prometheus exposition)
// and wants quantiles *of an interval* — "p99 over the last 10 seconds",
// not since process start. Snapshot keeps full bucket fidelity; Delta
// subtracts two snapshots and answers interval-local rates and quantiles.
// This is the primitive the soak bench previously hand-rolled.
//
// Snapshot/Delta are plain data (no atomics); only Snapshot::Capture()
// touches the registry.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace bloc::obs {

/// Full state of one histogram: every bucket, not just fixed quantiles.
struct HistogramState {
  static constexpr std::size_t kBuckets = 64;  // == Histogram::kBuckets

  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::array<std::uint64_t, kBuckets> buckets{};

  /// Quantile estimate for q in [0, 1] over these buckets; same rank-walk +
  /// linear interpolation as Histogram::Quantile (factor-2 envelope).
  double Quantile(double q) const noexcept;
  double Mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// A point-in-time capture of every registered metric, sorted by name.
/// Gauges include both plain (watermark) and up/down gauges in one list.
struct Snapshot {
  std::uint64_t captured_ns = 0;  // obs::NowNs() at capture
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramState> histograms;

  static Snapshot Capture();

  /// Binary search by name; nullptr when absent.
  const CounterSnapshot* FindCounter(std::string_view name) const noexcept;
  const GaugeSnapshot* FindGauge(std::string_view name) const noexcept;
  const HistogramState* FindHistogram(std::string_view name) const noexcept;
};

struct CounterDelta {
  std::string name;
  std::uint64_t delta = 0;       // after - before (0 if counter is new)
  double rate_per_sec = 0.0;     // delta / interval
};

/// Gauge levels are instantaneous, not cumulative: the delta keeps the
/// *after* level and watermark (what "current depth" means at scrape time).
struct GaugeDelta {
  std::string name;
  std::int64_t value = 0;
  std::int64_t max = 0;
};

struct HistogramDelta {
  std::string name;
  std::uint64_t count = 0;       // samples recorded inside the interval
  std::uint64_t sum = 0;
  double rate_per_sec = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  std::uint64_t max_seen = 0;    // cumulative max at `after` (upper bound)
  std::array<std::uint64_t, HistogramState::kBuckets> buckets{};

  /// Interval-local quantile over the bucket deltas.
  double Quantile(double q) const noexcept;
};

/// The change between two snapshots of the same process. Metrics that first
/// appear in `after` are treated as starting from zero; counters that
/// appear to go backwards (impossible unless snapshots are swapped) clamp
/// their delta to zero.
struct Delta {
  std::uint64_t interval_ns = 0;
  std::vector<CounterDelta> counters;
  std::vector<GaugeDelta> gauges;
  std::vector<HistogramDelta> histograms;

  static Delta Between(const Snapshot& before, const Snapshot& after);

  const CounterDelta* FindCounter(std::string_view name) const noexcept;
  const GaugeDelta* FindGauge(std::string_view name) const noexcept;
  const HistogramDelta* FindHistogram(std::string_view name) const noexcept;
};

}  // namespace bloc::obs
