// Process-wide metrics substrate (DESIGN.md §5d): named counters, gauges
// and log-bucketed histograms behind a single MetricsRegistry.
//
// Design rules, in priority order:
//  - Hot-path recording is lock-free: counters shard across cache-line-
//    padded atomics (relaxed increments, summed at read), gauges and
//    histogram buckets are single relaxed atomics. The registry mutex is
//    taken only at registration (first GetX for a name) and at Snapshot.
//  - Handles are stable forever: GetCounter/GetGauge/GetHistogram return a
//    reference that never moves or dies, so callers resolve a metric once
//    (constructor or static) and increment through the pointer afterwards.
//  - Recording is runtime-gated by one relaxed atomic load
//    (SetMetricsEnabled).
//
// Naming convention: `subsystem.object.event`, lower_snake within segments,
// a unit suffix (`_us`, `_bytes`) on histograms/gauges that carry one.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace bloc::obs {

/// Nanoseconds on the steady clock since the first call in this process —
/// the shared timebase of ScopedTimer and the trace spans.
std::uint64_t NowNs() noexcept;

/// Master runtime switch for metric recording (one relaxed load per
/// record). Defaults to on; tracing has its own switch in obs/trace.h.
bool MetricsEnabled() noexcept;
void SetMetricsEnabled(bool on) noexcept;

namespace detail {
/// Stable per-thread shard index in [0, kShards). Threads are striped
/// round-robin at first use, so N concurrent writers touch N distinct
/// cache lines (until N exceeds kShards).
inline constexpr std::size_t kCounterShards = 8;
std::size_t ThisThreadShard() noexcept;
}  // namespace detail

/// Monotonically increasing event count. Inc is wait-free: one relaxed
/// fetch_add on this thread's shard.
class Counter {
 public:
  void Inc(std::uint64_t n = 1) noexcept {
    if (!MetricsEnabled()) return;
    shards_[detail::ThisThreadShard()].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  /// Sum over shards. Monotonic, but not a consistent cut across shards
  /// while writers are active.
  std::uint64_t Value() const noexcept {
    std::uint64_t sum = 0;
    for (const Shard& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }
  const std::string& name() const noexcept { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  Shard shards_[detail::kCounterShards];
  std::string name_;
};

/// A signed level (queue depth, bytes in flight) with a high-watermark.
class Gauge {
 public:
  void Set(std::int64_t v) noexcept {
    if (!MetricsEnabled()) return;
    value_.store(v, std::memory_order_relaxed);
    UpdateMax(v);
  }
  void Add(std::int64_t d) noexcept {
    if (!MetricsEnabled()) return;
    UpdateMax(value_.fetch_add(d, std::memory_order_relaxed) + d);
  }
  void Sub(std::int64_t d) noexcept { Add(-d); }
  std::int64_t Value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  std::int64_t Max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  const std::string& name() const noexcept { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  void UpdateMax(std::int64_t v) noexcept {
    std::int64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
  std::string name_;
};

/// A true up/down level (queue depth, in-flight count) with a
/// high-watermark. Unlike Gauge, Add/Sub are NOT gated by MetricsEnabled():
/// levels are maintained by paired increments and decrements, and gating
/// only one side of a pair (recording toggled mid-run, as --mode=obs does)
/// would drift the level permanently. The cost is one relaxed fetch_add
/// either way, so the level is always exact.
class UpDownGauge {
 public:
  void Add(std::int64_t d) noexcept {
    UpdateMax(value_.fetch_add(d, std::memory_order_relaxed) + d);
  }
  void Sub(std::int64_t d) noexcept {
    value_.fetch_sub(d, std::memory_order_relaxed);
  }
  std::int64_t Value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  std::int64_t Max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  const std::string& name() const noexcept { return name_; }

 private:
  friend class MetricsRegistry;
  explicit UpDownGauge(std::string name) : name_(std::move(name)) {}
  void UpdateMax(std::int64_t v) noexcept {
    std::int64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
  std::string name_;
};

/// Log2-bucketed histogram of non-negative integer samples (latencies in
/// microseconds, sizes in bytes). Bucket 0 holds the value 0; bucket i >= 1
/// holds [2^(i-1), 2^i - 1]. Record is wait-free (three relaxed atomics);
/// quantiles interpolate linearly inside the selected bucket, so an
/// estimate is always within the true value's bucket bounds (a factor-2
/// envelope), which is plenty for stage timings.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void Record(std::uint64_t value) noexcept {
    if (!MetricsEnabled()) return;
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    std::uint64_t cur = max_.load(std::memory_order_relaxed);
    while (value > cur && !max_.compare_exchange_weak(
                              cur, value, std::memory_order_relaxed)) {
    }
  }

  std::uint64_t Count() const noexcept;
  std::uint64_t Sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  std::uint64_t MaxValue() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  std::uint64_t BucketCount(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Quantile estimate for q in [0, 1]; 0 when the histogram is empty.
  double Quantile(double q) const noexcept;

  /// Smallest / largest value a sample in bucket `i` can have.
  static std::uint64_t BucketLowerBound(std::size_t i) noexcept {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }
  static std::uint64_t BucketUpperBound(std::size_t i) noexcept {
    if (i == 0) return 0;
    if (i >= kBuckets - 1) return ~std::uint64_t{0};
    return (std::uint64_t{1} << i) - 1;
  }
  static std::size_t BucketIndex(std::uint64_t value) noexcept {
    std::size_t i = 0;
    while (value != 0) {  // bit_width; loop keeps this header freestanding
      ++i;
      value >>= 1;
    }
    return i < kBuckets ? i : kBuckets - 1;
  }

  const std::string& name() const noexcept { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::string name) : name_(std::move(name)) {}
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
  std::string name_;
};

/// RAII stage timer: records elapsed microseconds into a histogram.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& hist) noexcept {
    if (MetricsEnabled()) {
      hist_ = &hist;
      start_ns_ = NowNs();
    }
  }
  ~ScopedTimer() {
    if (hist_ != nullptr) hist_->Record((NowNs() - start_ns_) / 1000);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* hist_ = nullptr;
  std::uint64_t start_ns_ = 0;
};

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  std::int64_t value = 0;
  std::int64_t max = 0;
};

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// A consistent-enough view of every registered metric, sorted by name.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;
};

/// The process-wide registry. Metrics register on first lookup and live for
/// the process lifetime; handles stay valid forever.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  UpDownGauge& GetUpDownGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  MetricsSnapshot Snapshot() const;

  /// Visits every registered metric of one kind under the registry mutex —
  /// the full-fidelity capture path (obs/snapshot.h reads raw histogram
  /// buckets through these). The visitor must not call GetX (deadlock).
  void VisitCounters(const std::function<void(const Counter&)>& fn) const;
  void VisitGauges(const std::function<void(const Gauge&)>& fn) const;
  void VisitUpDownGauges(
      const std::function<void(const UpDownGauge&)>& fn) const;
  void VisitHistograms(const std::function<void(const Histogram&)>& fn) const;

 private:
  MetricsRegistry() = default;
  mutable std::mutex mu_;
  // unique_ptr keeps addresses stable as the vectors grow.
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<std::unique_ptr<Gauge>> gauges_;
  std::vector<std::unique_ptr<UpDownGauge>> updown_gauges_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
};

/// Shorthands for the common resolve-once pattern.
inline Counter& GetCounter(std::string_view name) {
  return MetricsRegistry::Global().GetCounter(name);
}
inline Gauge& GetGauge(std::string_view name) {
  return MetricsRegistry::Global().GetGauge(name);
}
inline UpDownGauge& GetUpDownGauge(std::string_view name) {
  return MetricsRegistry::Global().GetUpDownGauge(name);
}
inline Histogram& GetHistogram(std::string_view name) {
  return MetricsRegistry::Global().GetHistogram(name);
}

}  // namespace bloc::obs
