// Shared plumbing of the repository benchmark: arguments, sample
// distributions, the metric table a run reports, the thread-safe
// correctness oracle and the host/build metadata every result carries.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "geom/vec2.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// `s` seconds as a Clock duration (for deadlines and schedules).
inline Clock::duration Secs(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}
inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Input sizes. `full` is the benchmark; `tiny` is the self-test size that
/// exercises every code path in a moment.
struct Scale {
  std::size_t static_locations = 64;  // fig9 rounds (locate_batch, serve)
  std::size_t serve_tags = 1000;
  double paced_rate = 150.0;           // rounds/s offered by serve_paced
  std::size_t moving_tags = 64;
  std::size_t moving_rounds = 24;
  std::size_t setup_repeats = 15;
  double warmup_s = 0.5;
  double probe_s = 0.6;                // each layer probe of a traced run

  static Scale Tiny();
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale;
};

/// A sample distribution; quantiles use the nearest-rank rule on a sorted
/// copy, so the caller may keep appending.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  std::size_t size() const { return values_.size(); }
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Mean() const;

 private:
  std::vector<double> values_;
};

/// Samples shared between threads (update callbacks, connection readers).
class SharedSamples {
 public:
  void Add(double v) {
    std::lock_guard lock(mutex_);
    samples_.Add(v);
  }
  Samples Take() {
    std::lock_guard lock(mutex_);
    Samples out = samples_;
    return out;
  }

 private:
  std::mutex mutex_;
  Samples samples_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Name -> metric, printed in name order.
using MetricTable = std::map<std::string, Metric>;

/// Counts rounds attempted and failed. A round fails when it is lost, its
/// raw position differs from the serial reference, it arrives out of
/// per-tag order, its position is non-finite, or the program shed, expired
/// or refused it. Safe to call from any thread.
class Oracle {
 public:
  void Attempt(std::uint64_t n = 1) {
    attempted_.fetch_add(n, std::memory_order_relaxed);
  }
  void Fail(const std::string& reason, std::uint64_t n = 1);
  std::uint64_t attempted() const {
    return attempted_.load(std::memory_order_relaxed);
  }
  std::uint64_t failed() const {
    return failed_.load(std::memory_order_relaxed);
  }
  /// "reason=count ..." for the report; empty when nothing failed.
  std::string Reasons() const;

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  mutable std::mutex mutex_;
  std::map<std::string, std::uint64_t> reasons_;
};

/// Exact bit equality of two positions (the bit-identity oracle).
inline bool SamePosition(const bloc::geom::Vec2& a, const bloc::geom::Vec2& b) {
  return a.x == b.x && a.y == b.y;
}
bool Finite(const bloc::geom::Vec2& p);

/// Errors (m) of `estimates` against `truths`, pairwise.
Samples Errors(const std::vector<bloc::geom::Vec2>& estimates,
               const std::vector<bloc::geom::Vec2>& truths);

/// Peak resident set size of this process, MB.
double PeakRssMb();

/// Hardware and build metadata: nproc, dispatched ISA, BLOC_FORCE_ISA, CPU
/// model, build type and BLOC_NATIVE. Rendered as one JSON object.
std::string HostMetadataJson();
/// dsp::simd::IsaName of the kernels this process dispatched.
std::string ActiveIsaName();

/// Median of `repeats` timings of `fn` (seconds each, as `fn` returns).
template <typename Fn>
double MedianOf(std::size_t repeats, Fn&& fn) {
  Samples s;
  for (std::size_t i = 0; i < repeats; ++i) s.Add(fn());
  return s.Median();
}

}  // namespace perfbench
