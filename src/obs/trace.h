// Stage tracing (DESIGN.md §5d): RAII TraceSpan records complete events
// into a per-thread ring buffer; WriteChromeTrace exports everything as
// Chrome trace_event JSON, loadable in chrome://tracing and Perfetto.
//
// Cost model: when tracing is off (the default) a span is one relaxed
// atomic load. When on, it is two steady_clock reads plus an append under
// the owning thread's uncontended buffer mutex (~100 ns) — per pipeline
// stage, not per sample, so the fig9 round (~milliseconds) sees well under
// 0.1% overhead.
//
// Span names and categories must be string literals (or otherwise outlive
// the process): the ring stores the pointers, not copies.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace bloc::obs {

/// Runtime switch, off by default; benches enable it for --trace runs.
bool TracingEnabled() noexcept;
void SetTracingEnabled(bool on) noexcept;

/// One completed span. Timestamps are NowNs() (shared steady epoch).
struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t arg = 0;  // free-form id (round index, anchor id, ...)
  std::uint32_t tid = 0;  // stable small id per recording thread
};

/// RAII span: opens at construction, records at destruction. Nesting works
/// naturally (inner spans simply record first).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* cat = "bloc",
                     std::uint64_t arg = 0) noexcept {
    if (!TracingEnabled()) return;  // the one relaxed load
    name_ = name;
    cat_ = cat;
    arg_ = arg;
    start_ns_ = Begin();
  }
  ~TraceSpan() { End(); }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Closes the span now instead of at scope exit. Idempotent; lets one
  /// function record back-to-back stages without artificial blocks.
  void End() noexcept {
    if (name_ == nullptr) return;
    Commit(name_, cat_, start_ns_, arg_);
    name_ = nullptr;
  }

 private:
  static std::uint64_t Begin() noexcept;
  static void Commit(const char* name, const char* cat,
                     std::uint64_t start_ns, std::uint64_t arg) noexcept;
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint64_t arg_ = 0;
};

/// All recorded events, merged across threads (unordered between threads).
std::vector<TraceEvent> SnapshotTrace();

/// Drops every recorded event (buffers stay registered). Tests only.
void ClearTrace();

/// Events lost to ring wrap-around since process start.
std::uint64_t TraceDroppedEvents();

/// Chrome trace_event JSON ("traceEvents" array of "ph":"X" complete
/// events; ts/dur in microseconds).
void WriteChromeTrace(std::ostream& os);
/// File variant; returns false (after logging to stderr) on I/O failure.
bool WriteChromeTraceFile(const std::string& path);

}  // namespace bloc::obs
