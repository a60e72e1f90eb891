#include "obs/trace.h"

#include <atomic>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <ostream>

#include "obs/metrics.h"

namespace bloc::obs {

namespace {

/// JSON string escape for names/categories (ours are plain literals, but
/// the exporter must never emit invalid JSON regardless).
void EscapeJson(std::ostream& os, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf]
             << "0123456789abcdef"[c & 0xf];
        } else {
          os << c;
        }
    }
  }
}

std::atomic<bool> g_tracing_enabled{false};

/// Fixed-capacity ring of complete events. Appends come only from the
/// owning thread; the mutex exists so SnapshotTrace/ClearTrace can read
/// from other threads. It is uncontended on the hot path.
struct ThreadTraceBuffer {
  static constexpr std::size_t kCapacity = 1u << 15;  // 32768 events/thread

  explicit ThreadTraceBuffer(std::uint32_t tid) : tid_(tid) {
    events_.reserve(kCapacity);
  }

  void Append(const TraceEvent& ev) {
    std::lock_guard<std::mutex> lock(mu_);
    if (events_.size() < kCapacity) {
      events_.push_back(ev);
    } else {
      events_[head_] = ev;  // wrap: keep the most recent events
      head_ = (head_ + 1) % kCapacity;
      ++dropped_;
      // Mirror drops into the registry so silent trace truncation shows up
      // on /metrics. The registry mutex is only taken on the first resolve;
      // Inc itself is lock-free, so no cycle with mu_ held here.
      static Counter& dropped_events = GetCounter("obs.trace.dropped_events");
      dropped_events.Inc();
    }
  }

  void CollectInto(std::vector<TraceEvent>& out) const {
    std::lock_guard<std::mutex> lock(mu_);
    // Oldest-first: [head_, end) then [0, head_).
    for (std::size_t i = head_; i < events_.size(); ++i) {
      out.push_back(events_[i]);
    }
    for (std::size_t i = 0; i < head_; ++i) out.push_back(events_[i]);
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
    head_ = 0;
    dropped_ = 0;
  }

  std::uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
  }

  std::uint32_t tid() const { return tid_; }

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::size_t head_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint32_t tid_ = 0;
};

struct TraceCollector {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadTraceBuffer>> buffers;
  std::uint32_t next_tid = 1;

  static TraceCollector& Global() {
    static TraceCollector* collector = new TraceCollector();  // never dies
    return *collector;
  }

  std::shared_ptr<ThreadTraceBuffer> Register() {
    std::lock_guard<std::mutex> lock(mu);
    auto buf = std::make_shared<ThreadTraceBuffer>(next_tid++);
    buffers.push_back(buf);
    return buf;
  }
};

/// The calling thread's buffer; registered on first use, kept alive by the
/// collector after thread exit so late exports still see its events.
ThreadTraceBuffer& ThisThreadBuffer() {
  thread_local std::shared_ptr<ThreadTraceBuffer> buffer =
      TraceCollector::Global().Register();
  return *buffer;
}

}  // namespace

bool TracingEnabled() noexcept {
  return g_tracing_enabled.load(std::memory_order_relaxed);
}

void SetTracingEnabled(bool on) noexcept {
  g_tracing_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t TraceSpan::Begin() noexcept { return NowNs(); }

void TraceSpan::Commit(const char* name, const char* cat,
                       std::uint64_t start_ns, std::uint64_t arg) noexcept {
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.start_ns = start_ns;
  ev.dur_ns = NowNs() - start_ns;
  ev.arg = arg;
  ThreadTraceBuffer& buf = ThisThreadBuffer();
  ev.tid = buf.tid();
  buf.Append(ev);
}

std::vector<TraceEvent> SnapshotTrace() {
  TraceCollector& collector = TraceCollector::Global();
  std::vector<TraceEvent> out;
  std::lock_guard<std::mutex> lock(collector.mu);
  for (const auto& buf : collector.buffers) buf->CollectInto(out);
  return out;
}

void ClearTrace() {
  TraceCollector& collector = TraceCollector::Global();
  std::lock_guard<std::mutex> lock(collector.mu);
  for (const auto& buf : collector.buffers) buf->Clear();
}

std::uint64_t TraceDroppedEvents() {
  TraceCollector& collector = TraceCollector::Global();
  std::uint64_t dropped = 0;
  std::lock_guard<std::mutex> lock(collector.mu);
  for (const auto& buf : collector.buffers) dropped += buf->dropped();
  return dropped;
}

void WriteChromeTrace(std::ostream& os) {
  const std::vector<TraceEvent> events = SnapshotTrace();
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& ev : events) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"";
    EscapeJson(os, ev.name);
    os << "\",\"cat\":\"";
    EscapeJson(os, ev.cat);
    // trace_event ts/dur are microseconds; fractional values are allowed.
    os << "\",\"ph\":\"X\",\"ts\":"
       << static_cast<double>(ev.start_ns) / 1e3
       << ",\"dur\":" << static_cast<double>(ev.dur_ns) / 1e3
       << ",\"pid\":1,\"tid\":" << ev.tid << ",\"args\":{\"id\":" << ev.arg
       << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

bool WriteChromeTraceFile(const std::string& path) {
  std::ofstream out(path);
  if (out) WriteChromeTrace(out);
  if (!out) {
    std::cerr << "obs: cannot write trace to " << path << "\n";
    return false;
  }
  return true;
}

}  // namespace bloc::obs
