// Tests for the observability substrate (DESIGN.md §5d): histogram bucket
// math and quantile envelopes, exact concurrent counting, registry handle
// identity, trace recording, and the JSON exports (validated with a minimal
// JSON parser — the Chrome trace_event schema and the RunReport shape).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace bloc::obs {
namespace {

// ---------------------------------------------------------------------------
// A minimal JSON parser: enough to validate structure and look up values.
// Numbers are doubles, objects are flat key -> node maps.

struct JsonNode {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind =
      Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonNode> items;
  std::vector<std::pair<std::string, JsonNode>> fields;

  const JsonNode* Find(const std::string& key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string text) : text_(std::move(text)) {}

  bool Parse(JsonNode& out) {
    pos_ = 0;
    if (!ParseValue(out)) return false;
    SkipWs();
    return pos_ == text_.size();  // no trailing garbage
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool ParseString(std::string& out) {
    if (!Consume('"')) return false;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            pos_ += 4;  // validated, not decoded: names here are ASCII
            out.push_back('?');
            break;
          }
          default: return false;
        }
      } else {
        out.push_back(c);
      }
    }
    return false;  // unterminated
  }

  bool ParseValue(JsonNode& out) {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out.kind = JsonNode::Kind::kString;
      return ParseString(out.str);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out.kind = JsonNode::Kind::kBool;
      out.boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out.kind = JsonNode::Kind::kBool;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      out.kind = JsonNode::Kind::kNull;
      pos_ += 4;
      return true;
    }
    return ParseNumber(out);
  }

  bool ParseNumber(JsonNode& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    try {
      out.number = std::stod(text_.substr(start, pos_ - start));
    } catch (...) {
      return false;
    }
    out.kind = JsonNode::Kind::kNumber;
    return true;
  }

  bool ParseArray(JsonNode& out) {
    if (!Consume('[')) return false;
    out.kind = JsonNode::Kind::kArray;
    SkipWs();
    if (Consume(']')) return true;
    for (;;) {
      JsonNode item;
      if (!ParseValue(item)) return false;
      out.items.push_back(std::move(item));
      if (Consume(']')) return true;
      if (!Consume(',')) return false;
    }
  }

  bool ParseObject(JsonNode& out) {
    if (!Consume('{')) return false;
    out.kind = JsonNode::Kind::kObject;
    SkipWs();
    if (Consume('}')) return true;
    for (;;) {
      std::string key;
      SkipWs();
      if (!ParseString(key)) return false;
      if (!Consume(':')) return false;
      JsonNode value;
      if (!ParseValue(value)) return false;
      out.fields.emplace_back(std::move(key), std::move(value));
      if (Consume('}')) return true;
      if (!Consume(',')) return false;
    }
  }

  std::string text_;
  std::size_t pos_ = 0;
};

TEST(JsonParser, AcceptsAndRejects) {
  JsonNode node;
  EXPECT_TRUE(JsonParser(R"({"a": [1, 2.5, "x"], "b": {"c": true}})")
                  .Parse(node));
  EXPECT_EQ(node.fields.size(), 2u);
  EXPECT_EQ(node.Find("a")->items.size(), 3u);
  EXPECT_FALSE(JsonParser("{").Parse(node));
  EXPECT_FALSE(JsonParser(R"({"a": 1} garbage)").Parse(node));
  EXPECT_FALSE(JsonParser(R"({"a": })").Parse(node));
}

// ---------------------------------------------------------------------------
// Histogram bucket math.

TEST(Histogram, BucketBoundaries) {
  // Bucket 0 holds exactly the value 0; bucket i >= 1 holds [2^(i-1), 2^i-1].
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  for (std::size_t i = 1; i < Histogram::kBuckets - 1; ++i) {
    const std::uint64_t lo = Histogram::BucketLowerBound(i);
    const std::uint64_t hi = Histogram::BucketUpperBound(i);
    EXPECT_EQ(lo, std::uint64_t{1} << (i - 1));
    EXPECT_EQ(hi, (std::uint64_t{1} << i) - 1);
    // Both edges and an interior point map back to bucket i.
    EXPECT_EQ(Histogram::BucketIndex(lo), i);
    EXPECT_EQ(Histogram::BucketIndex(hi), i);
    EXPECT_EQ(Histogram::BucketIndex(lo + (hi - lo) / 2), i);
  }
  // The top bucket is open-ended.
  EXPECT_EQ(Histogram::BucketIndex(~std::uint64_t{0}),
            Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kBuckets - 1),
            ~std::uint64_t{0});
}

TEST(Histogram, CountsSumAndMax) {
  Histogram& h = GetHistogram("test.hist.counts");
  for (std::uint64_t v : {0u, 1u, 1u, 7u, 100u}) h.Record(v);
  EXPECT_EQ(h.Count(), 5u);
  EXPECT_EQ(h.Sum(), 109u);
  EXPECT_EQ(h.MaxValue(), 100u);
  EXPECT_EQ(h.BucketCount(0), 1u);  // the 0
  EXPECT_EQ(h.BucketCount(1), 2u);  // the two 1s
}

double ExactQuantile(std::vector<std::uint64_t> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return (1.0 - frac) * static_cast<double>(samples[lo]) +
         frac * static_cast<double>(samples[hi]);
}

TEST(Histogram, QuantilesTrackExactWithinBucketEnvelope) {
  // Log-spaced-ish latency population; the estimate must stay within a
  // factor of 2 of the exact quantile (the bucket envelope), and inside
  // [min, max] of the recorded samples.
  std::vector<std::uint64_t> samples;
  for (std::uint64_t i = 1; i <= 1000; ++i) samples.push_back(3 * i + 17);
  Histogram& h = GetHistogram("test.hist.quantiles");
  for (std::uint64_t v : samples) h.Record(v);

  for (double q : {0.5, 0.95, 0.99}) {
    const double exact = ExactQuantile(samples, q);
    const double est = h.Quantile(q);
    EXPECT_GE(est, exact / 2.0) << "q=" << q;
    EXPECT_LE(est, exact * 2.0) << "q=" << q;
    EXPECT_GE(est, static_cast<double>(samples.front()));
    EXPECT_LE(est, static_cast<double>(samples.back()));
  }
  // Extremes clamp to the population bounds.
  EXPECT_GE(h.Quantile(0.0), 0.0);
  EXPECT_LE(h.Quantile(1.0), static_cast<double>(h.MaxValue()));
}

TEST(Histogram, SingleSampleQuantileStaysInBucket) {
  Histogram& h = GetHistogram("test.hist.single");
  h.Record(700);
  const std::size_t b = Histogram::BucketIndex(700);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    const double est = h.Quantile(q);
    EXPECT_GE(est, static_cast<double>(Histogram::BucketLowerBound(b)));
    EXPECT_LE(est, 700.0);  // interpolation caps at the observed max
  }
  Histogram& empty = GetHistogram("test.hist.empty");
  EXPECT_EQ(empty.Quantile(0.5), 0.0);
}

// ---------------------------------------------------------------------------
// Counters, gauges, registry.

TEST(Counter, ConcurrentIncrementsSumExactly) {
  Counter& c = GetCounter("test.counter.concurrent");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.Inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(Counter, IncByDelta) {
  Counter& c = GetCounter("test.counter.delta");
  c.Inc(5);
  c.Inc(37);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(Gauge, TracksValueAndHighWatermark) {
  Gauge& g = GetGauge("test.gauge.watermark");
  g.Add(3);
  g.Add(4);  // peak 7
  g.Sub(5);
  g.Add(1);
  EXPECT_EQ(g.Value(), 3);
  EXPECT_EQ(g.Max(), 7);
  g.Set(-2);
  EXPECT_EQ(g.Value(), -2);
  EXPECT_EQ(g.Max(), 7);  // the watermark never goes down
}

TEST(Registry, HandlesAreStableAndIdentityPerName) {
  Counter& a = GetCounter("test.registry.same");
  Counter& b = GetCounter("test.registry.same");
  Counter& c = GetCounter("test.registry.other");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  // Same namespace string as a gauge/histogram is a distinct metric.
  Gauge& g = GetGauge("test.registry.same");
  Histogram& h = GetHistogram("test.registry.same");
  EXPECT_NE(static_cast<void*>(&g), static_cast<void*>(&a));
  EXPECT_NE(static_cast<void*>(&h), static_cast<void*>(&a));
}

TEST(Registry, RuntimeDisableStopsRecording) {
  Counter& c = GetCounter("test.registry.disable");
  Histogram& h = GetHistogram("test.registry.disable_h");
  SetMetricsEnabled(false);
  c.Inc();
  h.Record(10);
  SetMetricsEnabled(true);
  EXPECT_EQ(c.Value(), 0u);
  EXPECT_EQ(h.Count(), 0u);
  c.Inc();
  EXPECT_EQ(c.Value(), 1u);
}

TEST(ScopedTimerTest, RecordsElapsedMicros) {
  Histogram& h = GetHistogram("test.scoped_timer.us");
  {
    ScopedTimer timer(h);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_GE(h.MaxValue(), 1000u);  // slept >= 2 ms, recorded in us
}

TEST(Snapshot, SortedAndComplete) {
  GetCounter("test.snapshot.b").Inc(2);
  GetCounter("test.snapshot.a").Inc(1);
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  bool saw_a = false, saw_b = false;
  for (const CounterSnapshot& c : snap.counters) {
    if (c.name == "test.snapshot.a") saw_a = (c.value == 1);
    if (c.name == "test.snapshot.b") saw_b = (c.value == 2);
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);
  EXPECT_TRUE(std::is_sorted(
      snap.counters.begin(), snap.counters.end(),
      [](const auto& x, const auto& y) { return x.name < y.name; }));
}

// ---------------------------------------------------------------------------
// Tracing and the Chrome trace_event export.

TEST(Trace, SpansRecordOnlyWhenEnabled) {
  ClearTrace();
  SetTracingEnabled(false);
  { TraceSpan span("test.disabled", "test"); }
  EXPECT_TRUE(SnapshotTrace().empty());

  SetTracingEnabled(true);
  {
    TraceSpan outer("test.outer", "test", 42);
    TraceSpan inner("test.inner", "test");
  }
  SetTracingEnabled(false);

  const std::vector<TraceEvent> events = SnapshotTrace();
  ASSERT_EQ(events.size(), 2u);
  // Inner destructs first, so it records first.
  EXPECT_STREQ(events[0].name, "test.inner");
  EXPECT_STREQ(events[1].name, "test.outer");
  EXPECT_EQ(events[1].arg, 42u);
  EXPECT_LE(events[1].start_ns, events[0].start_ns);  // outer opened first
  ClearTrace();
}

TEST(Trace, ExplicitEndIsIdempotent) {
  ClearTrace();
  SetTracingEnabled(true);
  {
    TraceSpan span("test.end", "test");
    span.End();
    span.End();  // second call must not double-record
  }  // destructor must not record a third time
  SetTracingEnabled(false);
  EXPECT_EQ(SnapshotTrace().size(), 1u);
  ClearTrace();
}

TEST(Trace, ChromeJsonValidates) {
  ClearTrace();
  SetTracingEnabled(true);
  {
    TraceSpan a("test.chrome.a", "test", 7);
    TraceSpan b("test.chrome.b", "test");
  }
  SetTracingEnabled(false);

  std::ostringstream os;
  WriteChromeTrace(os);
  ClearTrace();

  JsonNode root;
  ASSERT_TRUE(JsonParser(os.str()).Parse(root)) << os.str();
  ASSERT_EQ(root.kind, JsonNode::Kind::kObject);
  const JsonNode* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonNode::Kind::kArray);
  ASSERT_EQ(events->items.size(), 2u);
  for (const JsonNode& ev : events->items) {
    ASSERT_EQ(ev.kind, JsonNode::Kind::kObject);
    // The complete-event schema chrome://tracing and Perfetto load.
    ASSERT_NE(ev.Find("name"), nullptr);
    EXPECT_EQ(ev.Find("name")->kind, JsonNode::Kind::kString);
    ASSERT_NE(ev.Find("ph"), nullptr);
    EXPECT_EQ(ev.Find("ph")->str, "X");
    for (const char* key : {"ts", "dur", "pid", "tid"}) {
      ASSERT_NE(ev.Find(key), nullptr) << key;
      EXPECT_EQ(ev.Find(key)->kind, JsonNode::Kind::kNumber) << key;
    }
    EXPECT_GE(ev.Find("dur")->number, 0.0);
  }
}

TEST(Report, JsonValidatesAndCarriesValues) {
  GetCounter("test.report.counter").Inc(9);
  GetGauge("test.report.gauge").Set(4);
  GetHistogram("test.report.hist_us").Record(100);

  std::ostringstream os;
  RunReport::Capture().WriteJson(os);

  JsonNode root;
  ASSERT_TRUE(JsonParser(os.str()).Parse(root)) << os.str();
  for (const char* section : {"counters", "gauges", "histograms"}) {
    ASSERT_NE(root.Find(section), nullptr) << section;
    EXPECT_EQ(root.Find(section)->kind, JsonNode::Kind::kObject) << section;
  }
  const JsonNode* counter = root.Find("counters")->Find("test.report.counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->number, 9.0);
  const JsonNode* gauge = root.Find("gauges")->Find("test.report.gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->Find("value")->number, 4.0);
  const JsonNode* hist = root.Find("histograms")->Find("test.report.hist_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Find("count")->number, 1.0);
  EXPECT_EQ(hist->Find("sum")->number, 100.0);
  for (const char* key : {"max", "p50", "p95", "p99"}) {
    ASSERT_NE(hist->Find(key), nullptr) << key;
  }
}

TEST(Report, TableListsMetrics) {
  GetCounter("test.table.counter").Inc();
  std::ostringstream os;
  RunReport::Capture().PrintTable(os);
  EXPECT_NE(os.str().find("test.table.counter"), std::string::npos);
}

}  // namespace
}  // namespace bloc::obs
