// Tests for the admin HTTP endpoint (serve/admin.h) and the health policy
// (serve/health.h): a raw TCP client scrapes /metrics, /healthz and
// /report like an external Prometheus would, and the line-protocol parser
// from bench/scrape.h validates the exposition (series naming, label
// escaping, cumulative-bucket monotonicity). EvaluateHealth is unit-tested
// on hand-built stats so every SLO check flips for exactly its own reason.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "scrape.h"
#include "serve/admin.h"
#include "serve/health.h"
#include "serve/service.h"
#include "sim/experiment.h"

namespace bloc::serve {
namespace {

using bench::FindSample;
using bench::HttpBody;
using bench::HttpGet;
using bench::HttpStatus;
using bench::ParsePrometheus;
using bench::PromSample;

// ---------------------------------------------------------------------------
// EvaluateHealth

ServiceHealthStats HealthyStats() {
  ServiceHealthStats stats;
  stats.counters.admitted_frames = 4000;
  stats.counters.completed_rounds = 1000;
  stats.counters.localized_rounds = 1000;
  stats.ring_depth = 2;
  stats.window_p50_us = 5'000.0;
  stats.window_p99_us = 20'000.0;
  return stats;
}

TEST(EvaluateHealth, HealthyServicePassesEveryCheck) {
  const HealthReport report = EvaluateHealth(HealthyStats());
  EXPECT_TRUE(report.healthy);
  EXPECT_FALSE(report.warming_up);
  EXPECT_EQ(report.rounds_observed, 1000u);
  EXPECT_FALSE(report.checks.empty());
  for (const HealthCheck& check : report.checks) {
    EXPECT_TRUE(check.ok) << check.name;
  }
}

TEST(EvaluateHealth, ChecksAreExactlyTheServiceSlos) {
  // Every check reads this service's own counters and window, never a
  // process-global series another component in the process could move.
  std::vector<std::string> names;
  for (const HealthCheck& check : EvaluateHealth(HealthyStats()).checks) {
    names.push_back(check.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "e2e_p99_ms", "shed_ratio", "refused_ratio",
                       "expired_ratio", "locate_error_ratio"}));
}

TEST(EvaluateHealth, WarmingUpIsHealthyDespiteBadRatios) {
  ServiceHealthStats stats = HealthyStats();
  stats.counters.completed_rounds = 10;  // below min_rounds
  stats.counters.localized_rounds = 10;
  stats.counters.shed_rounds = 5;  // 50% shed would fail when warm
  const HealthReport report = EvaluateHealth(stats);
  EXPECT_TRUE(report.healthy);
  EXPECT_TRUE(report.warming_up);
}

TEST(EvaluateHealth, DegradedOnWindowP99) {
  ServiceHealthStats stats = HealthyStats();
  stats.window_p99_us = 400'000.0;  // 400 ms > 250 ms budget
  const HealthReport report = EvaluateHealth(stats);
  EXPECT_FALSE(report.healthy);
  bool found = false;
  for (const HealthCheck& check : report.checks) {
    if (check.name == "e2e_p99_ms") {
      EXPECT_FALSE(check.ok);
      EXPECT_DOUBLE_EQ(check.value, 400.0);
      found = true;
    } else {
      EXPECT_TRUE(check.ok) << check.name;
    }
  }
  EXPECT_TRUE(found);
}

TEST(EvaluateHealth, DegradedOnShedRatio) {
  ServiceHealthStats stats = HealthyStats();
  stats.counters.shed_rounds = 100;  // 10% of completed > 1% budget
  const HealthReport report = EvaluateHealth(stats);
  EXPECT_FALSE(report.healthy);
  bool found = false;
  for (const HealthCheck& check : report.checks) {
    if (check.name == "shed_ratio") {
      EXPECT_FALSE(check.ok);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(EvaluateHealth, DegradedOnLocateErrorRatio) {
  ServiceHealthStats stats = HealthyStats();
  stats.counters.locate_errors = 20;  // 2% of completed > 1% budget
  const HealthReport report = EvaluateHealth(stats);
  EXPECT_FALSE(report.healthy);
  bool found = false;
  for (const HealthCheck& check : report.checks) {
    if (check.name == "locate_error_ratio") {
      EXPECT_FALSE(check.ok);
      EXPECT_DOUBLE_EQ(check.value, 0.02);
      found = true;
    } else {
      EXPECT_TRUE(check.ok) << check.name;
    }
  }
  EXPECT_TRUE(found);
}

TEST(EvaluateHealth, ServiceThatOnlyFailsIsNotWarmingUp) {
  // Every Locate threw: nothing was delivered, but the rounds the engine
  // dropped end the warm-up, so the verdict is degraded rather than warming.
  ServiceHealthStats stats = HealthyStats();
  stats.counters.localized_rounds = 0;
  stats.counters.locate_errors = stats.counters.completed_rounds;
  const HealthReport report = EvaluateHealth(stats);
  EXPECT_FALSE(report.warming_up);
  EXPECT_EQ(report.rounds_observed, 1000u);
  EXPECT_FALSE(report.healthy);
}

TEST(EvaluateHealth, ReportJsonCarriesVerdictAndChecks) {
  std::ostringstream os;
  EvaluateHealth(HealthyStats()).WriteJson(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"healthy\": true"), std::string::npos);
  EXPECT_NE(json.find("\"warming_up\": false"), std::string::npos);
  EXPECT_NE(json.find("\"checks\": ["), std::string::npos);
  EXPECT_NE(json.find("\"e2e_p99_ms\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// AdminServer endpoints (raw TCP client, ephemeral port)

TEST(AdminServer, HealthzDetachedReportsNoService) {
  AdminServer admin;
  const std::string response = HttpGet(admin.port(), "/healthz");
  EXPECT_EQ(HttpStatus(response), 200);
  EXPECT_NE(HttpBody(response).find("\"service_attached\": false"),
            std::string::npos);
}

TEST(AdminServer, ReportEndpointServesRunReportJson) {
  AdminServer admin;
  const std::string response = HttpGet(admin.port(), "/report");
  EXPECT_EQ(HttpStatus(response), 200);
  const std::string body = HttpBody(response);
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(body.front(), '{');
}

TEST(AdminServer, UnknownPathIs404) {
  AdminServer admin;
  EXPECT_EQ(HttpStatus(HttpGet(admin.port(), "/nope")), 404);
}

TEST(AdminServer, MetricsExpositionIsCleanLineProtocol) {
  obs::GetCounter("test.admin.metrics.marker").Inc(11);
  AdminServer admin;
  const std::string response = HttpGet(admin.port(), "/metrics");
  ASSERT_EQ(HttpStatus(response), 200);
  EXPECT_NE(response.find("Content-Type: text/plain"), std::string::npos);

  std::vector<std::string> malformed;
  const std::vector<PromSample> samples =
      ParsePrometheus(HttpBody(response), &malformed);
  EXPECT_TRUE(malformed.empty())
      << "first malformed line: " << malformed.front();
  for (const PromSample& sample : samples) {
    ASSERT_FALSE(sample.name.empty());
    // Prometheus series names: [a-zA-Z_:][a-zA-Z0-9_:]*
    EXPECT_FALSE(std::isdigit(static_cast<unsigned char>(sample.name[0])))
        << sample.name;
    for (const char c : sample.name) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                  c == '_' || c == ':')
          << sample.name;
    }
  }
  const PromSample* marker =
      FindSample(samples, "bloc_test_admin_metrics_marker");
  ASSERT_NE(marker, nullptr);
  EXPECT_GE(marker->value, 11.0);
}

TEST(AdminServer, MetricsHistogramBucketsCumulativeWithCountTerminal) {
  obs::Histogram& hist = obs::GetHistogram("test.admin.metrics.hist");
  hist.Record(3);
  hist.Record(700);
  AdminServer admin;
  const std::vector<PromSample> samples =
      ParsePrometheus(HttpBody(HttpGet(admin.port(), "/metrics")));

  double prev = -1.0;
  double last_le = -1.0;
  const PromSample* inf_bucket = nullptr;
  for (const PromSample& s : samples) {
    if (s.name != "bloc_test_admin_metrics_hist_bucket") continue;
    const auto le = s.labels.find("le");
    ASSERT_NE(le, s.labels.end());
    EXPECT_GE(s.value, prev);  // cumulative within one exposition
    prev = s.value;
    if (le->second == "+Inf") {
      inf_bucket = &s;
    } else {
      const double bound = std::stod(le->second);
      EXPECT_GT(bound, last_le);  // le bounds strictly increasing
      last_le = bound;
    }
  }
  ASSERT_NE(inf_bucket, nullptr);
  const PromSample* count =
      FindSample(samples, "bloc_test_admin_metrics_hist_count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(inf_bucket->value, count->value);  // +Inf terminal == _count
  EXPECT_GE(count->value, 2.0);
}

TEST(AdminServer, CountersNonDecreasingAcrossScrapes) {
  obs::Counter& counter = obs::GetCounter("test.admin.metrics.increasing");
  counter.Inc();
  AdminServer admin;
  const std::vector<PromSample> first =
      ParsePrometheus(HttpBody(HttpGet(admin.port(), "/metrics")));
  counter.Inc(5);
  const std::vector<PromSample> second =
      ParsePrometheus(HttpBody(HttpGet(admin.port(), "/metrics")));
  const PromSample* a =
      FindSample(first, "bloc_test_admin_metrics_increasing");
  const PromSample* b =
      FindSample(second, "bloc_test_admin_metrics_increasing");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->value, a->value + 5.0);
}

// ---------------------------------------------------------------------------
// AdminServer against a live LocalizationService

/// Small seeded workload, generated once (same pattern as test_serve.cc).
const sim::Dataset& Rounds() {
  static const sim::Dataset dataset = [] {
    sim::DatasetOptions options;
    options.locations = 4;
    return sim::GenerateDataset(sim::PaperTestbed(11), options);
  }();
  return dataset;
}

TEST(AdminServer, AttachedServiceExposesWindowSeriesAndHealth) {
  LocalizationService service(Rounds().deployment,
                              sim::PaperLocalizerConfig(Rounds()), {});
  std::atomic<std::uint64_t> updates{0};
  service.SetUpdateCallback(
      [&](const PositionUpdate&) { updates.fetch_add(1); });
  service.Start();

  AdminServer admin;
  admin.Attach(&service);

  // Replay two dataset rounds as two tags; retry refused pushes.
  for (std::uint64_t tag = 0; tag < 2; ++tag) {
    for (const auto& report : Rounds().rounds[tag].reports) {
      anchor::CsiReport frame = report;
      frame.round_id = 0;
      while (!service.Ingest(tag, frame)) std::this_thread::yield();
    }
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (updates.load() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(updates.load(), 2u);

  // The window series come from HealthStats (not the metrics registry),
  // unlabelled, once a service is attached: two delivered rounds put a
  // positive latency in both quantiles.
  const std::string metrics = HttpBody(HttpGet(admin.port(), "/metrics"));
  const std::vector<PromSample> samples = ParsePrometheus(metrics);
  for (const char* name :
       {"bloc_serve_window_p50_us", "bloc_serve_window_p99_us"}) {
    const PromSample* sample = FindSample(samples, name);
    ASSERT_NE(sample, nullptr) << name;
    EXPECT_TRUE(sample->labels.empty()) << name;
    EXPECT_GT(sample->value, 0.0) << name;
  }

  // Two delivered rounds is far below min_rounds: healthy, warming up.
  const std::string health = HttpGet(admin.port(), "/healthz");
  EXPECT_EQ(HttpStatus(health), 200);
  EXPECT_NE(HttpBody(health).find("\"healthy\": true"), std::string::npos);
  EXPECT_NE(HttpBody(health).find("\"warming_up\": true"),
            std::string::npos);

  admin.Attach(nullptr);
  const std::string detached = HttpGet(admin.port(), "/healthz");
  EXPECT_NE(HttpBody(detached).find("\"service_attached\": false"),
            std::string::npos);
  service.Stop();
}

TEST(AdminServer, StopUnblocksAndFurtherScrapesFail) {
  AdminServer admin;
  const std::uint16_t port = admin.port();
  EXPECT_EQ(HttpStatus(HttpGet(port, "/healthz")), 200);
  admin.Stop();
  EXPECT_EQ(HttpStatus(HttpGet(port, "/healthz")), 0);
}

}  // namespace
}  // namespace bloc::serve
