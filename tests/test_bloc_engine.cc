#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "bloc/engine.h"
#include "sim/experiment.h"

namespace bloc::core {
namespace {

/// 20 seeded measurement rounds on the paper testbed, generated once.
const sim::Dataset& Rounds() {
  static const sim::Dataset dataset = [] {
    sim::DatasetOptions options;
    options.locations = 20;
    return sim::GenerateDataset(sim::PaperTestbed(7), options);
  }();
  return dataset;
}

LocalizerConfig Config() { return sim::PaperLocalizerConfig(Rounds()); }

/// Bit-identical comparison: no tolerances anywhere.
void ExpectIdentical(const LocationResult& a, const LocationResult& b) {
  EXPECT_EQ(a.position.x, b.position.x);
  EXPECT_EQ(a.position.y, b.position.y);
  EXPECT_EQ(a.score, b.score);
  EXPECT_EQ(a.bands_used, b.bands_used);
  EXPECT_EQ(a.anchors_used, b.anchors_used);
  ASSERT_EQ(a.peaks.size(), b.peaks.size());
  for (std::size_t i = 0; i < a.peaks.size(); ++i) {
    EXPECT_EQ(a.peaks[i].score, b.peaks[i].score);
    EXPECT_EQ(a.peaks[i].entropy, b.peaks[i].entropy);
    EXPECT_EQ(a.peaks[i].sum_distance, b.peaks[i].sum_distance);
    EXPECT_EQ(a.peaks[i].peak.x, b.peaks[i].peak.x);
    EXPECT_EQ(a.peaks[i].peak.y, b.peaks[i].peak.y);
  }
}

TEST(LocalizationEngine, ThreadCountsAreBitIdenticalToSerial) {
  const Localizer serial(Rounds().deployment, Config());
  LocalizationEngine one(Rounds().deployment, Config(), {.threads = 1});
  LocalizationEngine four(Rounds().deployment, Config(), {.threads = 4});

  const auto batch_one = one.LocateBatch(Rounds().rounds);
  const auto batch_four = four.LocateBatch(Rounds().rounds);
  ASSERT_EQ(batch_one.size(), Rounds().rounds.size());
  ASSERT_EQ(batch_four.size(), Rounds().rounds.size());
  for (std::size_t i = 0; i < Rounds().rounds.size(); ++i) {
    const LocationResult legacy = serial.Locate(Rounds().rounds[i]);
    ExpectIdentical(batch_one[i], legacy);
    ExpectIdentical(batch_four[i], legacy);
  }
}

TEST(LocalizationEngine, PerAnchorParallelLocateMatchesSerial) {
  const Localizer serial(Rounds().deployment, Config());
  LocalizationEngine four(Rounds().deployment, Config(), {.threads = 4});
  // A one-round batch fans that round's maps out over the pool.
  for (std::size_t i = 0; i < 4; ++i) {
    const auto results =
        four.LocateBatch(std::span(Rounds().rounds).subspan(i, 1));
    ASSERT_EQ(results.size(), 1u);
    ExpectIdentical(results[0], serial.Locate(Rounds().rounds[i]));
  }
}

TEST(LocalizationEngine, BatchSmallerThanPoolFansOutBitIdentical) {
  const Localizer serial(Rounds().deployment, Config());
  LocalizationEngine four(Rounds().deployment, Config(), {.threads = 4});
  // Two rounds on four threads: each round's maps fan out over the pool.
  const auto results = four.LocateBatch(std::span(Rounds().rounds).first(2));
  ASSERT_EQ(results.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    ExpectIdentical(results[i], serial.Locate(Rounds().rounds[i]));
  }
}

/// Records LocateAsync completions; declare it before the engine so it
/// outlives the workers that run `on_done`.
class Completions {
 public:
  std::function<void(std::exception_ptr)> OnDone() {
    return [this](std::exception_ptr error) {
      std::lock_guard lock(mutex_);
      errors_.push_back(error);
      cv_.notify_all();
    };
  }
  /// Waits until `n` rounds completed; returns their errors in completion
  /// order (nullptr for a round that localized).
  std::vector<std::exception_ptr> WaitFor(std::size_t n) {
    std::unique_lock lock(mutex_);
    EXPECT_TRUE(cv_.wait_for(lock, std::chrono::seconds(30),
                             [&] { return errors_.size() >= n; }));
    return errors_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::exception_ptr> errors_;
};

TEST(LocalizationEngine, LocateAsyncFansOutBitIdenticalToSerial) {
  const Localizer serial(Rounds().deployment, Config());
  const std::size_t n = Rounds().rounds.size();
  std::vector<LocationResult> results(n);
  Completions completions;
  LocalizationEngine four(Rounds().deployment, Config(), {.threads = 4});
  // One round alone fans its maps out over idle workers.
  four.LocateAsync(Rounds().rounds[0], results[0], completions.OnDone());
  completions.WaitFor(1);
  // Then every round at once saturates the pool, so most rounds compute
  // their own maps, and a batch on the same engine runs alongside them:
  // each round's workspace belongs to the thread that executes it.
  for (std::size_t i = 1; i < n; ++i) {
    four.LocateAsync(Rounds().rounds[i], results[i], completions.OnDone());
  }
  const std::vector<LocationResult> batch = four.LocateBatch(Rounds().rounds);
  const std::vector<std::exception_ptr> errors = completions.WaitFor(n);
  ASSERT_EQ(errors.size(), n);
  ASSERT_EQ(batch.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(errors[i], nullptr);
    const LocationResult reference = serial.Locate(Rounds().rounds[i]);
    ExpectIdentical(results[i], reference);
    ExpectIdentical(batch[i], reference);
  }
}

TEST(LocalizationEngine, LocateAsyncHandsLocateErrorsToOnDone) {
  net::MeasurementRound bad = Rounds().rounds[0];
  const std::size_t victim = bad.reports[0].is_master ? 1 : 0;
  bad.reports[victim].bands.back().tag_csi.pop_back();  // truncated CSI
  const LocationResult reference =
      Localizer(Rounds().deployment, Config()).Locate(Rounds().rounds[1]);
  // An inline pool runs the round before LocateAsync returns; a real pool
  // runs it on a worker.
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    Completions completions;
    LocalizationEngine engine(Rounds().deployment, Config(),
                              {.threads = threads});
    LocationResult out;
    engine.LocateAsync(bad, out, completions.OnDone());
    const std::exception_ptr error = completions.WaitFor(1)[0];
    ASSERT_NE(error, nullptr);
    EXPECT_ANY_THROW(std::rethrow_exception(error));
    // The engine keeps serving.
    LocationResult ok;
    engine.LocateAsync(Rounds().rounds[1], ok, completions.OnDone());
    EXPECT_EQ(completions.WaitFor(2)[1], nullptr);
    ExpectIdentical(ok, reference);
  }
}

TEST(LocalizationEngine, WorkspaceReuseDoesNotLeakStateAcrossRounds) {
  const Localizer localizer(Rounds().deployment, Config());
  LocalizerWorkspace ws;
  const LocationResult fresh = localizer.Locate(Rounds().rounds[0]);
  // Run other rounds through the same workspace, then round 0 again: the
  // result must not depend on what the buffers held before.
  for (std::size_t i = 0; i < 5; ++i) {
    localizer.Locate(Rounds().rounds[i], ws);
  }
  ExpectIdentical(localizer.Locate(Rounds().rounds[0], ws), fresh);
}

TEST(LocalizationEngine, EvaluateBlocIsThreadCountInvariant) {
  const auto serial = sim::EvaluateBloc(Rounds(), Config(), 1);
  const auto threaded = sim::EvaluateBloc(Rounds(), Config(), 4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], threaded[i]);
  }
}

TEST(LocalizationEngine, EmptyBatch) {
  LocalizationEngine engine(Rounds().deployment, Config(), {.threads = 2});
  EXPECT_TRUE(engine.LocateBatch({}).empty());
}

TEST(LocalizationEngine, KeepMapSurvivesTheEnginePath) {
  LocalizerConfig config = Config();
  config.keep_map = true;
  LocalizationEngine engine(Rounds().deployment, config, {.threads = 2});
  const auto results = engine.LocateBatch(Rounds().rounds);
  for (const LocationResult& r : results) {
    ASSERT_NE(r.fused_map, nullptr);
    EXPECT_GT(r.fused_map->Max(), 0.0);
  }
}

TEST(Localizer, EmptyRoundReturnsSentinel) {
  const Localizer localizer(Rounds().deployment, Config());
  const LocationResult result = localizer.Locate(net::MeasurementRound{});
  EXPECT_EQ(result.score, 0.0);
  EXPECT_EQ(result.anchors_used, 0u);
  EXPECT_EQ(result.bands_used, 0u);
  EXPECT_TRUE(result.peaks.empty());
}

TEST(Localizer, FullyFilteredRoundReturnsSentinel) {
  LocalizerConfig config = Config();
  config.allowed_channels = {77};  // no such data channel: drops every band
  const Localizer localizer(Rounds().deployment, config);
  const LocationResult result = localizer.Locate(Rounds().rounds[0]);
  EXPECT_EQ(result.score, 0.0);
  EXPECT_EQ(result.anchors_used, 0u);
}

TEST(LocalizationEngine, SentinelThroughBatch) {
  LocalizationEngine engine(Rounds().deployment, Config(), {.threads = 2});
  std::vector<net::MeasurementRound> rounds;
  rounds.push_back(Rounds().rounds[0]);
  rounds.emplace_back();  // empty round mid-batch
  rounds.push_back(Rounds().rounds[1]);
  const auto results = engine.LocateBatch(rounds);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_GT(results[0].anchors_used, 0u);
  EXPECT_EQ(results[1].anchors_used, 0u);
  EXPECT_EQ(results[1].score, 0.0);
  EXPECT_GT(results[2].anchors_used, 0u);
}

}  // namespace
}  // namespace bloc::core
