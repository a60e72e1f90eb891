// The map stage's scratch belongs to the executing thread (DESIGN.md §5):
// the calling thread's anchor maps and each map-running thread's kernel
// workspace are reused by every tag and round that thread serves. These
// tests hold the shared-scratch runs bit for bit to runs on fresh threads,
// fresh Localizers and fresh workspaces: many tracked tags interleaved
// round-major on one thread, batches and pooled rounds fanned out over a
// pool, and a workspace that never holds map-stage buffers.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "bloc/engine.h"
#include "bloc/localizer.h"
#include "dsp/thread_pool.h"
#include "sim/experiment.h"
#include "sim/scenario.h"
#include "track/tracked_localizer.h"

namespace bloc::core {
namespace {

constexpr std::size_t kTags = 9;
constexpr std::size_t kRoundsPerTag = 14;
// Dataset round whose zeroed anchor forces a gate miss (tag 0's round 8).
constexpr std::size_t kMissRound = 8;

/// A moving-tag dataset on the paper testbed (waypoint motion), built once.
/// Tag t runs rounds t, t + 1, ... of it, so interleaved tags sit at
/// different places of the trajectory.
const sim::Dataset& MovingRounds() {
  static const sim::Dataset dataset = [] {
    sim::ScenarioConfig scenario = sim::PaperTestbed(7);
    scenario.motion.model = sim::MotionModel::kWaypoint;
    sim::DatasetOptions options;
    options.locations = 24;
    sim::Dataset d = sim::GenerateDataset(scenario, options);
    // One slave of one round reports an all-zero channel: its map has no
    // likelihood inside any gate, so the tag gated on it misses.
    for (anchor::CsiReport& report : d.rounds[kMissRound].reports) {
      if (report.is_master) continue;
      for (anchor::BandMeasurement& band : report.bands) {
        for (dsp::cplx& h : band.tag_csi) h = {};
      }
      break;
    }
    return d;
  }();
  return dataset;
}

LocalizerConfig TagLocalizerConfig(std::size_t tag) {
  LocalizerConfig config = sim::PaperLocalizerConfig(MovingRounds());
  config.spectra.search.mode = SearchMode::kCoarseToFine;
  config.keep_map = true;
  // Two grid shapes, so the thread's maps change shape between tags.
  if (tag % 3 == 2) config.grid.resolution = 0.1;
  return config;
}

/// Gates of different sizes per tag, from the scoring-halo floor up.
track::TrackedLocalizerConfig TagTrackConfig(std::size_t tag) {
  track::TrackedLocalizerConfig config;
  config.min_gate_radius_m = 0.4 + 0.15 * static_cast<double>(tag);
  config.gate_margin_m = 0.1 * static_cast<double>(tag % 4);
  config.gate_sigmas = 1.5 + 0.5 * static_cast<double>(tag % 3);
  return config;
}

void ExpectSameFix(const track::TrackedFix& got, const track::TrackedFix& want,
                   std::size_t tag, std::size_t round) {
  SCOPED_TRACE(testing::Message() << "tag " << tag << " round " << round);
  EXPECT_EQ(got.raw.position.x, want.raw.position.x);
  EXPECT_EQ(got.raw.position.y, want.raw.position.y);
  EXPECT_EQ(got.raw.score, want.raw.score);
  EXPECT_EQ(got.tracked_position.x, want.tracked_position.x);
  EXPECT_EQ(got.tracked_position.y, want.tracked_position.y);
  EXPECT_EQ(got.fix_accepted, want.fix_accepted);
  EXPECT_EQ(got.gated, want.gated);
  EXPECT_EQ(got.gate_missed, want.gate_missed);
  ASSERT_EQ(got.raw.fused_map == nullptr, want.raw.fused_map == nullptr);
  if (got.raw.fused_map != nullptr) {
    EXPECT_EQ(got.raw.fused_map->data(), want.raw.fused_map->data());
  }
}

void ExpectNoMapScratch(const LocalizerWorkspace& ws) {
  EXPECT_TRUE(ws.anchor_maps.empty());
  EXPECT_TRUE(ws.spectra.empty());
}

TEST(ThreadScratch, RoundMajorTagsMatchEachTagAlone) {
  const sim::Dataset& dataset = MovingRounds();
  ASSERT_GE(dataset.rounds.size(), kTags + kRoundsPerTag - 1);

  // Reference: each tag alone, on a fresh thread (fresh thread-owned
  // scratch) with its own Localizer and workspace.
  std::vector<std::vector<track::TrackedFix>> alone(kTags);
  for (std::size_t tag = 0; tag < kTags; ++tag) {
    std::thread([&, tag] {
      const Localizer localizer(dataset.deployment, TagLocalizerConfig(tag));
      track::TrackedLocalizer tracked(localizer, TagTrackConfig(tag));
      LocalizerWorkspace ws;
      for (std::size_t r = 0; r < kRoundsPerTag; ++r) {
        alone[tag].push_back(tracked.Locate(dataset.rounds[tag + r],
                                            dataset.timestamps[tag + r], ws));
      }
    }).join();
  }

  // Shared: one thread, one Localizer per grid shape, one workspace per
  // tag, every tag's round r before any tag's round r + 1.
  const Localizer fine(dataset.deployment, TagLocalizerConfig(0));
  const Localizer coarse(dataset.deployment, TagLocalizerConfig(2));
  std::vector<track::TrackedLocalizer> tracked;
  std::vector<LocalizerWorkspace> workspaces(kTags);
  for (std::size_t tag = 0; tag < kTags; ++tag) {
    tracked.emplace_back(tag % 3 == 2 ? coarse : fine, TagTrackConfig(tag));
  }
  std::size_t gated = 0, missed = 0;
  for (std::size_t r = 0; r < kRoundsPerTag; ++r) {
    for (std::size_t tag = 0; tag < kTags; ++tag) {
      const track::TrackedFix fix = tracked[tag].Locate(
          dataset.rounds[tag + r], dataset.timestamps[tag + r],
          workspaces[tag]);
      ExpectSameFix(fix, alone[tag][r], tag, r);
      ExpectNoMapScratch(workspaces[tag]);
      gated += fix.gated;
      missed += fix.gate_missed;
    }
  }
  // The comparison covers gated rounds and the forced miss.
  EXPECT_TRUE(alone[0][kMissRound].gate_missed);
  EXPECT_GE(missed, 1u);
  EXPECT_GT(gated, kTags * kRoundsPerTag / 2);
}

/// A static fig9 dataset, built once.
const sim::Dataset& StaticRounds() {
  static const sim::Dataset dataset = [] {
    sim::DatasetOptions options;
    options.locations = 10;
    return sim::GenerateDataset(sim::PaperTestbed(1), options);
  }();
  return dataset;
}

LocalizerConfig KeepMapConfig() {
  LocalizerConfig config = sim::PaperLocalizerConfig(StaticRounds());
  config.keep_map = true;
  return config;
}

void ExpectSameResult(const LocationResult& got, const LocationResult& want,
                      std::size_t round) {
  SCOPED_TRACE(testing::Message() << "round " << round);
  EXPECT_EQ(got.position.x, want.position.x);
  EXPECT_EQ(got.position.y, want.position.y);
  EXPECT_EQ(got.score, want.score);
  ASSERT_NE(got.fused_map, nullptr);
  ASSERT_NE(want.fused_map, nullptr);
  EXPECT_EQ(got.fused_map->data(), want.fused_map->data());
}

/// Serial Locate of every round, each on a fresh thread and workspace.
std::vector<LocationResult> SerialAlone(const LocalizerConfig& config,
                                        const std::vector<SearchGate>& gates) {
  const sim::Dataset& dataset = StaticRounds();
  std::vector<LocationResult> out(dataset.rounds.size());
  for (std::size_t i = 0; i < dataset.rounds.size(); ++i) {
    std::thread([&, i] {
      const Localizer localizer(dataset.deployment, config);
      LocalizerWorkspace ws;
      ws.gate = gates[i];
      out[i] = localizer.Locate(dataset.rounds[i], ws);
    }).join();
  }
  return out;
}

TEST(ThreadScratch, BatchMatchesSerialLocate) {
  const sim::Dataset& dataset = StaticRounds();
  const std::vector<SearchGate> ungated(dataset.rounds.size());
  const std::vector<LocationResult> want =
      SerialAlone(KeepMapConfig(), ungated);
  LocalizationEngine engine(dataset.deployment, KeepMapConfig(),
                            {.threads = 4});
  // More rounds than workers, so workers move between rounds; a one-round
  // batch fans its maps out over the idle workers.
  for (int pass = 0; pass < 2; ++pass) {
    const std::vector<LocationResult> got =
        engine.LocateBatch(dataset.rounds);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ExpectSameResult(got[i], want[i], i);
    }
    const std::vector<LocationResult> one =
        engine.LocateBatch({dataset.rounds.data() + pass, 1});
    ExpectSameResult(one[0], want[pass], pass);
  }
}

TEST(ThreadScratch, PooledLocateMatchesSerialLocate) {
  const sim::Dataset& dataset = StaticRounds();
  LocalizerConfig config = KeepMapConfig();
  config.spectra.search.mode = SearchMode::kCoarseToFine;
  const Localizer localizer(dataset.deployment, config);
  // Alternate ungated rounds and gates of two sizes around each round's
  // ungated fix.
  std::vector<SearchGate> gates(dataset.rounds.size());
  for (std::size_t i = 0; i < gates.size(); ++i) {
    if (i % 3 == 0) continue;
    const geom::Vec2 center = localizer.Locate(dataset.rounds[i]).position;
    gates[i] = {true, center + geom::Vec2{0.2, -0.1}, i % 3 == 1 ? 0.6 : 1.2};
  }
  const std::vector<LocationResult> want = SerialAlone(config, gates);

  dsp::ThreadPool pool(4);
  LocalizerWorkspace ws;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < dataset.rounds.size(); ++i) {
      ws.gate = gates[i];
      ExpectSameResult(localizer.Locate(dataset.rounds[i], ws, &pool),
                       want[i], i);
      EXPECT_EQ(ws.search.stats.gated, gates[i].active);
      ExpectNoMapScratch(ws);
    }
  }
}

}  // namespace
}  // namespace bloc::core
