// Track-while-localize tests (DESIGN.md §5g): with gating off the
// TrackedLocalizer is a pure post-stage (raw fixes bit-identical to the
// plain Localizer); with gating on the map windows evaluate fewer cells and
// still land on the ungated position for almost every round; and a missed
// gate falls back to the ungated result with the miss recorded.
#include "track/tracked_localizer.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "bloc/localizer.h"
#include "sim/experiment.h"
#include "sim/scenario.h"

namespace bloc::track {
namespace {

/// A moving-tag dataset on the paper testbed (waypoint motion), built once.
const sim::Dataset& MovingRounds() {
  static const sim::Dataset dataset = [] {
    sim::ScenarioConfig scenario = sim::PaperTestbed(5);
    scenario.motion.model = sim::MotionModel::kWaypoint;
    sim::DatasetOptions options;
    options.locations = 30;
    return sim::GenerateDataset(scenario, options);
  }();
  return dataset;
}

core::LocalizerConfig CoarseConfig() {
  core::LocalizerConfig config = sim::PaperLocalizerConfig(MovingRounds());
  config.spectra.search.mode = core::SearchMode::kCoarseToFine;
  return config;
}

TEST(TrackedLocalizer, GateOffRawFixesBitIdenticalToLocalizer) {
  const sim::Dataset& dataset = MovingRounds();
  const core::Localizer localizer(dataset.deployment, CoarseConfig());

  TrackedLocalizerConfig config;
  config.gate_search = false;
  TrackedLocalizer tracked(localizer, config);

  core::LocalizerWorkspace tws, rws;
  for (std::size_t i = 0; i < dataset.rounds.size(); ++i) {
    const TrackedFix fix =
        tracked.Locate(dataset.rounds[i], dataset.timestamps[i], tws);
    const core::LocationResult reference =
        localizer.Locate(dataset.rounds[i], rws);
    EXPECT_EQ(fix.raw.position.x, reference.position.x) << "round " << i;
    EXPECT_EQ(fix.raw.position.y, reference.position.y) << "round " << i;
    EXPECT_EQ(fix.raw.score, reference.score) << "round " << i;
    EXPECT_FALSE(fix.gated);
  }
  EXPECT_EQ(tracked.gated_rounds(), 0u);
}

TEST(TrackedLocalizer, SmoothedTrackFollowsTheTag) {
  const sim::Dataset& dataset = MovingRounds();
  const core::Localizer localizer(dataset.deployment, CoarseConfig());
  TrackedLocalizerConfig config;
  config.gate_search = false;
  TrackedLocalizer tracked(localizer, config);

  core::LocalizerWorkspace ws;
  TrackedFix last;
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < dataset.rounds.size(); ++i) {
    last = tracked.Locate(dataset.rounds[i], dataset.timestamps[i], ws);
    if (last.fix_accepted) ++accepted;
    if (tracked.tracker().initialized()) {
      EXPECT_LT(geom::Distance(last.tracked_position,
                               dataset.truths[i]),
                2.0)
          << "round " << i;
    }
  }
  // Most fixes pass the innovation gate, and the tag (0.8 m/s waypoint
  // motion) leaves a clearly nonzero velocity estimate.
  EXPECT_GT(accepted, dataset.rounds.size() / 2);
  EXPECT_GT(last.velocity.Norm(), 0.05);
  EXPECT_LT(last.velocity.Norm(), 3.0);
}

TEST(TrackedLocalizer, GatedSearchSavesCellsAndKeepsThePosition) {
  const sim::Dataset& dataset = MovingRounds();
  const core::Localizer localizer(dataset.deployment, CoarseConfig());

  const auto run = [&](bool gate, std::vector<geom::Vec2>& raw,
                       std::uint64_t& cells) {
    TrackedLocalizerConfig config;
    config.gate_search = gate;
    TrackedLocalizer tracked(localizer, config);
    core::LocalizerWorkspace ws;
    raw.clear();
    cells = 0;
    std::size_t gated_seen = 0;
    for (std::size_t i = 0; i < dataset.rounds.size(); ++i) {
      const TrackedFix fix =
          tracked.Locate(dataset.rounds[i], dataset.timestamps[i], ws);
      raw.push_back(fix.raw.position);
      cells += ws.search.stats.cells_evaluated;
      if (fix.gated) ++gated_seen;
    }
    EXPECT_EQ(gated_seen, tracked.gated_rounds());
    return tracked.gated_rounds();
  };

  std::vector<geom::Vec2> ungated_raw, gated_raw;
  std::uint64_t ungated_cells = 0, gated_cells = 0;
  run(false, ungated_raw, ungated_cells);
  const std::size_t gated_rounds = run(true, gated_raw, gated_cells);

  // Warmup takes two fixes; after that the gate should engage.
  EXPECT_GE(gated_rounds, dataset.rounds.size() / 2);
  EXPECT_LT(gated_cells, ungated_cells);

  // The gated search restricts WHERE the argmax is looked for, not how any
  // cell is scored — when the gate holds the prediction, the position is
  // the ungated (== exhaustive-parity) one bit for bit. A gate that clips
  // a bad fix is the designed exception, so demand a large majority.
  std::size_t identical = 0;
  for (std::size_t i = 0; i < ungated_raw.size(); ++i) {
    if (gated_raw[i].x == ungated_raw[i].x &&
        gated_raw[i].y == ungated_raw[i].y) {
      ++identical;
    }
  }
  EXPECT_GE(identical * 3, ungated_raw.size() * 2);
}

TEST(TrackedLocalizer, GateMissFallsBackToUngatedResult) {
  const sim::Dataset& dataset = MovingRounds();
  const core::Localizer localizer(dataset.deployment, CoarseConfig());

  core::LocalizerWorkspace ws;
  const core::LocationResult reference = localizer.Locate(dataset.rounds[0], ws);
  ASSERT_FALSE(ws.search.stats.gated);

  // A gate entirely off the grid, a degenerate (zero-radius) gate, a NaN
  // center and a non-finite radius are all misses: the round runs over the
  // whole grid, bit-identically to the ungated one, and records the miss.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const core::SearchGate misses[] = {
      {true, {-100.0, -100.0}, 0.25},
      {true, reference.position, 0.0},
      {true, {kNaN, reference.position.y}, 0.5},
      {true, {reference.position.x, kNaN}, 0.5},
      {true, reference.position, kInf},
      {true, reference.position, kNaN},
  };
  for (const core::SearchGate& gate : misses) {
    ws.gate = gate;
    const core::LocationResult fell_back =
        localizer.Locate(dataset.rounds[0], ws);
    EXPECT_EQ(fell_back.position.x, reference.position.x);
    EXPECT_EQ(fell_back.position.y, reference.position.y);
    EXPECT_EQ(fell_back.score, reference.score);
    EXPECT_FALSE(ws.search.stats.gated);
    EXPECT_TRUE(ws.search.stats.gate_missed);
  }
}

TEST(TrackedLocalizer, ResetForgetsTheTrack) {
  const sim::Dataset& dataset = MovingRounds();
  const core::Localizer localizer(dataset.deployment, CoarseConfig());
  TrackedLocalizer tracked(localizer);
  core::LocalizerWorkspace ws;
  for (std::size_t i = 0; i < 4; ++i) {
    tracked.Locate(dataset.rounds[i], dataset.timestamps[i], ws);
  }
  ASSERT_TRUE(tracked.tracker().initialized());
  tracked.Reset();
  EXPECT_FALSE(tracked.tracker().initialized());
  // The next round re-initializes from its raw fix, ungated.
  const TrackedFix fix =
      tracked.Locate(dataset.rounds[4], dataset.timestamps[4], ws);
  EXPECT_FALSE(fix.gated);
  EXPECT_EQ(fix.tracked_position.x, fix.raw.position.x);
  EXPECT_EQ(fix.tracked_position.y, fix.raw.position.y);
}

}  // namespace
}  // namespace bloc::track
