#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "bloc/engine.h"
#include "bloc/localizer.h"
#include "bloc/steering_plan.h"
#include "dsp/thread_pool.h"
#include "sim/experiment.h"
#include "sim/scenario.h"

namespace bloc::core {
namespace {

/// A shared paper-testbed dataset (built once — measurement synthesis is the
/// expensive part of this suite).
struct TestbedFixture {
  sim::Dataset dataset;

  TestbedFixture() {
    sim::DatasetOptions options;
    options.locations = 6;
    dataset = sim::GenerateDataset(sim::PaperTestbed(1), options);
  }
};

const TestbedFixture& Fig9() {
  static const TestbedFixture fixture;
  return fixture;
}

LocalizerConfig ExhaustiveConfig(const sim::Dataset& dataset) {
  return sim::PaperLocalizerConfig(dataset);
}

LocalizerConfig CoarseConfig(const sim::Dataset& dataset) {
  LocalizerConfig config = sim::PaperLocalizerConfig(dataset);
  config.spectra.search.mode = SearchMode::kCoarseToFine;
  return config;
}

void ExpectSamePosition(const LocationResult& a, const LocationResult& b) {
  EXPECT_EQ(a.position.x, b.position.x);
  EXPECT_EQ(a.position.y, b.position.y);
  EXPECT_EQ(a.score, b.score);
}

/// Every anchor map of the round in `ws` is the full map's cells divided by
/// their maximum over the round's window (zero outside), and the fused map
/// is their sum in anchor-id order — bit for bit.
void ExpectWindowedMaps(const Localizer& localizer, LocalizerWorkspace& ws) {
  const CellWindow& w = ws.search.window;
  const dsp::GridSpec& grid = localizer.config().grid;
  const auto inside = [&](std::size_t col, std::size_t row) {
    return col >= w.col0 && col < w.col1 && row >= w.row0 && row < w.row1;
  };
  dsp::Grid2D expected_fused(grid);
  SpectraWorkspace sws;
  dsp::Grid2D full(grid);
  for (std::size_t i = 0; i < ws.fuse_order.size(); ++i) {
    const SpectraInput input =
        localizer.SpectraInputFor(ws.corrected, ws.fuse_order[i]);
    if (localizer.config().spectra.kernel == LikelihoodKernel::kReference) {
      JointLikelihoodMapInto(input, full, sws);
    } else {
      const auto plan = localizer.plan_cache().GetOrBuild(input, grid, 2.0e6);
      JointLikelihoodMapInto(input, *plan, full, sws);
    }
    double m = 0.0;
    for (std::size_t row = w.row0; row < w.row1; ++row) {
      for (std::size_t col = w.col0; col < w.col1; ++col) {
        m = std::max(m, full.At(col, row));
      }
    }
    ASSERT_GT(m, 0.0);
    const dsp::Grid2D& map = ws.anchor_maps[i];
    for (std::size_t row = 0; row < grid.Rows(); ++row) {
      for (std::size_t col = 0; col < grid.Cols(); ++col) {
        const double want = inside(col, row) ? full.At(col, row) / m : 0.0;
        ASSERT_EQ(map.At(col, row), want)
            << "anchor slot " << i << " cell (" << col << ", " << row << ")";
        expected_fused.At(col, row) += want;
      }
    }
  }
  EXPECT_EQ(ws.fused->data(), expected_fused.data());
  EXPECT_EQ(ws.search.stats.cells_evaluated,
            w.cells() * ws.fuse_order.size());
}

TEST(Search, SpansBitIdenticalToFullMap) {
  const LocalizerConfig config = ExhaustiveConfig(Fig9().dataset);
  const Localizer localizer(Fig9().dataset.deployment, config);
  const CorrectedChannels corrected =
      localizer.CorrectedFor(Fig9().dataset.rounds[0]);
  const SpectraInput input = localizer.SpectraInputFor(corrected, 0);
  const auto plan =
      localizer.plan_cache().GetOrBuild(input, config.grid, 2.0e6);

  SpectraWorkspace sws;
  dsp::Grid2D full(config.grid);
  JointLikelihoodMapInto(input, *plan, full, sws);

  // Spans at awkward offsets, including one that wraps a row boundary (the
  // gap-merged survivor runs do this routinely).
  const auto cols = static_cast<std::uint32_t>(config.grid.Cols());
  const std::vector<CellSpan> spans = {
      {0, 1},
      {5, 7},
      {cols - 3, 9},  // wraps into the second row
      {3 * cols + 1, 2 * cols},
  };
  std::size_t total = 0;
  for (const CellSpan& s : spans) total += s.length;
  std::vector<double> out(total);
  BandTable table;
  BuildBandTable(input, *plan, table, sws);
  JointLikelihoodSpansInto(*plan, table, spans, out.data());

  std::size_t off = 0;
  for (const CellSpan& s : spans) {
    for (std::uint32_t t = 0; t < s.length; ++t) {
      ASSERT_EQ(out[off + t], full.data()[s.begin + t])
          << "span begin=" << s.begin << " t=" << t;
    }
    off += s.length;
  }
}

TEST(Search, CoarsePositionsBitIdenticalToExhaustive) {
  // Ungated, kCoarseToFine is the exhaustive path: same map, same fix.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    sim::DatasetOptions options;
    options.locations = 4;
    const sim::Dataset dataset =
        sim::GenerateDataset(sim::PaperTestbed(seed), options);
    LocalizerConfig exhaustive_config = ExhaustiveConfig(dataset);
    exhaustive_config.keep_map = true;
    LocalizerConfig coarse_config = CoarseConfig(dataset);
    coarse_config.keep_map = true;
    const Localizer exhaustive(dataset.deployment, exhaustive_config);
    const Localizer coarse(dataset.deployment, coarse_config);

    LocalizerWorkspace ews, cws;
    for (const auto& round : dataset.rounds) {
      const LocationResult want = exhaustive.Locate(round, ews);
      const LocationResult got = coarse.Locate(round, cws);
      ExpectSamePosition(got, want);
      ASSERT_NE(got.fused_map, nullptr);
      EXPECT_EQ(got.fused_map->data(), want.fused_map->data())
          << "seed " << seed;
      EXPECT_EQ(cws.search.stats.cells_evaluated,
                ews.search.stats.cells_evaluated);
      EXPECT_FALSE(cws.search.stats.gated);
    }
  }
}

TEST(Search, FullGridGateIsBitIdenticalToUngated) {
  LocalizerConfig config = CoarseConfig(Fig9().dataset);
  config.keep_map = true;
  const Localizer localizer(Fig9().dataset.deployment, config);
  const dsp::GridSpec& grid = config.grid;
  // A gate that covers the room, and one that covers it only once the
  // scoring halo is added.
  const double halo_m =
      static_cast<double>(std::max(config.scoring.entropy_window_radius,
                                   config.scoring.peaks.neighborhood_radius)) *
      grid.resolution;
  const geom::Vec2 center{0.5 * (grid.x_min + grid.x_max),
                          0.5 * (grid.y_min + grid.y_max)};
  const double half = 0.5 * std::max(grid.x_max - grid.x_min,
                                     grid.y_max - grid.y_min);
  for (const double radius : {100.0, half - halo_m + 1e-9}) {
    for (const auto& round : Fig9().dataset.rounds) {
      const LocationResult ungated = localizer.Locate(round);
      LocalizerWorkspace ws;
      ws.gate = {true, center, radius};
      const LocationResult gated = localizer.Locate(round, ws);
      ExpectSamePosition(gated, ungated);
      EXPECT_EQ(gated.fused_map->data(), ungated.fused_map->data());
      EXPECT_FALSE(ws.search.stats.gated);
      EXPECT_FALSE(ws.search.stats.gate_missed);
      EXPECT_EQ(ws.search.window, CellWindow::Full(grid));
    }
  }
}

TEST(Search, GatedWindowIsFullMapOverWindowMax) {
  for (const LikelihoodKernel kernel :
       {LikelihoodKernel::kSteeringPlan, LikelihoodKernel::kReference}) {
    LocalizerConfig config = CoarseConfig(Fig9().dataset);
    config.spectra.kernel = kernel;
    const Localizer localizer(Fig9().dataset.deployment, config);
    for (const auto& round : Fig9().dataset.rounds) {
      LocalizerWorkspace ws;
      ws.gate = {true, localizer.Locate(round).position, 0.6};
      localizer.Locate(round, ws);
      ASSERT_TRUE(ws.search.stats.gated);
      EXPECT_FALSE(ws.search.stats.gate_missed);
      EXPECT_LT(ws.search.window.cells(),
                CellWindow::Full(config.grid).cells());
      ExpectWindowedMaps(localizer, ws);
    }
  }
}

TEST(Search, GateClippedByGridEdge) {
  const LocalizerConfig config = CoarseConfig(Fig9().dataset);
  const Localizer localizer(Fig9().dataset.deployment, config);
  const dsp::GridSpec& grid = config.grid;
  ASSERT_EQ(grid.resolution, 0.075);
  const std::size_t halo =
      std::max(config.scoring.entropy_window_radius,
               config.scoring.peaks.neighborhood_radius);
  const net::MeasurementRound& round = Fig9().dataset.rounds[0];

  // Low corner, the gate hanging 0.2 m off the grid on both axes: it reaches
  // 0.33 m = 4.4 cells in, so the window is cells [0, 4] plus the halo.
  LocalizerWorkspace low;
  low.gate = {true, {grid.x_min - 0.2, grid.y_min - 0.2}, 0.53};
  localizer.Locate(round, low);
  ASSERT_TRUE(low.search.stats.gated);
  EXPECT_EQ(low.search.window, (CellWindow{0, 5 + halo, 0, 5 + halo}));
  ExpectWindowedMaps(localizer, low);

  // High corner, centered on the last cell: 0.53 m = 7.07 cells back, so
  // the window starts 8 cells plus the halo before the last one.
  const std::size_t cols = grid.Cols(), rows = grid.Rows();
  LocalizerWorkspace high;
  high.gate = {true, {grid.XOf(cols - 1), grid.YOf(rows - 1)}, 0.53};
  localizer.Locate(round, high);
  ASSERT_TRUE(high.search.stats.gated);
  EXPECT_EQ(high.search.window,
            (CellWindow{cols - 9 - halo, cols, rows - 9 - halo, rows}));
  ExpectWindowedMaps(localizer, high);
}

TEST(Search, AnchorWithoutMassInWindowIsAMiss) {
  const LocalizerConfig config = CoarseConfig(Fig9().dataset);
  const Localizer localizer(Fig9().dataset.deployment, config);
  // One anchor reports an all-zero channel: its map has no positive value
  // anywhere, so the gate misses and the round runs over the whole grid.
  CorrectedChannels corrected =
      localizer.CorrectedFor(Fig9().dataset.rounds[0]);
  for (dsp::CVec& antenna : corrected.anchors[1].alpha) {
    std::fill(antenna.begin(), antenna.end(), dsp::cplx{});
  }
  LocalizerWorkspace ungated;
  ungated.corrected = corrected;
  localizer.FusedMapInto(ungated);

  LocalizerWorkspace ws;
  ws.corrected = corrected;
  ws.gate = {true, {3.0, 2.5}, 0.6};
  localizer.FusedMapInto(ws);
  EXPECT_TRUE(ws.search.stats.gate_missed);
  EXPECT_FALSE(ws.search.stats.gated);
  EXPECT_EQ(ws.search.window, CellWindow::Full(config.grid));
  EXPECT_EQ(ws.fused->data(), ungated.fused->data());
  // The window pass and the whole-grid re-run both count.
  EXPECT_GT(ws.search.stats.cells_evaluated,
            ungated.search.stats.cells_evaluated);
}

TEST(Search, GatedPoolLocateBitIdenticalToSerial) {
  LocalizerConfig config = CoarseConfig(Fig9().dataset);
  config.keep_map = true;
  const Localizer localizer(Fig9().dataset.deployment, config);
  dsp::ThreadPool pool(4);
  for (const auto& round : Fig9().dataset.rounds) {
    const LocationResult ungated = localizer.Locate(round);
    const SearchGate gate{true, ungated.position + geom::Vec2{0.3, -0.2},
                          0.8};
    LocalizerWorkspace serial_ws, pool_ws;
    serial_ws.gate = gate;
    pool_ws.gate = gate;
    const LocationResult serial = localizer.Locate(round, serial_ws);
    const LocationResult pooled = localizer.Locate(round, pool_ws, &pool);
    ASSERT_TRUE(pool_ws.search.stats.gated);
    ExpectSamePosition(pooled, serial);
    EXPECT_EQ(pooled.fused_map->data(), serial.fused_map->data());
    EXPECT_EQ(pool_ws.search.stats.cells_evaluated,
              serial_ws.search.stats.cells_evaluated);
  }
}

TEST(Search, EngineCoarseMatchesSerialExhaustive) {
  const Localizer exhaustive(Fig9().dataset.deployment,
                             ExhaustiveConfig(Fig9().dataset));
  LocalizationEngine engine(Fig9().dataset.deployment,
                            CoarseConfig(Fig9().dataset), {.threads = 4});
  for (const auto& round : Fig9().dataset.rounds) {
    ExpectSamePosition(engine.Locate(round), exhaustive.Locate(round));
  }
}

}  // namespace
}  // namespace bloc::core
