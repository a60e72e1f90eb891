#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <random>
#include <span>
#include <thread>
#include <vector>

#include "bloc/engine.h"
#include "bloc/steering_plan.h"
#include "dsp/simd_dispatch.h"
#include "sim/experiment.h"

namespace bloc::core {
namespace {

using dsp::cplx;

/// Randomized scene: geometry, master reference and corrected channels are
/// all drawn from `rng`; `keep_every` thins the band comb (1 = dense).
struct RandomScene {
  anchor::ArrayGeometry geometry;
  geom::Vec2 master_ref;
  double d_i0 = 0.0;
  std::vector<double> freqs;
  AnchorCorrected channels;
  dsp::GridSpec grid;

  SpectraInput Input() const {
    SpectraInput input;
    input.channels = &channels;
    input.geometry = geometry;
    input.master_ref_antenna = master_ref;
    input.master_ref_distance = d_i0;
    input.band_freqs_hz = freqs;
    return input;
  }
};

RandomScene MakeRandomScene(std::mt19937& rng, std::size_t keep_every = 1) {
  std::uniform_real_distribution<double> pos(0.0, 6.0);
  std::uniform_real_distribution<double> angle(0.0, 2.0 * dsp::kPi);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_int_distribution<int> n_ant(2, 6);

  RandomScene s;
  s.geometry.origin = {pos(rng), pos(rng)};
  s.geometry.axis_radians = angle(rng);
  s.geometry.spacing_m = 0.05 + 0.02 * unit(rng);
  s.geometry.num_antennas = static_cast<std::size_t>(n_ant(rng));
  s.master_ref = {pos(rng), pos(rng)};
  s.d_i0 = geom::Distance(s.geometry.AntennaPosition(0), s.master_ref);
  for (std::size_t k = 0; k < 37; k += keep_every) {
    s.freqs.push_back(2.404e9 + 2.0e6 * static_cast<double>(k));
  }
  s.channels.anchor_id = 7;
  for (std::size_t j = 0; j < s.geometry.num_antennas; ++j) {
    dsp::CVec alpha;
    for (std::size_t k = 0; k < s.freqs.size(); ++k) {
      alpha.push_back(cplx{unit(rng), unit(rng)});
    }
    s.channels.alpha.push_back(std::move(alpha));
  }
  s.grid = {0.0, 0.0, 6.0, 5.0, 0.25};
  return s;
}

/// The dispatch variants this CPU can run, scalar first.
std::vector<dsp::simd::Isa> SupportedIsas() {
  std::vector<dsp::simd::Isa> isas;
  for (const dsp::simd::Isa isa : {dsp::simd::Isa::kScalar,
                                   dsp::simd::Isa::kAvx2,
                                   dsp::simd::Isa::kAvx512}) {
    if (dsp::simd::IsaSupported(isa)) isas.push_back(isa);
  }
  return isas;
}

double MaxAbsDiff(const dsp::Grid2D& a, const dsp::Grid2D& b) {
  EXPECT_EQ(a.cols(), b.cols());
  EXPECT_EQ(a.rows(), b.rows());
  double max = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    max = std::max(max, std::abs(a.data()[i] - b.data()[i]));
  }
  return max;
}

/// The steering-plan kernel interpolates a per-round band table (5 cm grid,
/// 4-tap cubic) where the reference kernel walks the comb per cell, so the
/// two agree to a bound relative to each map's peak, not bit for bit.
/// Measured worst cases: 2.5e-7 on the raw random-scene maps below and
/// 2.0e-7 on the fused fig9 maps; the bound leaves a 4x margin.
constexpr double kPeakRelativeBound = 1e-6;

/// max |reference - planned| over the grid, as a fraction of the reference
/// map's peak.
double PeakRelativeDiff(const dsp::Grid2D& reference,
                        const dsp::Grid2D& planned) {
  return MaxAbsDiff(reference, planned) / reference.Max();
}

TEST(SteeringPlanParity, MatchesReferenceKernelOnRandomScenes) {
  std::mt19937 rng(20260806);
  for (int trial = 0; trial < 12; ++trial) {
    // Cycle through dense and gappy (x2 / x4-thinned) combs.
    const std::size_t keep_every = 1 + static_cast<std::size_t>(trial % 3);
    const RandomScene s = MakeRandomScene(rng, keep_every);
    const SpectraInput input = s.Input();

    dsp::Grid2D reference(s.grid);
    SpectraWorkspace ref_ws;
    JointLikelihoodMapInto(input, reference, ref_ws);

    dsp::Grid2D planned(s.grid);
    SpectraWorkspace plan_ws;
    const SteeringPlan plan(MakeSteeringPlanKey(input, s.grid));
    JointLikelihoodMapInto(input, plan, planned, plan_ws);

    EXPECT_LT(PeakRelativeDiff(reference, planned), kPeakRelativeBound)
        << "trial " << trial << " keep_every " << keep_every;
  }
}

TEST(SteeringPlanParity, MaxAntennasRespected) {
  std::mt19937 rng(99);
  RandomScene s = MakeRandomScene(rng);
  SpectraInput input = s.Input();
  input.max_antennas = 2;

  dsp::Grid2D reference(s.grid);
  SpectraWorkspace ref_ws;
  JointLikelihoodMapInto(input, reference, ref_ws);

  dsp::Grid2D planned(s.grid);
  SpectraWorkspace plan_ws;
  const SteeringPlan plan(MakeSteeringPlanKey(input, s.grid));
  EXPECT_EQ(plan.num_antennas(), 2u);
  JointLikelihoodMapInto(input, plan, planned, plan_ws);
  EXPECT_LT(PeakRelativeDiff(reference, planned), kPeakRelativeBound);
}

/// The plan's chunk layout, checked against the geometry: every cell has
/// exactly one lane per antenna, that lane's chunk interval brackets D_j(x)
/// recomputed from the antenna positions (and its offset and base rotor are
/// D_j(x)'s), each antenna's chunks run in ascending interval order, and
/// every padding lane is a zero term that evaluates to zero on every ISA.
TEST(SteeringPlan, ChunkLayoutBracketsRelativeDistance) {
  std::mt19937 rng(5);
  for (const double resolution : {0.25, 0.05}) {
    RandomScene s = MakeRandomScene(rng);
    s.grid.resolution = resolution;
    const SpectraInput input = s.Input();
    const SteeringPlan plan(MakeSteeringPlanKey(input, s.grid));
    const std::size_t cells = plan.num_cells();
    const std::size_t len = plan.table_len();
    constexpr std::size_t kLanes = dsp::simd::kChunkLanes;
    constexpr double h = kBandTableStep;

    // D_j(x) from the geometry, and the table origin the builder derives
    // from its minimum (two entries of margin below it).
    const auto relative = [&](std::size_t cell, std::size_t j) {
      const geom::Vec2 x{s.grid.XOf(cell % s.grid.Cols()),
                         s.grid.YOf(cell / s.grid.Cols())};
      return geom::Distance(x, s.geometry.AntennaPosition(j)) -
             geom::Distance(x, s.master_ref) - s.d_i0;
    };
    double d_min = std::numeric_limits<double>::infinity();
    for (std::size_t cell = 0; cell < cells; ++cell) {
      for (std::size_t j = 0; j < plan.num_antennas(); ++j) {
        d_min = std::min(d_min, relative(cell, j));
      }
    }
    const double d0 = (std::floor(d_min / h) - 2.0) * h;

    SpectraWorkspace ws;
    BandTable table;
    BuildBandTable(input, plan, table, ws);
    for (std::size_t j = 0; j < plan.num_antennas(); ++j) {
      const SteeringPlan::AntennaChunks ch = plan.chunks(j);
      ASSERT_LE(ch.lanes(), plan.max_lanes());
      for (std::size_t k = 0; k < ch.count; ++k) {
        ASSERT_GE(ch.interval[k], j * len + 1) << "antenna " << j;
        ASSERT_LT(ch.interval[k] + 2, (j + 1) * len) << "antenna " << j;
        if (k > 0) {
          ASSERT_GE(ch.interval[k], ch.interval[k - 1]);
        }
      }
      std::vector<bool> used(ch.lanes(), false);
      for (std::size_t cell = 0; cell < cells; ++cell) {
        const std::uint32_t lane = ch.lane[cell];
        ASSERT_LT(lane, ch.lanes()) << "antenna " << j << " cell " << cell;
        ASSERT_FALSE(used[lane]) << "antenna " << j << " lane " << lane;
        used[lane] = true;
        const double d = relative(cell, j);
        const double lo =
            d0 + static_cast<double>(ch.interval[lane / kLanes] - j * len) * h;
        EXPECT_GE(d, lo - 1e-9) << "antenna " << j << " cell " << cell;
        EXPECT_LT(d, lo + h + 1e-9) << "antenna " << j << " cell " << cell;
        EXPECT_NEAR(ch.frac[lane], (d - lo) / h, 1e-9);
        const double phi = 2.0 * dsp::kPi * input.band_freqs_hz.front() * d /
                           dsp::kSpeedOfLight;
        EXPECT_NEAR(ch.base_re[lane], std::cos(phi), 1e-9);
        EXPECT_NEAR(ch.base_im[lane], std::sin(phi), 1e-9);
      }
      std::size_t padding = 0;
      for (std::size_t lane = 0; lane < ch.lanes(); ++lane) {
        if (used[lane]) continue;
        ++padding;
        EXPECT_EQ(ch.frac[lane], 0.0);
        EXPECT_EQ(ch.base_re[lane], 0.0);
        EXPECT_EQ(ch.base_im[lane], 0.0);
      }
      // Padding only tops up each interval's last chunk.
      std::size_t intervals = 0;
      for (std::size_t k = 0; k < ch.count; ++k) {
        intervals += k == 0 || ch.interval[k] != ch.interval[k - 1];
      }
      EXPECT_LE(padding, (kLanes - 1) * intervals) << "antenna " << j;
      for (const dsp::simd::Isa isa : SupportedIsas()) {
        dsp::AlignedVec<double> term(2 * ch.lanes(), 1.0);
        dsp::simd::ForIsa(isa).chunk_terms(table.data(), ch.interval, ch.frac,
                                           ch.base_re, ch.base_im, term.data(),
                                           ch.count);
        for (std::size_t lane = 0; lane < ch.lanes(); ++lane) {
          if (used[lane]) continue;
          ASSERT_EQ(term[2 * lane], 0.0) << dsp::simd::IsaName(isa);
          ASSERT_EQ(term[2 * lane + 1], 0.0) << dsp::simd::IsaName(isa);
        }
      }
    }
  }
}

/// The chunk layout is the whole plan: on the fig9 grid it takes no more
/// memory than the 40 bytes per (cell, antenna) of the cell-major layout it
/// replaced (a 32-byte term plus the stored D field).
TEST(SteeringPlan, Fig9PlanNoLargerThanCellMajorLayout) {
  sim::DatasetOptions options;
  options.locations = 1;
  const sim::Dataset dataset =
      sim::GenerateDataset(sim::PaperTestbed(1), options);
  const Localizer localizer(dataset.deployment,
                            sim::PaperLocalizerConfig(dataset));
  const CorrectedChannels corrected = localizer.CorrectedFor(dataset.rounds[0]);
  ASSERT_FALSE(corrected.anchors.empty());
  for (std::size_t a = 0; a < corrected.anchors.size(); ++a) {
    const SpectraInput input = localizer.SpectraInputFor(corrected, a);
    const SteeringPlan plan(
        MakeSteeringPlanKey(input, localizer.config().grid));
    const std::size_t cell_major =
        plan.num_cells() * plan.num_antennas() * 40 +
        plan.table_len() * 4 * sizeof(double);
    EXPECT_LE(plan.MemoryBytes(), cell_major) << "anchor " << a;
  }
}

/// A workspace shared by several plans grows its kernel scratch to the
/// largest plan's exact need, not to a vector's geometric capacity.
TEST(SteeringPlan, WorkspaceScratchGrowsToTheLargestPlanExactly) {
  sim::DatasetOptions options;
  options.locations = 1;
  const sim::Dataset dataset =
      sim::GenerateDataset(sim::PaperTestbed(1), options);
  const Localizer localizer(dataset.deployment,
                            sim::PaperLocalizerConfig(dataset));
  const CorrectedChannels corrected = localizer.CorrectedFor(dataset.rounds[0]);
  ASSERT_EQ(corrected.anchors.size(), 4u);
  SpectraWorkspace ws;
  dsp::Grid2D map(localizer.config().grid);
  std::size_t largest_terms = 0;
  for (std::size_t a = 0; a < corrected.anchors.size(); ++a) {
    const SpectraInput input = localizer.SpectraInputFor(corrected, a);
    const SteeringPlan plan(
        MakeSteeringPlanKey(input, localizer.config().grid));
    JointLikelihoodMapInto(input, plan, map, ws);
    largest_terms = std::max(largest_terms, 2 * plan.max_lanes());
  }
  EXPECT_EQ(ws.terms.capacity(), largest_terms);
  EXPECT_EQ(ws.acc.re.capacity(), map.data().size());
  EXPECT_EQ(ws.acc.im.capacity(), map.data().size());
}

TEST(SteeringPlan, KernelRejectsMismatchedPlan) {
  std::mt19937 rng(3);
  const RandomScene a = MakeRandomScene(rng);
  const RandomScene b = MakeRandomScene(rng);
  const SteeringPlan plan(MakeSteeringPlanKey(a.Input(), a.grid));
  dsp::Grid2D grid(b.grid);
  SpectraWorkspace ws;
  const SpectraInput mismatched = b.Input();
  EXPECT_THROW(JointLikelihoodMapInto(mismatched, plan, grid, ws),
               std::invalid_argument);
}

TEST(SteeringPlanCache, BuildsOncePerKey) {
  std::mt19937 rng(17);
  const RandomScene s = MakeRandomScene(rng);
  SteeringPlanCache cache;
  const auto key = MakeSteeringPlanKey(s.Input(), s.grid);
  const auto first = cache.GetOrBuild(key);
  const auto second = cache.GetOrBuild(key);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_EQ(cache.lookups(), 2u);

  // The allocation-free lookup path resolves to the same plan.
  const auto third = cache.GetOrBuild(s.Input(), s.grid);
  EXPECT_EQ(first.get(), third.get());
  EXPECT_EQ(cache.builds(), 1u);

  // A different grid is a different key -> second build.
  dsp::GridSpec other = s.grid;
  other.resolution = 0.5;
  cache.GetOrBuild(MakeSteeringPlanKey(s.Input(), other));
  EXPECT_EQ(cache.builds(), 2u);
}

TEST(SteeringPlanCache, ConcurrentLookupsOfOneKeyBuildOnce) {
  std::mt19937 rng(23);
  const RandomScene s = MakeRandomScene(rng);
  SteeringPlanCache cache;
  constexpr std::size_t kThreads = 8;
  std::vector<std::shared_ptr<const SteeringPlan>> plans(kThreads);
  std::atomic<std::size_t> arrived{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ++arrived;
      while (arrived.load() < kThreads) std::this_thread::yield();
      // Both lookup paths share one in-progress entry per key.
      plans[t] = t % 2 == 0
                     ? cache.GetOrBuild(s.Input(), s.grid)
                     : cache.GetOrBuild(MakeSteeringPlanKey(s.Input(), s.grid));
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_EQ(cache.lookups(), kThreads);
  for (const auto& plan : plans) EXPECT_EQ(plan.get(), plans[0].get());
}

TEST(SteeringPlanCache, DistinctKeysBuildConcurrentlyAndCountExactly) {
  std::mt19937 rng(29);
  std::vector<RandomScene> scenes;
  for (int i = 0; i < 4; ++i) scenes.push_back(MakeRandomScene(rng));
  SteeringPlanCache cache;
  std::vector<std::thread> threads;
  for (int round = 0; round < 3; ++round) {
    for (const RandomScene& s : scenes) {
      threads.emplace_back(
          [&cache, &s] { cache.GetOrBuild(s.Input(), s.grid); });
    }
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(cache.builds(), scenes.size());
  EXPECT_EQ(cache.lookups(), 3 * scenes.size());
}

TEST(SteeringPlanCache, FailedBuildRethrowsAndLeavesNoEntry) {
  std::mt19937 rng(31);
  const RandomScene s = MakeRandomScene(rng);
  SteeringPlanKey bad = MakeSteeringPlanKey(s.Input(), s.grid);
  bad.antennas.clear();  // SteeringPlan rejects a key without antennas
  SteeringPlanCache cache;
  EXPECT_THROW(cache.GetOrBuild(bad), std::invalid_argument);
  // No stale in-progress entry: the next lookup builds (and fails) again.
  EXPECT_THROW(cache.GetOrBuild(bad), std::invalid_argument);
  EXPECT_EQ(cache.builds(), 0u);
  EXPECT_EQ(cache.GetOrBuild(s.Input(), s.grid)->num_antennas(),
            s.geometry.num_antennas);
  EXPECT_EQ(cache.builds(), 1u);
}

TEST(SteeringPlanCache, NaNKeyRetiresOnlyItsOwnBuild) {
  // Frames carry their band frequencies unchecked, so a malformed report can
  // give a key whose comb_f0 is NaN — a key unequal to itself. Its build
  // must retire its own in-progress entry, not the build of another key
  // still in flight.
  std::mt19937 rng(37);
  RandomScene nan_scene = MakeRandomScene(rng);
  nan_scene.grid.resolution = 0.1;  // ~3k cells: the shorter build
  SteeringPlanKey nan_key =
      MakeSteeringPlanKey(nan_scene.Input(), nan_scene.grid);
  nan_key.comb_f0 = std::numeric_limits<double>::quiet_NaN();
  RandomScene slow = MakeRandomScene(rng);
  slow.grid.resolution = 0.02;  // ~75k cells: usually still building when
                                // the NaN build retires
  SteeringPlanCache cache;

  // lookups() reads under the cache mutex, and a lookup's count and its
  // in-progress entry are published together, so each wait below returns
  // once that build is registered.
  std::thread nan_builder([&] { cache.GetOrBuild(nan_key); });
  while (cache.lookups() < 1) std::this_thread::yield();
  std::shared_ptr<const SteeringPlan> first;
  std::thread slow_builder(
      [&] { first = cache.GetOrBuild(slow.Input(), slow.grid); });
  while (cache.lookups() < 2) std::this_thread::yield();
  nan_builder.join();
  // The slow key's build is found in flight (or resident): no second build.
  const auto second = cache.GetOrBuild(slow.Input(), slow.grid);
  slow_builder.join();
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.builds(), 2u);
  EXPECT_EQ(cache.GetOrBuild(slow.Input(), slow.grid).get(), first.get());
  EXPECT_EQ(cache.builds(), 2u);
  // A NaN key never hits, so looking it up again builds again.
  cache.GetOrBuild(nan_key);
  EXPECT_EQ(cache.builds(), 3u);
  EXPECT_EQ(cache.lookups(), 5u);
}

/// The acceptance-criteria amortization check: after the first round the
/// cache stops building plans — every later round (serial, engine-parallel
/// and batched) reuses the per-anchor plans.
TEST(SteeringPlanCache, PlanBuildsAmortizedAcrossRounds) {
  sim::DatasetOptions options;
  options.locations = 3;
  const sim::Dataset dataset =
      sim::GenerateDataset(sim::PaperTestbed(1), options);
  LocalizationEngine engine(dataset.deployment,
                            sim::PaperLocalizerConfig(dataset),
                            {.threads = 2});

  const std::span<const net::MeasurementRound> rounds(dataset.rounds);
  const LocationResult first = engine.LocateBatch(rounds.first(1))[0];
  EXPECT_GT(first.anchors_used, 0u);
  const std::size_t builds_after_first = engine.plan_cache().builds();
  EXPECT_EQ(builds_after_first, first.anchors_used);

  engine.LocateBatch(rounds.subspan(1, 1));
  engine.LocateBatch(rounds);
  engine.LocateBatch(rounds.subspan(2, 1));
  EXPECT_EQ(engine.plan_cache().builds(), builds_after_first);
  EXPECT_GT(engine.plan_cache().lookups(), builds_after_first);
}

/// `round` localized with the reference kernel through the Localizer's
/// public stages: correct, fuse order, each anchor's oracle map
/// peak-normalized and added in that order, then scored.
LocationResult ReferenceLocate(const Localizer& localizer,
                               const net::MeasurementRound& round) {
  const CorrectedChannels corrected = localizer.CorrectedFor(round);
  std::vector<std::size_t> order;
  localizer.FuseOrder(corrected, order);
  auto fused = std::make_shared<dsp::Grid2D>(localizer.config().grid);
  dsp::Grid2D map(localizer.config().grid);
  SpectraWorkspace ws;
  for (const std::size_t idx : order) {
    JointLikelihoodMapInto(localizer.SpectraInputFor(corrected, idx), map, ws);
    map.NormalizePeak();
    fused->Add(map);
  }
  return localizer.ScoreFused(std::move(fused), corrected);
}

/// End-to-end equivalence on simulated fig9 rounds: the steering-plan
/// kernel must not move a single localization output relative to the
/// reference, under either search mode. Fused maps agree to the peak-
/// relative bound.
TEST(SteeringPlanParity, LocalizationOutputsUnchanged) {
  for (const std::uint64_t seed : {1u, 2u}) {
    sim::DatasetOptions options;
    options.locations = 64;
    const sim::Dataset dataset =
        sim::GenerateDataset(sim::PaperTestbed(seed), options);

    LocalizerConfig plan_config = sim::PaperLocalizerConfig(dataset);
    plan_config.keep_map = true;
    LocalizerConfig coarse_config = plan_config;
    coarse_config.spectra.search.mode = SearchMode::kCoarseToFine;

    const Localizer planned(dataset.deployment, plan_config);
    const Localizer coarse(dataset.deployment, coarse_config);
    LocalizerWorkspace plan_ws, coarse_ws;
    for (const net::MeasurementRound& round : dataset.rounds) {
      const LocationResult a = ReferenceLocate(planned, round);
      const LocationResult b = planned.Locate(round, plan_ws);
      const LocationResult c = coarse.Locate(round, coarse_ws);
      EXPECT_EQ(a.position.x, b.position.x) << "seed " << seed;
      EXPECT_EQ(a.position.y, b.position.y) << "seed " << seed;
      EXPECT_EQ(a.peaks.size(), b.peaks.size()) << "seed " << seed;
      EXPECT_EQ(a.position.x, c.position.x) << "seed " << seed;
      EXPECT_EQ(a.position.y, c.position.y) << "seed " << seed;
      ASSERT_NE(a.fused_map, nullptr);
      ASSERT_NE(b.fused_map, nullptr);
      EXPECT_LT(PeakRelativeDiff(*a.fused_map, *b.fused_map),
                kPeakRelativeBound)
          << "seed " << seed;
    }
  }
}

/// keep_map now shares the workspace grid with the result instead of deep
/// copying; successive rounds must not overwrite maps already handed out.
TEST(KeepMap, SharedMapSurvivesLaterRounds) {
  sim::DatasetOptions options;
  options.locations = 2;
  const sim::Dataset dataset =
      sim::GenerateDataset(sim::PaperTestbed(1), options);
  LocalizerConfig config = sim::PaperLocalizerConfig(dataset);
  config.keep_map = true;
  const Localizer localizer(dataset.deployment, config);

  LocalizerWorkspace ws;
  const LocationResult first = localizer.Locate(dataset.rounds[0], ws);
  ASSERT_NE(first.fused_map, nullptr);
  const std::vector<double> snapshot = first.fused_map->data();

  const LocationResult second = localizer.Locate(dataset.rounds[1], ws);
  ASSERT_NE(second.fused_map, nullptr);
  EXPECT_NE(first.fused_map.get(), second.fused_map.get());
  EXPECT_EQ(first.fused_map->data(), snapshot);
}

/// Subset evaluation must reproduce the full-grid values bit for bit and
/// write nothing but its own cells: single cells and spans of every length
/// at random offsets, ascending and disjoint.
TEST(SteeringPlan, CellSubsetBitIdenticalToFullMap) {
  std::mt19937 rng(41);
  const RandomScene s = MakeRandomScene(rng);
  const SpectraInput input = s.Input();
  const SteeringPlan plan(MakeSteeringPlanKey(input, s.grid));
  const auto cells = static_cast<std::uint32_t>(plan.num_cells());

  SpectraWorkspace ws;
  dsp::Grid2D full(s.grid);
  JointLikelihoodMapInto(input, plan, full, ws);
  BandTable table;
  BuildBandTable(input, plan, table, ws);

  const auto check = [&](const std::vector<CellSpan>& spans) {
    std::vector<double> out(cells, -1.0);
    JointLikelihoodSpansInto(plan, table, spans, out.data(), ws);
    std::vector<bool> inside(cells, false);
    for (const CellSpan& sp : spans) {
      for (std::uint32_t t = 0; t < sp.length; ++t) inside[sp.begin + t] = true;
    }
    for (std::uint32_t c = 0; c < cells; ++c) {
      ASSERT_EQ(out[c], inside[c] ? full.data()[c] : -1.0) << "cell " << c;
    }
  };

  // 64 distinct single cells.
  std::vector<std::uint32_t> picked(cells);
  std::iota(picked.begin(), picked.end(), 0u);
  std::shuffle(picked.begin(), picked.end(), rng);
  picked.resize(64);
  std::sort(picked.begin(), picked.end());
  std::vector<CellSpan> singles;
  for (const std::uint32_t cell : picked) singles.push_back({cell, 1});
  check(singles);

  // Spans of lengths 1, 4, ..., 40 separated by random gaps (some empty).
  std::vector<CellSpan> spans;
  std::uniform_int_distribution<std::uint32_t> gap(0, 9);
  std::uint32_t next = gap(rng);
  for (std::uint32_t length = 1; length <= 40 && next + length <= cells;
       length += 3) {
    spans.push_back({next, length});
    next += length + gap(rng);
  }
  check(spans);
  check({{0, cells}});

  double scratch = 0.0;
  const std::vector<CellSpan> past_end = {{cells, 1}};
  EXPECT_THROW(JointLikelihoodSpansInto(plan, table, past_end, &scratch, ws),
               std::invalid_argument);
  const std::vector<CellSpan> straddling = {{cells - 1, 2}};
  EXPECT_THROW(
      JointLikelihoodSpansInto(plan, table, straddling, &scratch, ws),
      std::invalid_argument);
  // Each cell's accumulator restarts at the first antenna, so overlapping
  // or descending spans are refused rather than summed twice.
  std::vector<double> out(cells);
  const std::vector<CellSpan> overlapping = {{0, 4}, {3, 2}};
  EXPECT_THROW(
      JointLikelihoodSpansInto(plan, table, overlapping, out.data(), ws),
      std::invalid_argument);
  const std::vector<CellSpan> descending = {{8, 1}, {2, 1}};
  EXPECT_THROW(
      JointLikelihoodSpansInto(plan, table, descending, out.data(), ws),
      std::invalid_argument);
  // A table built for another plan shape is rejected, not read past.
  const BandTable short_table;
  EXPECT_THROW(
      JointLikelihoodSpansInto(plan, short_table, singles, out.data(), ws),
      std::invalid_argument);
}

/// The band table's samples are the one dispatched computation of the
/// kernel: every supported ISA's walk must reproduce the samples
/// BuildBandTable used (each interval's c0 is its entry's sample), bit for
/// bit, so maps never depend on the ISA.
TEST(SteeringPlan, BandTableBitIdenticalAcrossIsas) {
  std::mt19937 rng(43);
  for (const std::size_t keep_every : {1u, 3u}) {
    const RandomScene s = MakeRandomScene(rng, keep_every);
    const SpectraInput input = s.Input();
    const SteeringPlan plan(MakeSteeringPlanKey(input, s.grid));
    SpectraWorkspace ws;
    BandTable table;
    BuildBandTable(input, plan, table, ws);
    const std::size_t len = plan.table_len();
    ASSERT_EQ(table.size(), plan.num_antennas() * len * 8);

    for (const dsp::simd::Isa isa : SupportedIsas()) {
      std::vector<double> re(len), im(len);
      for (std::size_t j = 0; j < plan.num_antennas(); ++j) {
        dsp::simd::ForIsa(isa).walk(
            reinterpret_cast<const double*>(ws.dense[j].data()),
            ws.comb_steps, plan.table_base().re.data(),
            plan.table_base().im.data(), plan.table_step().re.data(),
            plan.table_step().im.data(), re.data(), im.data(), len);
        for (std::size_t i = 1; i + 2 < len; ++i) {
          const double* c0 = table.data() + 8 * (j * len + i);
          ASSERT_EQ(re[i], c0[0])
              << dsp::simd::IsaName(isa) << " antenna " << j << " i " << i;
          ASSERT_EQ(im[i], c0[1])
              << dsp::simd::IsaName(isa) << " antenna " << j << " i " << i;
        }
      }
    }
  }
}

/// The hot loop reads band-table intervals unchecked, so a plan whose
/// relative distances are not finite must never be built.
TEST(SteeringPlan, RejectsNonFiniteGeometry) {
  std::mt19937 rng(47);
  const RandomScene s = MakeRandomScene(rng);
  const SteeringPlanKey good = MakeSteeringPlanKey(s.Input(), s.grid);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  SteeringPlanKey nan_antenna = good;
  nan_antenna.antennas[1].x = nan;
  EXPECT_THROW(SteeringPlan{nan_antenna}, std::invalid_argument);
  SteeringPlanKey inf_master = good;
  inf_master.master_ref.y = inf;
  EXPECT_THROW(SteeringPlan{inf_master}, std::invalid_argument);
  SteeringPlanKey nan_distance = good;
  nan_distance.master_ref_distance = nan;
  EXPECT_THROW(SteeringPlan{nan_distance}, std::invalid_argument);
  SteeringPlanKey inf_distance = good;
  inf_distance.master_ref_distance = -inf;
  EXPECT_THROW(SteeringPlan{inf_distance}, std::invalid_argument);

  // Through the cache the failure reaches the caller and leaves no plan.
  SteeringPlanCache cache;
  EXPECT_THROW(cache.GetOrBuild(nan_antenna), std::invalid_argument);
  EXPECT_EQ(cache.builds(), 0u);
  EXPECT_NO_THROW(SteeringPlan{good});
}

TEST(SteeringPlanCache, EvictsLeastRecentlyUsedAtPlanLimit) {
  std::mt19937 rng(29);
  SteeringPlanCache cache({.max_plans = 2});
  const RandomScene a = MakeRandomScene(rng);
  const RandomScene b = MakeRandomScene(rng);
  const RandomScene c = MakeRandomScene(rng);

  const auto pa = cache.GetOrBuild(MakeSteeringPlanKey(a.Input(), a.grid));
  cache.GetOrBuild(MakeSteeringPlanKey(b.Input(), b.grid));
  EXPECT_EQ(cache.evictions(), 0u);

  // Touch `a` so `b` becomes the LRU, then overflow with `c`.
  cache.GetOrBuild(MakeSteeringPlanKey(a.Input(), a.grid));
  cache.GetOrBuild(MakeSteeringPlanKey(c.Input(), c.grid));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.builds(), 3u);

  // `a` survived the eviction (same instance), `b` did not (rebuild).
  EXPECT_EQ(cache.GetOrBuild(MakeSteeringPlanKey(a.Input(), a.grid)).get(),
            pa.get());
  EXPECT_EQ(cache.builds(), 3u);
  cache.GetOrBuild(MakeSteeringPlanKey(b.Input(), b.grid));
  EXPECT_EQ(cache.builds(), 4u);
}

/// The cache publishes all four of its metrics under one prefix.
TEST(SteeringPlanCache, PublishesItsMetricsUnderOnePrefix) {
  std::mt19937 rng(37);
  const RandomScene a = MakeRandomScene(rng);
  const RandomScene b = MakeRandomScene(rng);
  obs::Counter& builds = obs::GetCounter("bloc.steering_plan_cache.builds");
  obs::Counter& lookups = obs::GetCounter("bloc.steering_plan_cache.lookups");
  obs::Counter& evictions =
      obs::GetCounter("bloc.steering_plan_cache.evictions");
  obs::Gauge& bytes = obs::GetGauge("bloc.steering_plan_cache.bytes");
  const std::uint64_t builds0 = builds.Value();
  const std::uint64_t lookups0 = lookups.Value();
  const std::uint64_t evictions0 = evictions.Value();

  // A one-plan cache: the first key builds, the second builds and evicts.
  SteeringPlanCache cache({.max_plans = 1});
  cache.GetOrBuild(MakeSteeringPlanKey(a.Input(), a.grid));
  cache.GetOrBuild(MakeSteeringPlanKey(b.Input(), b.grid));
  ASSERT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(builds.Value() - builds0, 2u);
  EXPECT_EQ(lookups.Value() - lookups0, 2u);
  EXPECT_EQ(evictions.Value() - evictions0, 1u);
  EXPECT_EQ(bytes.Value(), static_cast<std::int64_t>(cache.bytes()));
}

TEST(SteeringPlanCache, ByteBudgetBoundsResidency) {
  std::mt19937 rng(31);
  const RandomScene a = MakeRandomScene(rng);
  const RandomScene b = MakeRandomScene(rng);
  const auto ka = MakeSteeringPlanKey(a.Input(), a.grid);
  const auto kb = MakeSteeringPlanKey(b.Input(), b.grid);
  const std::size_t bytes_a = SteeringPlan(ka).MemoryBytes();

  // Budget fits one plan, not two: the second build evicts the first, but
  // the most recent plan is always retained (the pipeline needs one).
  SteeringPlanCache cache({.max_plans = 64, .max_bytes = bytes_a});
  cache.GetOrBuild(ka);
  EXPECT_EQ(cache.bytes(), bytes_a);
  cache.GetOrBuild(kb);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_LE(cache.bytes(), std::max(bytes_a, SteeringPlan(kb).MemoryBytes()));
}

TEST(DistanceOnlyMap, CacheReusesPlans) {
  std::mt19937 rng(23);
  const RandomScene s = MakeRandomScene(rng);
  SteeringPlanCache cache;
  const dsp::Grid2D first = DistanceOnlyMap(s.Input(), s.grid, &cache);
  const dsp::Grid2D second = DistanceOnlyMap(s.Input(), s.grid, &cache);
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_EQ(MaxAbsDiff(first, second), 0.0);
}

/// The per-cell Eq. 17 expression of the cell-major kernel the chunk
/// layout replaced, kept as the oracle of every dispatched variant: antenna
/// j's term is its interval's cubic at its offset (Horner on interleaved
/// (re, im) pairs) times its base rotor, and a cell sums its antenna terms
/// from zero in antenna order. This file is built with -ffp-contract=off, so
/// the oracle's multiply-adds stay unfused like the kernels'.
typedef double Pair __attribute__((vector_size(16)));

Pair LoadPair(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Antenna j's term of `cell`, read through the plan's lane map.
Pair OracleTerm(const SteeringPlan& plan, const BandTable& table,
                std::size_t j, std::size_t cell) {
  const SteeringPlan::AntennaChunks ch = plan.chunks(j);
  const std::uint32_t lane = ch.lane[cell];
  const double* c =
      table.data() + 8 * std::size_t{ch.interval[lane / dsp::simd::kChunkLanes]};
  const double s = ch.frac[lane];
  const Pair b = LoadPair(c) +
                 s * (LoadPair(c + 2) +
                      s * (LoadPair(c + 4) + s * LoadPair(c + 6)));
  // (b_re br - b_im bi, b_im br + b_re bi); negating a product is exact.
  const Pair swapped = {b[1], b[0]};
  const Pair sign = {-1.0, 1.0};
  return b * ch.base_re[lane] + swapped * ch.base_im[lane] * sign;
}

/// Eq. 17: the coherent antenna sum's magnitude.
double OracleJointCell(const SteeringPlan& plan, const BandTable& table,
                       std::size_t cell) {
  Pair acc = {0.0, 0.0};
  for (std::size_t j = 0; j < plan.num_antennas(); ++j) {
    acc += OracleTerm(plan, table, j, cell);
  }
  return std::sqrt(acc[0] * acc[0] + acc[1] * acc[1]);
}

/// Eq. 16: the antenna terms' magnitudes summed.
double OracleDistanceCell(const SteeringPlan& plan, const BandTable& table,
                          std::size_t cell) {
  double sum = 0.0;
  for (std::size_t j = 0; j < plan.num_antennas(); ++j) {
    const Pair t = OracleTerm(plan, table, j, cell);
    sum += std::sqrt(t[0] * t[0] + t[1] * t[1]);
  }
  return sum;
}

/// Every supported ISA's plan kernels match the per-cell oracle bit for
/// bit, writing only the requested cells: on the full map, on random
/// ascending spans, on square gate windows clipped at every grid edge and
/// corner, and on the Eq. 16 distance-only map.
TEST(SteeringPlanKernels, EveryIsaMatchesPerCellOracle) {
  std::mt19937 rng(53);
  for (int trial = 0; trial < 4; ++trial) {
    RandomScene s = MakeRandomScene(rng, 1 + static_cast<std::size_t>(trial % 3));
    if (trial % 2 == 1) s.grid.resolution = 0.075;  // the fig9 spacing
    const SpectraInput input = s.Input();
    const SteeringPlan plan(MakeSteeringPlanKey(input, s.grid));
    const std::size_t cells = plan.num_cells();
    const std::size_t cols = s.grid.Cols();
    const std::size_t rows = s.grid.Rows();
    SpectraWorkspace ws;
    BandTable table;
    BuildBandTable(input, plan, table, ws);
    std::vector<double> joint(cells), distance(cells);
    for (std::size_t c = 0; c < cells; ++c) {
      joint[c] = OracleJointCell(plan, table, c);
      distance[c] = OracleDistanceCell(plan, table, c);
    }

    // Span lists: the whole grid, random ascending spans, and the rows of
    // 9x9 gate windows centred on each corner, each edge's midpoint and the
    // middle, clipped to the grid.
    std::vector<std::vector<CellSpan>> cases;
    cases.push_back({{0, static_cast<std::uint32_t>(cells)}});
    std::vector<CellSpan> random;
    std::uniform_int_distribution<std::uint32_t> step(0, 60);
    for (std::uint32_t next = step(rng); next < cells;) {
      const std::uint32_t length = std::min<std::uint32_t>(
          step(rng), static_cast<std::uint32_t>(cells) - next);
      random.push_back({next, length});
      next += length + step(rng);
    }
    cases.push_back(random);
    for (const std::size_t cr : {std::size_t{0}, rows / 2, rows - 1}) {
      for (const std::size_t cc : {std::size_t{0}, cols / 2, cols - 1}) {
        const std::size_t r0 = cr >= 4 ? cr - 4 : 0;
        const std::size_t r1 = std::min(rows, cr + 5);
        const std::size_t c0 = cc >= 4 ? cc - 4 : 0;
        const std::size_t c1 = std::min(cols, cc + 5);
        std::vector<CellSpan> window;
        for (std::size_t r = r0; r < r1; ++r) {
          window.push_back({static_cast<std::uint32_t>(r * cols + c0),
                            static_cast<std::uint32_t>(c1 - c0)});
        }
        cases.push_back(window);
      }
    }

    for (const dsp::simd::Isa isa : SupportedIsas()) {
      const dsp::simd::Kernels& kernels = dsp::simd::ForIsa(isa);
      for (const std::vector<CellSpan>& spans : cases) {
        std::vector<double> out(cells, -1.0);
        std::vector<bool> inside(cells, false);
        for (const CellSpan& sp : spans) {
          for (std::uint32_t t = 0; t < sp.length; ++t) {
            inside[sp.begin + t] = true;
          }
        }
        JointLikelihoodSpansInto(plan, table, spans, out.data(), ws, kernels);
        for (std::size_t c = 0; c < cells; ++c) {
          ASSERT_EQ(out[c], inside[c] ? joint[c] : -1.0)
              << dsp::simd::IsaName(isa) << " trial " << trial << " cell "
              << c << " of " << spans.size() << " spans";
        }
      }
      dsp::Grid2D map(s.grid);
      DistanceOnlyMapInto(input, plan, map, ws, kernels);
      for (std::size_t c = 0; c < cells; ++c) {
        ASSERT_EQ(map.data()[c], distance[c])
            << dsp::simd::IsaName(isa) << " trial " << trial << " cell " << c;
      }
    }
  }
}

}  // namespace
}  // namespace bloc::core
