#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <random>
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

TEST(SteeringPlan, RelativeDistanceFieldIsExact) {
  std::mt19937 rng(5);
  const RandomScene s = MakeRandomScene(rng);
  const SteeringPlan plan(MakeSteeringPlanKey(s.Input(), s.grid));
  for (std::size_t j = 0; j < plan.num_antennas(); ++j) {
    const dsp::Grid2D& field = plan.RelativeDistance(j);
    for (std::size_t row = 0; row < field.rows(); row += 3) {
      for (std::size_t col = 0; col < field.cols(); col += 3) {
        const geom::Vec2 x{field.XOf(col), field.YOf(row)};
        const double expected =
            geom::Distance(x, s.geometry.AntennaPosition(j)) -
            geom::Distance(x, s.master_ref) - s.d_i0;
        EXPECT_DOUBLE_EQ(field.At(col, row), expected);
      }
    }
  }
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

  const LocationResult first = engine.Locate(dataset.rounds[0]);
  EXPECT_GT(first.anchors_used, 0u);
  const std::size_t builds_after_first = engine.plan_cache().builds();
  EXPECT_EQ(builds_after_first, first.anchors_used);

  engine.Locate(dataset.rounds[1]);
  engine.LocateBatch(dataset.rounds);
  engine.Locate(dataset.rounds[2]);
  EXPECT_EQ(engine.plan_cache().builds(), builds_after_first);
  EXPECT_GT(engine.plan_cache().lookups(), builds_after_first);
}

/// End-to-end equivalence on simulated fig9 rounds: the steering-plan
/// kernel must not move a single localization output relative to the
/// reference, under either search mode. Fused maps agree to the peak-
/// relative bound (the coarse-to-fine map is partial, so only positions are
/// compared there).
TEST(SteeringPlanParity, LocalizationOutputsUnchanged) {
  for (const std::uint64_t seed : {1u, 2u}) {
    sim::DatasetOptions options;
    options.locations = 64;
    const sim::Dataset dataset =
        sim::GenerateDataset(sim::PaperTestbed(seed), options);

    LocalizerConfig reference_config = sim::PaperLocalizerConfig(dataset);
    reference_config.keep_map = true;
    reference_config.spectra.kernel = LikelihoodKernel::kReference;
    LocalizerConfig plan_config = reference_config;
    plan_config.spectra.kernel = LikelihoodKernel::kSteeringPlan;
    LocalizerConfig coarse_config = plan_config;
    coarse_config.spectra.search.mode = SearchMode::kCoarseToFine;

    const Localizer reference(dataset.deployment, reference_config);
    const Localizer planned(dataset.deployment, plan_config);
    const Localizer coarse(dataset.deployment, coarse_config);
    LocalizerWorkspace ref_ws, plan_ws, coarse_ws;
    for (const net::MeasurementRound& round : dataset.rounds) {
      const LocationResult a = reference.Locate(round, ref_ws);
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

/// Subset evaluation (the coarse search's primitive) must reproduce the
/// full-grid values bit for bit, in whatever order the cells arrive, and so
/// must span evaluation at any offset.
TEST(SteeringPlan, CellSubsetBitIdenticalToFullMap) {
  std::mt19937 rng(41);
  const RandomScene s = MakeRandomScene(rng);
  const SpectraInput input = s.Input();
  const SteeringPlan plan(MakeSteeringPlanKey(input, s.grid));

  SpectraWorkspace ws;
  dsp::Grid2D full(s.grid);
  JointLikelihoodMapInto(input, plan, full, ws);
  BandTable table;
  BuildBandTable(input, plan, table, ws);

  std::vector<std::uint32_t> cells;
  std::uniform_int_distribution<std::uint32_t> pick(
      0, static_cast<std::uint32_t>(plan.num_cells() - 1));
  for (int i = 0; i < 64; ++i) cells.push_back(pick(rng));
  std::shuffle(cells.begin(), cells.end(), rng);

  std::vector<double> out(cells.size());
  JointLikelihoodCellsInto(plan, table, cells, out.data());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(out[i], full.data()[cells[i]]) << "cell " << cells[i];
  }

  // Spans of every length from 1 up, at random offsets, plus the whole grid.
  std::vector<CellSpan> spans;
  std::size_t span_cells = 0;
  for (std::uint32_t length = 1; length <= 40; length += 3) {
    std::uniform_int_distribution<std::uint32_t> begin(
        0, static_cast<std::uint32_t>(plan.num_cells()) - length);
    spans.push_back({begin(rng), length});
    span_cells += length;
  }
  spans.push_back({0, static_cast<std::uint32_t>(plan.num_cells())});
  span_cells += plan.num_cells();
  out.assign(span_cells, 0.0);
  JointLikelihoodSpansInto(plan, table, spans, out.data());
  std::size_t off = 0;
  for (const CellSpan& sp : spans) {
    for (std::uint32_t t = 0; t < sp.length; ++t) {
      ASSERT_EQ(out[off + t], full.data()[sp.begin + t])
          << "span begin=" << sp.begin << " t=" << t;
    }
    off += sp.length;
  }

  const std::vector<std::uint32_t> bad = {
      static_cast<std::uint32_t>(plan.num_cells())};
  double scratch = 0.0;
  EXPECT_THROW(JointLikelihoodCellsInto(plan, table, bad, &scratch),
               std::invalid_argument);
  const std::vector<CellSpan> bad_span = {
      {static_cast<std::uint32_t>(plan.num_cells()) - 1, 2}};
  EXPECT_THROW(JointLikelihoodSpansInto(plan, table, bad_span, &scratch),
               std::invalid_argument);
  // A table built for another plan shape is rejected, not read past.
  const BandTable short_table;
  EXPECT_THROW(JointLikelihoodCellsInto(plan, short_table, cells, out.data()),
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

    using dsp::simd::Isa;
    for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
      if (!dsp::simd::IsaSupported(isa)) continue;
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

}  // namespace
}  // namespace bloc::core
