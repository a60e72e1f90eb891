// Performance sweeps on the fig9 workload: a single-thread comparison of
// the Eq. 17 kernels (steering-plan vs naive reference, ms per fused
// 4-anchor map, plus the plan kernel's ns per (cell, antenna) with its ISA,
// CPU model and core count), a rounds/sec engine sweep for threads in
// {1, 2, 4}, and the full-PHY measurement stage (planned fast path vs
// reference kernels, plus a measurement-thread sweep). Pass --json=PATH to
// dump everything as machine-readable JSON (the perf trajectory baseline),
// --sweep-rounds=N to size the batch, --mode=localize|fullphy|dataset|obs|
// soak to run one sweep family only; --mode=soak --wire swaps the
// in-process soak for a TCP-loopback smoke. An unknown argument exits 1.
// Repeated sweeps report bench::Stats (min/p50/stddev over warmup+reps) so
// regressions can be told from run-to-run noise.
//
// The obs sweep measures the metrics substrate itself: fig9 LocateBatch
// with metric recording enabled vs runtime-disabled, with a live
// serve::AdminServer attached (one /metrics self-scrape proves the path).
// --obs-guard=PCT turns it into a regression gate (exit 1 when enabled
// costs more than PCT%). --metrics-json=PATH / --trace=PATH export the
// RunReport and Chrome trace of the whole bench run.
//
// --mode=regress replays committed BENCH_*.json baselines
// (--baseline=PATH, repeatable): each file's sections are re-measured and
// compared with noise-aware tolerances (--regress-tol=PCT, default 35;
// widened by 2x the baseline's own coefficient of variation). Only
// machine-independent ratios gate by default; --regress-abs also gates
// absolute timings (same-machine runs), and a likelihood_map section that
// records its dispatched ISA gates its ns per (cell, antenna) only on that
// ISA ("skipped (isa)" elsewhere). Exit 1 on any FAIL line.
//
// --admin-port=N starts the admin HTTP endpoint for the soak sweep so an
// external client can scrape /metrics and /healthz mid-run; --admin-scrape
// additionally runs an in-bench scrape client per sweep point validating
// interval counter deltas, bucket monotonicity and the health verdict.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "baseline.h"
#include "bench_util.h"
#include "net/transport.h"
#include "scrape.h"
#include "serve/admin.h"
#include "serve/service.h"
#include "stats.h"
#include "bloc/corrected_channel.h"
#include "bloc/engine.h"
#include "dsp/simd_dispatch.h"
#include "net/messages.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "sim/dataset_io.h"
#include "sim/experiment.h"

namespace {

using namespace bloc;

struct SweepPoint {
  std::size_t threads = 0;
  double rounds_per_sec = 0.0;
};

struct KernelComparison {
  double reference_ms_per_map = 0.0;
  double plan_ms_per_map = 0.0;
  double speedup = 0.0;
  /// The plan kernel alone (band table, chunk terms, gather, magnitude) per
  /// (cell, antenna), and the hardware it ran on.
  double ns_per_cell_antenna = 0.0;
  std::string isa;
  std::string cpu_model;
  unsigned cores = 0;
};

/// The first "model name" of /proc/cpuinfo ("unknown" when unreadable).
std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t start = line.find_first_not_of(" \t", line.find(':') + 1);
    return start == std::string::npos ? "unknown" : line.substr(start);
  }
  return "unknown";
}

/// ns per (cell, antenna) of the dispatched steering-plan kernel:
/// JointLikelihoodMapInto over every anchor of `corrected` with cached
/// plans and one reused workspace. The minimum over `blocks` blocks of at
/// least `block_seconds` each, like the other scalar summaries, so the
/// regress gate compares best cases rather than noise.
double TimePlanKernel(const sim::Dataset& dataset,
                      const core::CorrectedChannels& corrected,
                      std::size_t blocks = 5, double block_seconds = 0.1) {
  const core::LocalizerConfig config = sim::PaperLocalizerConfig(dataset);
  const core::Localizer localizer(dataset.deployment, config);
  std::vector<core::SpectraInput> inputs;
  std::vector<std::shared_ptr<const core::SteeringPlan>> plans;
  double terms = 0.0;
  for (std::size_t a = 0; a < corrected.anchors.size(); ++a) {
    inputs.push_back(localizer.SpectraInputFor(corrected, a));
    plans.push_back(
        localizer.plan_cache().GetOrBuild(inputs.back(), config.grid));
    terms += static_cast<double>(plans.back()->num_cells() *
                                 plans.back()->num_antennas());
  }
  dsp::Grid2D grid(config.grid);
  core::SpectraWorkspace ws;
  const auto all_maps = [&] {
    for (std::size_t a = 0; a < inputs.size(); ++a) {
      core::JointLikelihoodMapInto(inputs[a], *plans[a], grid, ws);
      bloc::bench::DoNotOptimize(grid.data().data());
    }
  };
  all_maps();  // warm-up: sizes the workspace
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto start = std::chrono::steady_clock::now();
    std::size_t reps = 0;
    double elapsed = 0.0;
    do {
      all_maps();
      ++reps;
      elapsed = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    } while (elapsed < block_seconds);
    best = std::min(best, 1e9 * elapsed / (static_cast<double>(reps) * terms));
  }
  return best;
}

/// ms per fused map of `corrected`: `anchor_map(anchor, input, map, ws)`
/// writes each anchor's Eq. 17 map into `map` with one of the two kernels,
/// and the maps are peak-normalized and added in fusion order, as the
/// Localizer's map stage does. At least `min_seconds` of repetitions,
/// single-threaded.
template <class AnchorMap>
double MsPerFusedMap(const core::Localizer& localizer,
                     const core::CorrectedChannels& corrected,
                     const AnchorMap& anchor_map, double min_seconds = 0.5) {
  std::vector<std::size_t> order;
  localizer.FuseOrder(corrected, order);
  std::vector<core::SpectraInput> inputs;
  for (const std::size_t idx : order) {
    inputs.push_back(localizer.SpectraInputFor(corrected, idx));
  }
  dsp::Grid2D map(localizer.config().grid);
  dsp::Grid2D fused(localizer.config().grid);
  core::SpectraWorkspace ws;
  const auto fused_map = [&] {
    fused.Reset(localizer.config().grid);
    for (std::size_t a = 0; a < inputs.size(); ++a) {
      anchor_map(order[a], inputs[a], map, ws);
      map.NormalizePeak();
      fused.Add(map);
    }
    bloc::bench::DoNotOptimize(fused.data().data());
  };
  fused_map();  // warm-up: sizes the workspace
  const auto start = std::chrono::steady_clock::now();
  std::size_t maps = 0;
  double elapsed = 0.0;
  do {
    fused_map();
    ++maps;
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  } while (elapsed < min_seconds);
  return 1e3 * elapsed / static_cast<double>(maps);
}

/// The single-thread likelihood-map stage regression check: steering-plan
/// kernel vs the naive reference kernel on the fig9 workload.
KernelComparison RunKernelComparison() {
  std::cerr << "comparing likelihood-map kernels on the fig9 workload...\n";
  sim::DatasetOptions options;
  options.locations = 1;
  const sim::Dataset dataset =
      sim::GenerateDataset(sim::PaperTestbed(1), options);
  const core::CorrectedChannels corrected =
      core::ComputeCorrectedChannels(dataset.rounds[0]);

  const core::LocalizerConfig config = sim::PaperLocalizerConfig(dataset);
  const core::Localizer localizer(dataset.deployment, config);
  std::vector<std::shared_ptr<const core::SteeringPlan>> plans;
  for (std::size_t a = 0; a < corrected.anchors.size(); ++a) {
    plans.push_back(localizer.plan_cache().GetOrBuild(
        localizer.SpectraInputFor(corrected, a), config.grid));
  }

  KernelComparison cmp;
  cmp.reference_ms_per_map = MsPerFusedMap(
      localizer, corrected,
      [](std::size_t, const core::SpectraInput& input, dsp::Grid2D& map,
         core::SpectraWorkspace& ws) {
        core::JointLikelihoodMapInto(input, map, ws);
      });
  cmp.plan_ms_per_map = MsPerFusedMap(
      localizer, corrected,
      [&](std::size_t anchor, const core::SpectraInput& input,
          dsp::Grid2D& map, core::SpectraWorkspace& ws) {
        core::JointLikelihoodMapInto(input, *plans[anchor], map, ws);
      });
  cmp.speedup = cmp.reference_ms_per_map / cmp.plan_ms_per_map;
  cmp.ns_per_cell_antenna = TimePlanKernel(dataset, corrected);
  cmp.isa = dsp::simd::IsaName(dsp::simd::Active().isa);
  cmp.cpu_model = CpuModel();
  cmp.cores = std::thread::hardware_concurrency();

  std::cout << "\n=== likelihood-map stage (fig9 workload, 1 thread, fused "
               "4-anchor map) ===\n"
            << "  reference kernel      " << cmp.reference_ms_per_map
            << " ms/map\n"
            << "  steering-plan kernel  " << cmp.plan_ms_per_map
            << " ms/map  (x" << cmp.speedup << " speedup)\n"
            << "  plan kernel           " << cmp.ns_per_cell_antenna
            << " ns per (cell, antenna)  [isa " << cmp.isa << ", "
            << cmp.cpu_model << ", " << cmp.cores << " cores]\n";
  return cmp;
}

/// Measures engine throughput (rounds/sec) on the fig9 workload for
/// threads in {1, 2, 4}; the thread counts stay fixed across machines so
/// successive runs are comparable.
std::vector<SweepPoint> RunThroughputSweep(std::size_t batch_rounds) {
  std::cerr << "generating fig9 workload (" << batch_rounds
            << " rounds) for the throughput sweep...\n";
  sim::DatasetOptions options;
  options.locations = batch_rounds;
  const sim::Dataset dataset =
      sim::GenerateDataset(sim::PaperTestbed(1), options);

  std::vector<SweepPoint> sweep;
  for (const std::size_t threads : {1, 2, 4}) {
    core::LocalizationEngine engine(dataset.deployment,
                                    sim::PaperLocalizerConfig(dataset),
                                    {.threads = threads});
    engine.LocateBatch(dataset.rounds);  // warm up workspaces
    const auto start = std::chrono::steady_clock::now();
    std::size_t rounds_done = 0;
    double elapsed = 0.0;
    do {
      bloc::bench::DoNotOptimize(engine.LocateBatch(dataset.rounds));
      rounds_done += dataset.rounds.size();
      elapsed = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    } while (elapsed < 1.0);
    sweep.push_back({threads, static_cast<double>(rounds_done) / elapsed});
  }

  std::cout << "\n=== localization engine throughput (fig9 workload, "
            << batch_rounds << "-round batches) ===\n";
  for (const SweepPoint& p : sweep) {
    std::cout << "  threads=" << p.threads << "  " << p.rounds_per_sec
              << " rounds/sec  (x" << p.rounds_per_sec / sweep[0].rounds_per_sec
              << " vs threads=1)\n";
  }
  return sweep;
}

struct FullPhyComparison {
  double reference_ms_per_round = 0.0;
  double planned_ms_per_round = 0.0;
  double speedup = 0.0;
  bloc::bench::Stats reference_stats;
  bloc::bench::Stats planned_stats;
};

/// Times full-PHY measurement rounds (ms/round) on the given simulator,
/// cycling through `positions`. At least one round always runs.
double TimeFullPhyRounds(sim::MeasurementSimulator& simulator,
                         const std::vector<geom::Vec2>& positions,
                         double min_seconds) {
  const auto start = std::chrono::steady_clock::now();
  std::size_t rounds = 0;
  double elapsed = 0.0;
  do {
    bloc::bench::DoNotOptimize(
        simulator.RunRound(positions[rounds % positions.size()], rounds));
    ++rounds;
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  } while (elapsed < min_seconds);
  return 1e3 * elapsed / static_cast<double>(rounds);
}

/// The single-thread full-PHY measurement regression check: planned fast
/// path (FFT plans + incremental rotors + cached assets) vs the reference
/// kernels on the fig9 workload.
FullPhyComparison RunFullPhyComparison() {
  std::cerr << "comparing full-PHY measurement kernels on the fig9 "
               "workload...\n";
  sim::ScenarioConfig scenario = sim::PaperTestbed(1);
  scenario.mode = sim::MeasurementMode::kFullPhy;
  sim::Testbed testbed(scenario);
  sim::MeasurementSimulator simulator(testbed, 1);
  const std::vector<geom::Vec2> positions = testbed.SampleTagPositions(4);

  // Each bench::Stats sample is one multi-round timing window; the reported
  // scalar is the min (scheduler noise only ever adds time) and the spread
  // goes to the JSON so regressions can be told from noise.
  FullPhyComparison cmp;
  simulator.UseReferenceFullPhy(true);
  cmp.reference_stats = bloc::bench::MeasureRepeated(1, 3, [&] {
    return TimeFullPhyRounds(simulator, positions, 1.0);
  });
  simulator.UseReferenceFullPhy(false);
  cmp.planned_stats = bloc::bench::MeasureRepeated(1, 3, [&] {
    return TimeFullPhyRounds(simulator, positions, 1.0);
  });
  cmp.reference_ms_per_round = cmp.reference_stats.min;
  cmp.planned_ms_per_round = cmp.planned_stats.min;
  cmp.speedup = cmp.reference_ms_per_round / cmp.planned_ms_per_round;

  std::cout << "\n=== full-PHY measurement stage (fig9 workload, 1 thread) "
               "===\n"
            << "  reference kernels  " << cmp.reference_ms_per_round
            << " ms/round (p50 " << cmp.reference_stats.p50 << ", stddev "
            << cmp.reference_stats.stddev << ")\n"
            << "  planned fast path  " << cmp.planned_ms_per_round
            << " ms/round (p50 " << cmp.planned_stats.p50 << ", stddev "
            << cmp.planned_stats.stddev << ")  (x" << cmp.speedup
            << " speedup)\n";
  return cmp;
}

/// Full-PHY round synthesis throughput (rounds/sec) for threads in
/// {1, 2, 4}. Output is bit-identical across thread counts (tested), so
/// this sweep measures pure scheduling scalability.
std::vector<SweepPoint> RunFullPhyThreadSweep() {
  std::cerr << "sweeping full-PHY measurement threads...\n";
  std::vector<SweepPoint> sweep;
  for (const std::size_t threads : {1, 2, 4}) {
    sim::ScenarioConfig scenario = sim::PaperTestbed(1);
    scenario.mode = sim::MeasurementMode::kFullPhy;
    sim::Testbed testbed(scenario);
    sim::MeasurementSimulator simulator(testbed, threads);
    const std::vector<geom::Vec2> positions = testbed.SampleTagPositions(4);
    simulator.RunRound(positions[0], 0);  // warm-up
    const double ms_per_round = TimeFullPhyRounds(simulator, positions, 1.0);
    sweep.push_back({threads, 1e3 / ms_per_round});
  }

  std::cout << "\n=== full-PHY round synthesis throughput (fig9 workload) "
               "===\n";
  for (const SweepPoint& p : sweep) {
    std::cout << "  threads=" << p.threads << "  " << p.rounds_per_sec
              << " rounds/sec  (x" << p.rounds_per_sec / sweep[0].rounds_per_sec
              << " vs threads=1)\n";
  }
  return sweep;
}

struct DatasetSweep {
  std::size_t locations = 0;
  double cold_generate_ms = 0.0;  // store miss: synthesize + serialize + persist
  double warm_load_ms = 0.0;      // store hit: load + decode from disk
  double speedup = 0.0;
  double encode_ms = 0.0;
  double decode_ms = 0.0;
  double file_mb = 0.0;
  bloc::bench::Stats cold_stats;
  bloc::bench::Stats warm_stats;
  bloc::bench::Stats encode_stats;
  bloc::bench::Stats decode_stats;
};

/// The generate-once/replay-many regression check: a cold DatasetStore miss
/// (streaming synthesis into serialization and onto disk) vs a warm hit
/// (load + decode) on the fig9 workload, plus raw codec throughput.
DatasetSweep RunDatasetSweep(std::size_t locations) {
  std::cerr << "sweeping dataset store (cold synthesis vs warm load, "
            << locations << " locations)...\n";
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "bloc-bench-perf-dscache";
  fs::remove_all(dir);
  const sim::ScenarioConfig scenario = sim::PaperTestbed(1);
  sim::DatasetOptions options;
  options.locations = locations;
  const std::uint64_t fp = sim::Fingerprint(scenario, options);

  const auto ms_since = [](std::chrono::steady_clock::time_point start) {
    return 1e3 * std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  };

  DatasetSweep sweep;
  sweep.locations = locations;
  sim::Dataset dataset;
  // Every cold sample starts from an empty store (remove_all keeps it a true
  // miss); no warmup — the first cold pass IS the measurement of interest,
  // and generation itself is deterministic.
  sweep.cold_stats = bloc::bench::MeasureRepeated(0, 2, [&] {
    fs::remove_all(dir);
    sim::DatasetStore store(dir);
    const auto start = std::chrono::steady_clock::now();
    dataset = store.GetOrGenerate(scenario, options);
    const double ms = ms_since(start);
    if (store.misses() != 1) std::cerr << "  warning: expected a cold miss\n";
    return ms;
  });
  sweep.warm_stats = bloc::bench::MeasureRepeated(1, 5, [&] {
    sim::DatasetStore store(dir);
    const auto start = std::chrono::steady_clock::now();
    bloc::bench::DoNotOptimize(store.GetOrGenerate(scenario, options));
    const double ms = ms_since(start);
    if (store.hits() != 1) std::cerr << "  warning: expected a warm hit\n";
    return ms;
  });
  sweep.cold_generate_ms = sweep.cold_stats.min;
  sweep.warm_load_ms = sweep.warm_stats.min;
  sweep.speedup = sweep.cold_generate_ms / sweep.warm_load_ms;

  net::Buffer bytes;
  sweep.encode_stats = bloc::bench::MeasureRepeated(1, 5, [&] {
    const auto start = std::chrono::steady_clock::now();
    bytes = sim::EncodeDataset(dataset, fp);
    return ms_since(start);
  });
  sweep.decode_stats = bloc::bench::MeasureRepeated(1, 5, [&] {
    const auto start = std::chrono::steady_clock::now();
    bloc::bench::DoNotOptimize(sim::DecodeDataset(bytes));
    return ms_since(start);
  });
  sweep.encode_ms = sweep.encode_stats.min;
  sweep.decode_ms = sweep.decode_stats.min;
  sweep.file_mb = static_cast<double>(bytes.size()) / (1024.0 * 1024.0);
  fs::remove_all(dir);

  std::cout << "\n=== dataset store (fig9 workload, " << locations
            << " locations) ===\n"
            << "  cold miss (synthesize+serialize+persist)  "
            << sweep.cold_generate_ms << " ms (stddev "
            << sweep.cold_stats.stddev << ")\n"
            << "  warm hit (load+decode)                    "
            << sweep.warm_load_ms << " ms (stddev " << sweep.warm_stats.stddev
            << ")  (x" << sweep.speedup << " speedup)\n"
            << "  codec: encode " << sweep.encode_ms << " ms, decode "
            << sweep.decode_ms << " ms, file " << sweep.file_mb << " MB\n";
  return sweep;
}

/// Medians over the alternating pairs of RunObsOverheadCheck.
struct ObsOverhead {
  double enabled_ms_per_round = 0.0;
  double disabled_ms_per_round = 0.0;
  double overhead_pct = 0.0;
  bloc::bench::Stats enabled_stats;
  bloc::bench::Stats disabled_stats;
};

/// Best-of-`reps` LocateBatch timing (ms/round) under the current metrics
/// switch; the minimum filters scheduler noise out of a percent-level
/// comparison.
double TimeBatchMs(core::LocalizationEngine& engine,
                   const sim::Dataset& dataset, int reps,
                   double min_seconds = 0.5) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    std::size_t rounds_done = 0;
    double elapsed = 0.0;
    do {
      bloc::bench::DoNotOptimize(engine.LocateBatch(dataset.rounds));
      rounds_done += dataset.rounds.size();
      elapsed = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    } while (elapsed < min_seconds);
    const double ms = 1e3 * elapsed / static_cast<double>(rounds_done);
    best = (r == 0) ? ms : std::min(best, ms);
  }
  return best;
}

/// The observability self-check: the same engine and workload with metric
/// recording on vs runtime-off. On and off blocks alternate in pairs (the
/// first side alternating too), so a drift in machine speed lands on both
/// sides of a pair; the gate reads the median of the per-pair overheads,
/// which one disturbed block cannot move.
ObsOverhead RunObsOverheadCheck(std::size_t batch_rounds) {
  std::cerr << "measuring metrics-substrate overhead on the fig9 "
               "workload...\n";
  sim::DatasetOptions options;
  options.locations = batch_rounds;
  const sim::Dataset dataset =
      sim::GenerateDataset(sim::PaperTestbed(1), options);
  core::LocalizationEngine engine(dataset.deployment,
                                  sim::PaperLocalizerConfig(dataset),
                                  {.threads = 1});
  engine.LocateBatch(dataset.rounds);  // warm workspaces and plan caches

  // The overhead budget must hold with the admin endpoint attached: its
  // accept thread stays up for the whole timed section, and one /metrics
  // self-scrape proves the exposition path end to end before timing starts.
  serve::AdminServer admin;
  const std::string scrape = bloc::bench::HttpGet(admin.port(), "/metrics");
  const bool scrape_ok = bloc::bench::HttpStatus(scrape) == 200;
  if (!scrape_ok) {
    std::cerr << "bench_perf: admin /metrics self-scrape failed on port "
              << admin.port() << "\n";
  }

  constexpr int kPairs = 8;
  const auto timed = [&](bool enabled) {
    obs::SetMetricsEnabled(enabled);
    return TimeBatchMs(engine, dataset, 1);
  };
  std::vector<double> enabled_ms, disabled_ms, pair_pct;
  for (int pair = 0; pair < kPairs; ++pair) {
    const bool enabled_first = pair % 2 == 0;
    const double first = timed(enabled_first);
    const double second = timed(!enabled_first);
    const double on = enabled_first ? first : second;
    const double off = enabled_first ? second : first;
    enabled_ms.push_back(on);
    disabled_ms.push_back(off);
    pair_pct.push_back(100.0 * (on - off) / off);
  }
  obs::SetMetricsEnabled(true);

  ObsOverhead result;
  result.enabled_stats = bloc::bench::Stats::Of(enabled_ms);
  result.disabled_stats = bloc::bench::Stats::Of(disabled_ms);
  result.enabled_ms_per_round = result.enabled_stats.p50;
  result.disabled_ms_per_round = result.disabled_stats.p50;
  result.overhead_pct = bloc::bench::Stats::Of(pair_pct).p50;

  std::cout << "\n=== observability overhead (fig9 workload, 1 thread) ===\n"
            << "  admin endpoint    127.0.0.1:" << admin.port()
            << " (/metrics self-scrape "
            << (scrape_ok ? "ok, " + std::to_string(scrape.size()) + " bytes"
                          : std::string("FAILED"))
            << ")\n"
            << "  metrics enabled   " << result.enabled_ms_per_round
            << " ms/round (min " << result.enabled_stats.min << ", stddev "
            << result.enabled_stats.stddev << ")\n"
            << "  metrics disabled  " << result.disabled_ms_per_round
            << " ms/round (min " << result.disabled_stats.min << ", stddev "
            << result.disabled_stats.stddev << ")\n"
            << "  overhead          " << result.overhead_pct
            << " % (median of " << kPairs << " alternating pairs)\n";
  return result;
}

// ---------------------------------------------------------------------------
// Soak mode (--mode=soak): thousands of simulated concurrent tags replay
// dataset rounds through serve::LocalizationService over producer threads,
// sweeping tag count x producer threads. Reports rounds/sec
// (bench::Stats over K reps) and p50/p99/p999 end-to-end latency from the
// serve.e2e_latency_us histogram, plus a bare 1-thread engine baseline;
// every position is checked bit-identical to the serial engine.

struct SoakConfig {
  std::vector<std::size_t> tags{1000};
  std::vector<std::size_t> producers{4};
  std::size_t rounds_per_tag = 2;
  std::size_t reps = 3;
  std::size_t warmup = 1;
  std::size_t dataset_locations = 16;
  serve::ShedPolicy shed_policy = serve::ShedPolicy::kShedOldest;
};

struct SoakPoint {
  std::size_t tags = 0;
  std::size_t producers = 0;
  bloc::bench::Stats rounds_per_sec;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  std::uint64_t retries = 0;  // producer pushes bounced by backpressure
  serve::ServiceCounters counters;
  std::uint64_t updates = 0;
  std::uint64_t lost_rounds = 0;
  std::uint64_t parity_mismatches = 0;
  std::uint64_t order_violations = 0;
};

struct SoakResult {
  std::size_t rounds_per_tag = 0;
  std::vector<SoakPoint> points;
  bloc::bench::Stats baseline_rounds_per_sec;
  std::size_t baseline_tags = 0;
  /// Best service mean over points at the baseline tag count / baseline.
  double throughput_ratio = 0.0;
  std::uint64_t total_lost = 0;
  std::uint64_t total_mismatches = 0;
  std::uint64_t total_order_violations = 0;
  std::uint64_t total_shed = 0;
  std::uint64_t total_expired = 0;
  std::uint64_t total_duplicates = 0;
  double worst_p99_us = 0.0;
};

/// Interval-local latency quantile between two registry snapshots
/// (obs::Snapshot::Capture() around the measured passes); a histogram
/// absent from the interval reads 0.
double IntervalQuantile(const obs::Delta& delta, std::string_view name,
                        double q) {
  const obs::HistogramDelta* hist = delta.FindHistogram(name);
  return hist == nullptr ? 0.0 : hist->Quantile(q);
}

/// One in-run scrape-validation pass (--admin-scrape): what an external
/// Prometheus client sees mid-soak. Two /metrics scrapes a beat apart must
/// expose a clean line protocol, non-decreasing counters and monotone
/// cumulative histogram buckets with consistent interval quantiles, and
/// /healthz must answer 200 (healthy or warming). Returns failure strings.
std::vector<std::string> ScrapeAdminMidRun(std::uint16_t port) {
  using bloc::bench::FindSample;
  using bloc::bench::PromSample;
  std::vector<std::string> failures;
  const auto scrape = [&](std::vector<PromSample>& samples) {
    const std::string response = bloc::bench::HttpGet(port, "/metrics");
    if (bloc::bench::HttpStatus(response) != 200) {
      failures.push_back("/metrics scrape did not answer 200");
      return false;
    }
    std::vector<std::string> malformed;
    samples = bloc::bench::ParsePrometheus(bloc::bench::HttpBody(response),
                                           &malformed);
    for (const std::string& line : malformed) {
      failures.push_back("malformed exposition line: " + line);
    }
    return malformed.empty();
  };

  std::vector<PromSample> first, second;
  if (!scrape(first)) return failures;
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  if (!scrape(second)) return failures;

  // Counters only move forward between scrapes.
  for (const char* name :
       {"bloc_serve_admitted", "bloc_serve_localized_rounds"}) {
    const PromSample* a = FindSample(first, name);
    const PromSample* b = FindSample(second, name);
    if (a == nullptr || b == nullptr) {
      failures.push_back(std::string(name) + " missing from a scrape");
    } else if (b->value < a->value) {
      failures.push_back(std::string(name) + " went backwards between "
                         "scrapes");
    }
  }

  // Cumulative buckets are monotone in le within one scrape and in time
  // across scrapes; the interval quantiles from the deltas must be ordered.
  const auto buckets = [](const std::vector<PromSample>& samples) {
    std::vector<double> out;  // in exposition order (ascending le, then +Inf)
    for (const PromSample& s : samples) {
      if (s.name == "bloc_serve_e2e_latency_us_bucket") out.push_back(s.value);
    }
    return out;
  };
  const std::vector<double> b1 = buckets(first);
  const std::vector<double> b2 = buckets(second);
  if (b2.empty()) {
    failures.push_back("bloc_serve_e2e_latency_us_bucket missing");
    return failures;
  }
  for (std::size_t i = 1; i < b2.size(); ++i) {
    if (b2[i] < b2[i - 1]) {
      failures.push_back("cumulative latency buckets not monotone in le");
      break;
    }
  }
  if (b1.size() == b2.size()) {
    for (std::size_t i = 0; i < b2.size(); ++i) {
      if (b2[i] < b1[i]) {
        failures.push_back("a cumulative latency bucket shrank between "
                           "scrapes");
        return failures;
      }
    }
    // Interval quantiles from the cumulative-bucket deltas: the first
    // bucket whose interval count reaches the rank. p99 >= p50 by
    // construction of a correct exposition.
    const double total = b2.back() - b1.back();
    const auto interval_bucket = [&](double q) {
      const double target = q * total;
      for (std::size_t i = 0; i < b2.size(); ++i) {
        if (b2[i] - b1[i] >= target) return static_cast<double>(i);
      }
      return static_cast<double>(b2.size());
    };
    if (total > 0.0 && interval_bucket(0.99) < interval_bucket(0.50)) {
      failures.push_back("interval p99 bucket below interval p50 bucket");
    }
  }

  const std::string health = bloc::bench::HttpGet(port, "/healthz");
  if (bloc::bench::HttpStatus(health) != 200) {
    failures.push_back("/healthz did not answer 200 mid-run: " +
                       bloc::bench::HttpBody(health));
  }
  return failures;
}

/// One load-generation pass: `producers` threads push every frame of every
/// tag's rounds (retrying refused pushes, so backpressure never loses a
/// frame and per-tag FIFO order holds), then the service drains. Returns
/// elapsed seconds.
double RunSoakPass(serve::LocalizationService& service,
                   const sim::Dataset& dataset,
                   const std::vector<std::vector<std::size_t>>& picks,
                   std::size_t producers, std::size_t rounds_per_tag,
                   std::atomic<std::uint64_t>& retries) {
  const std::size_t tags = picks.size();
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    workers.emplace_back([&, p] {
      std::uint64_t local_retries = 0;
      // Round-major order: every tag of this producer has round k in
      // flight before round k+1 starts, so assembly runs with thousands
      // of concurrent partial rounds — the multi-tenant steady state.
      for (std::size_t k = 0; k < rounds_per_tag; ++k) {
        for (std::size_t t = p; t < tags; t += producers) {
          const net::MeasurementRound& src = dataset.rounds[picks[t][k]];
          for (const anchor::CsiReport& report : src.reports) {
            anchor::CsiReport frame = report;
            frame.round_id = k;  // round ids are per-tag in the service
            while (!service.Ingest(t, frame)) {
              ++local_retries;
              std::this_thread::yield();
            }
          }
        }
      }
      retries.fetch_add(local_retries, std::memory_order_relaxed);
    });
  }
  for (std::thread& w : workers) w.join();
  if (!service.Drain(std::chrono::milliseconds(600000))) {
    throw std::runtime_error("soak: service did not drain");
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Deterministic per-tag dataset-round picks: tag t's stream is
/// Rng(seed).Fork({t}), so the workload is reproducible at any tag count.
std::vector<std::vector<std::size_t>> MakePicks(std::size_t tags,
                                                std::size_t rounds_per_tag,
                                                std::size_t dataset_rounds) {
  const dsp::Rng root(0x50AC);
  std::vector<std::vector<std::size_t>> picks(tags);
  for (std::size_t t = 0; t < tags; ++t) {
    dsp::Rng rng = root.Fork({t});
    picks[t].reserve(rounds_per_tag);
    for (std::size_t k = 0; k < rounds_per_tag; ++k) {
      picks[t].push_back(static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(dataset_rounds) - 1)));
    }
  }
  return picks;
}

/// `admin` (optional) is attached to each sweep point's service so external
/// clients can scrape /metrics and /healthz mid-run; `scrape_failures`
/// non-null additionally runs the in-bench scrape client per sweep point.
SoakResult RunSoakSweep(const SoakConfig& config, serve::AdminServer* admin,
                        std::vector<std::string>* scrape_failures) {
  std::cerr << "generating fig9 workload (" << config.dataset_locations
            << " locations) for the soak sweep...\n";
  sim::DatasetOptions options;
  options.locations = config.dataset_locations;
  const sim::Dataset dataset =
      sim::GenerateDataset(sim::PaperTestbed(1), options);

  std::cerr << "computing serial reference positions...\n";
  core::LocalizationEngine reference_engine(dataset.deployment,
                                            sim::PaperLocalizerConfig(dataset),
                                            {.threads = 1});
  const std::vector<core::LocationResult> reference =
      reference_engine.LocateBatch(dataset.rounds);

  SoakResult result;
  result.rounds_per_tag = config.rounds_per_tag;

  std::cout << "\n=== multi-tenant soak (fig9 rounds, "
            << config.rounds_per_tag << " rounds/tag, "
            << config.warmup << "+" << config.reps << " passes) ===\n";
  for (const std::size_t tags : config.tags) {
    const std::vector<std::vector<std::size_t>> picks =
        MakePicks(tags, config.rounds_per_tag, dataset.rounds.size());
    for (const std::size_t producers : config.producers) {
      serve::ServiceOptions so;
      so.shed_policy = config.shed_policy;
      serve::LocalizationService service(
          dataset.deployment, sim::PaperLocalizerConfig(dataset), so);

      // The callback runs on the single assembler thread; `delivered`
      // needs no lock. Updates for one tag must arrive in round order
      // and carry the serial engine's exact position.
      std::atomic<std::uint64_t> updates{0};
      std::atomic<std::uint64_t> mismatches{0};
      std::atomic<std::uint64_t> order_violations{0};
      std::vector<std::uint64_t> delivered(tags, 0);
      service.SetUpdateCallback([&](const serve::PositionUpdate& u) {
        updates.fetch_add(1, std::memory_order_relaxed);
        const std::uint64_t expected_round =
            delivered[u.tag_id] % config.rounds_per_tag;
        ++delivered[u.tag_id];
        if (u.round_id != expected_round) {
          order_violations.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        const core::LocationResult& ref =
            reference[picks[u.tag_id][u.round_id]];
        if (u.result.position.x != ref.position.x ||
            u.result.position.y != ref.position.y ||
            u.result.score != ref.score) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      });
      service.Start();
      if (admin != nullptr) admin->Attach(&service);

      // The in-bench scrape client runs concurrently with the measured
      // passes — exactly what an external Prometheus would do.
      std::thread scraper;
      std::vector<std::string> point_failures;
      if (admin != nullptr && scrape_failures != nullptr) {
        scraper = std::thread(
            [&] { point_failures = ScrapeAdminMidRun(admin->port()); });
      }

      const obs::Snapshot before = obs::Snapshot::Capture();
      std::atomic<std::uint64_t> retries{0};
      const bloc::bench::Stats stats = bloc::bench::MeasureRepeated(
          config.warmup, config.reps, [&] {
            const double sec =
                RunSoakPass(service, dataset, picks, producers,
                            config.rounds_per_tag, retries);
            return static_cast<double>(tags * config.rounds_per_tag) / sec;
          });
      const obs::Delta delta =
          obs::Delta::Between(before, obs::Snapshot::Capture());
      if (scraper.joinable()) scraper.join();
      if (admin != nullptr) admin->Attach(nullptr);
      service.Stop();
      if (scrape_failures != nullptr) {
        for (const std::string& failure : point_failures) {
          scrape_failures->push_back(
              "tags=" + std::to_string(tags) + " producers=" +
              std::to_string(producers) + ": " + failure);
        }
      }

      SoakPoint point;
      point.tags = tags;
      point.producers = producers;
      point.rounds_per_sec = stats;
      point.p50_us = IntervalQuantile(delta, "serve.e2e_latency_us", 0.50);
      point.p99_us = IntervalQuantile(delta, "serve.e2e_latency_us", 0.99);
      point.p999_us =
          IntervalQuantile(delta, "serve.e2e_latency_us", 0.999);
      point.retries = retries.load();
      point.counters = service.Counters();
      point.updates = updates.load();
      const std::uint64_t expected = (config.warmup + config.reps) * tags *
                                     config.rounds_per_tag;
      point.lost_rounds =
          expected - std::min<std::uint64_t>(expected, point.updates);
      point.parity_mismatches = mismatches.load();
      point.order_violations = order_violations.load();
      result.points.push_back(point);

      result.total_lost += point.lost_rounds;
      result.total_mismatches += point.parity_mismatches;
      result.total_order_violations += point.order_violations;
      result.total_shed += point.counters.shed_rounds;
      result.total_expired += point.counters.expired_rounds;
      result.total_duplicates += point.counters.duplicate_frames;
      result.worst_p99_us = std::max(result.worst_p99_us, point.p99_us);

      std::cout << "  tags=" << tags << " producers=" << producers
                << " engine_threads=" << service.engine().threads() << "  "
                << stats.mean << " rounds/sec (stddev " << stats.stddev
                << ")  p50=" << point.p50_us / 1e3
                << "ms p99=" << point.p99_us / 1e3
                << "ms p999=" << point.p999_us / 1e3 << "ms  lost="
                << point.lost_rounds << " mismatch="
                << point.parity_mismatches << " retries=" << point.retries
                << "\n";
    }
  }

  // Baseline at the largest tag count: the same picked rounds in global-id
  // order (tag-major), localized by LocateBatch on a bare 1-thread engine —
  // no producers, no ingest, no round assembly.
  result.baseline_tags = config.tags.back();
  std::vector<net::MeasurementRound> baseline_rounds;
  for (const std::vector<std::size_t>& tag_picks : MakePicks(
           result.baseline_tags, config.rounds_per_tag,
           dataset.rounds.size())) {
    for (const std::size_t pick : tag_picks) {
      baseline_rounds.push_back(dataset.rounds[pick]);
    }
  }
  std::cerr << "running bare-engine LocateBatch baseline...\n";
  core::LocalizationEngine baseline_engine(dataset.deployment,
                                           sim::PaperLocalizerConfig(dataset),
                                           {.threads = 1});
  result.baseline_rounds_per_sec = bloc::bench::MeasureRepeated(
      config.warmup, config.reps, [&] {
        const auto start = std::chrono::steady_clock::now();
        const std::vector<core::LocationResult> results =
            baseline_engine.LocateBatch(baseline_rounds);
        bloc::bench::DoNotOptimize(results.data());
        const double sec = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
        return static_cast<double>(baseline_rounds.size()) / sec;
      });

  double best_service = 0.0;
  for (const SoakPoint& p : result.points) {
    if (p.tags == result.baseline_tags) {
      best_service = std::max(best_service, p.rounds_per_sec.mean);
    }
  }
  if (result.baseline_rounds_per_sec.mean > 0.0) {
    result.throughput_ratio =
        best_service / result.baseline_rounds_per_sec.mean;
  }
  std::cout << "  baseline (bare 1-thread engine, tags="
            << result.baseline_tags << ")  "
            << result.baseline_rounds_per_sec.mean
            << " rounds/sec  -> service/baseline throughput ratio x"
            << result.throughput_ratio << "\n";
  return result;
}

// ---------------------------------------------------------------------------
// Wire smoke (--mode=soak --wire): the same multi-tenant replay, but every
// frame crosses a real loopback TCP socket — producer threads each hold a
// TcpTransport connection sending TagCsiReportMsg frames into a TcpServer
// that feeds the LocalizationService. Exercises encode -> socket -> frame
// parse -> decode -> ingest end to end; positions are still checked
// bit-identical to the serial engine and per-tag round order must hold.

struct WireSmoke {
  std::size_t tags = 0;
  std::size_t rounds_per_tag = 0;
  std::size_t producers = 0;
  bloc::bench::Stats rounds_per_sec;
  std::uint64_t updates = 0;
  std::uint64_t expected = 0;
  std::uint64_t lost = 0;
  std::uint64_t refused_frames = 0;
  std::uint64_t parity_mismatches = 0;
  std::uint64_t order_violations = 0;
};

WireSmoke RunWireSmoke(const SoakConfig& config) {
  WireSmoke smoke;
  smoke.tags = std::min<std::size_t>(config.tags.front(), 64);
  smoke.rounds_per_tag = config.rounds_per_tag;
  smoke.producers = config.producers.front();

  std::cerr << "generating fig9 workload (" << config.dataset_locations
            << " locations) for the wire smoke...\n";
  sim::DatasetOptions options;
  options.locations = config.dataset_locations;
  const sim::Dataset dataset =
      sim::GenerateDataset(sim::PaperTestbed(1), options);
  core::LocalizationEngine reference_engine(dataset.deployment,
                                            sim::PaperLocalizerConfig(dataset),
                                            {.threads = 1});
  const std::vector<core::LocationResult> reference =
      reference_engine.LocateBatch(dataset.rounds);
  const std::vector<std::vector<std::size_t>> picks =
      MakePicks(smoke.tags, smoke.rounds_per_tag, dataset.rounds.size());

  const std::uint64_t per_pass =
      static_cast<std::uint64_t>(smoke.tags) * smoke.rounds_per_tag;
  std::atomic<std::uint64_t> updates{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> order_violations{0};

  const auto pass = [&]() -> double {
    serve::ServiceOptions so;
    // The OnMessage path cannot retry a refused frame (TCP gives the sender
    // no backpressure signal), so the ring is sized for the whole pass.
    so.ring_capacity = smoke.tags * smoke.rounds_per_tag *
                       dataset.deployment.anchors.size();
    serve::LocalizationService service(
        dataset.deployment, sim::PaperLocalizerConfig(dataset), so);
    std::atomic<std::uint64_t> pass_updates{0};
    std::vector<std::uint64_t> delivered(smoke.tags, 0);
    service.SetUpdateCallback([&](const serve::PositionUpdate& u) {
      updates.fetch_add(1, std::memory_order_relaxed);
      const std::uint64_t expected_round = delivered[u.tag_id];
      ++delivered[u.tag_id];
      if (u.round_id != expected_round) {
        order_violations.fetch_add(1, std::memory_order_relaxed);
      } else {
        const core::LocationResult& ref =
            reference[picks[u.tag_id][u.round_id]];
        if (u.result.position.x != ref.position.x ||
            u.result.position.y != ref.position.y) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
      pass_updates.fetch_add(1, std::memory_order_release);
    });
    service.Start();
    net::TcpServer server(service);

    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    workers.reserve(smoke.producers);
    for (std::size_t p = 0; p < smoke.producers; ++p) {
      workers.emplace_back([&, p] {
        net::TcpTransport client("127.0.0.1", server.port());
        for (std::size_t k = 0; k < smoke.rounds_per_tag; ++k) {
          for (std::size_t t = p; t < smoke.tags; t += smoke.producers) {
            const net::MeasurementRound& src = dataset.rounds[picks[t][k]];
            for (const anchor::CsiReport& report : src.reports) {
              anchor::CsiReport frame = report;
              frame.round_id = k;
              client.Send(net::TagCsiReportMsg{t, std::move(frame)});
            }
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
    // The sockets may still be draining after the senders return; completion
    // is "every expected update delivered", with a deadline so a lost frame
    // fails the smoke instead of hanging it.
    const auto deadline = start + std::chrono::seconds(120);
    while (pass_updates.load(std::memory_order_acquire) < per_pass &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const double sec = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    server.Stop();
    service.Stop();
    smoke.expected += per_pass;
    smoke.refused_frames += service.Counters().refused_frames;
    return static_cast<double>(per_pass) / sec;
  };

  std::cout << "\n=== wire soak smoke (TCP loopback, tags=" << smoke.tags
            << ", " << smoke.rounds_per_tag << " rounds/tag, "
            << smoke.producers << " connections) ===\n";
  smoke.rounds_per_sec =
      bloc::bench::MeasureRepeated(config.warmup, config.reps, pass);
  smoke.updates = updates.load();
  smoke.lost = smoke.expected - std::min(smoke.expected, smoke.updates);
  smoke.parity_mismatches = mismatches.load();
  smoke.order_violations = order_violations.load();

  std::cout << "  " << smoke.rounds_per_sec.mean << " rounds/sec (stddev "
            << smoke.rounds_per_sec.stddev << ")  updates=" << smoke.updates
            << "/" << smoke.expected << " lost=" << smoke.lost
            << " refused=" << smoke.refused_frames
            << " mismatch=" << smoke.parity_mismatches
            << " order_violations=" << smoke.order_violations << "\n";
  return smoke;
}

void WriteSoakJson(std::ostream& out, const SoakResult& soak) {
  out << ",\n  \"soak\": {\n"
      << "    \"rounds_per_tag\": " << soak.rounds_per_tag << ",\n"
      << "    \"baseline_tags\": " << soak.baseline_tags << ",\n"
      << "    \"baseline_rounds_per_sec\": ";
  soak.baseline_rounds_per_sec.WriteJson(out);
  out << ",\n    \"throughput_ratio\": " << soak.throughput_ratio << ",\n"
      << "    \"total_lost\": " << soak.total_lost << ",\n"
      << "    \"total_parity_mismatches\": " << soak.total_mismatches << ",\n"
      << "    \"total_order_violations\": " << soak.total_order_violations
      << ",\n"
      << "    \"total_shed\": " << soak.total_shed << ",\n"
      << "    \"total_expired\": " << soak.total_expired << ",\n"
      << "    \"total_duplicates\": " << soak.total_duplicates << ",\n"
      << "    \"worst_p99_us\": " << soak.worst_p99_us << ",\n"
      << "    \"points\": [\n";
  for (std::size_t i = 0; i < soak.points.size(); ++i) {
    const SoakPoint& p = soak.points[i];
    out << "      {\"tags\": " << p.tags << ", \"producers\": "
        << p.producers << ", \"rounds_per_sec\": ";
    p.rounds_per_sec.WriteJson(out);
    out << ", \"p50_us\": " << p.p50_us << ", \"p99_us\": " << p.p99_us
        << ", \"p999_us\": " << p.p999_us << ", \"retries\": " << p.retries
        << ", \"admitted\": " << p.counters.admitted_frames
        << ", \"refused\": " << p.counters.refused_frames
        << ", \"shed\": " << p.counters.shed_rounds
        << ", \"expired\": " << p.counters.expired_rounds
        << ", \"duplicates\": " << p.counters.duplicate_frames
        << ", \"localized\": " << p.counters.localized_rounds
        << ", \"updates\": " << p.updates << ", \"lost\": " << p.lost_rounds
        << ", \"parity_mismatches\": " << p.parity_mismatches
        << ", \"order_violations\": " << p.order_violations << "}"
        << (i + 1 < soak.points.size() ? "," : "") << "\n";
  }
  out << "    ]\n  }";
}

void WriteSweepJson(const std::string& path,
                    const std::vector<SweepPoint>* sweep,
                    const KernelComparison* kernels,
                    const FullPhyComparison* fullphy,
                    const std::vector<SweepPoint>* fullphy_sweep,
                    const DatasetSweep* dataset,
                    const ObsOverhead* obs_overhead,
                    const SoakResult* soak,
                    const WireSmoke* wire,
                    std::size_t batch_rounds) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_perf: cannot write " << path << "\n";
    return;
  }
  out << "{\n"
      << "  \"workload\": \"fig9\",\n"
      << "  \"rounds_per_batch\": " << batch_rounds << ",\n"
      << "  \"grid_resolution\": 0.075,\n"
      << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency();
  if (kernels != nullptr) {
    out << ",\n  \"likelihood_map\": {\"reference_ms_per_map\": "
        << kernels->reference_ms_per_map
        << ", \"steering_plan_ms_per_map\": " << kernels->plan_ms_per_map
        << ", \"speedup\": " << kernels->speedup
        << ", \"ns_per_cell_antenna\": " << kernels->ns_per_cell_antenna
        << ", \"isa\": \"" << kernels->isa << "\", \"cpu_model\": \""
        << kernels->cpu_model << "\", \"cores\": " << kernels->cores << "}";
  }
  if (fullphy != nullptr) {
    out << ",\n  \"fullphy_measurement\": {\"reference_ms_per_round\": "
        << fullphy->reference_ms_per_round
        << ", \"planned_ms_per_round\": " << fullphy->planned_ms_per_round
        << ", \"speedup\": " << fullphy->speedup
        << ", \"reference_stats\": ";
    fullphy->reference_stats.WriteJson(out);
    out << ", \"planned_stats\": ";
    fullphy->planned_stats.WriteJson(out);
    out << "}";
  }
  if (obs_overhead != nullptr) {
    out << ",\n  \"observability\": {\"enabled_ms_per_round\": "
        << obs_overhead->enabled_ms_per_round
        << ", \"disabled_ms_per_round\": "
        << obs_overhead->disabled_ms_per_round
        << ", \"overhead_pct\": " << obs_overhead->overhead_pct
        << ", \"enabled_stats\": ";
    obs_overhead->enabled_stats.WriteJson(out);
    out << ", \"disabled_stats\": ";
    obs_overhead->disabled_stats.WriteJson(out);
    out << "}";
  }
  if (soak != nullptr) WriteSoakJson(out, *soak);
  if (wire != nullptr) {
    out << ",\n  \"soak_wire\": {\"tags\": " << wire->tags
        << ", \"rounds_per_tag\": " << wire->rounds_per_tag
        << ", \"producers\": " << wire->producers
        << ", \"updates\": " << wire->updates
        << ", \"expected\": " << wire->expected
        << ", \"lost\": " << wire->lost
        << ", \"refused_frames\": " << wire->refused_frames
        << ", \"parity_mismatches\": " << wire->parity_mismatches
        << ", \"order_violations\": " << wire->order_violations
        << ", \"rounds_per_sec\": ";
    wire->rounds_per_sec.WriteJson(out);
    out << "}";
  }
  if (dataset != nullptr) {
    out << ",\n  \"dataset_store\": {\"locations\": " << dataset->locations
        << ", \"cold_generate_ms\": " << dataset->cold_generate_ms
        << ", \"warm_load_ms\": " << dataset->warm_load_ms
        << ", \"speedup\": " << dataset->speedup
        << ", \"encode_ms\": " << dataset->encode_ms
        << ", \"decode_ms\": " << dataset->decode_ms
        << ", \"file_mb\": " << dataset->file_mb
        << ", \"cold_stats\": ";
    dataset->cold_stats.WriteJson(out);
    out << ", \"warm_stats\": ";
    dataset->warm_stats.WriteJson(out);
    out << ", \"encode_stats\": ";
    dataset->encode_stats.WriteJson(out);
    out << ", \"decode_stats\": ";
    dataset->decode_stats.WriteJson(out);
    out << "}";
  }
  if (fullphy_sweep != nullptr) {
    out << ",\n  \"fullphy_results\": [\n";
    for (std::size_t i = 0; i < fullphy_sweep->size(); ++i) {
      out << "    {\"threads\": " << (*fullphy_sweep)[i].threads
          << ", \"rounds_per_sec\": " << (*fullphy_sweep)[i].rounds_per_sec
          << ", \"speedup_vs_1\": "
          << (*fullphy_sweep)[i].rounds_per_sec /
                 (*fullphy_sweep)[0].rounds_per_sec
          << "}" << (i + 1 < fullphy_sweep->size() ? "," : "") << "\n";
    }
    out << "  ]";
  }
  if (sweep != nullptr) {
    out << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < sweep->size(); ++i) {
      out << "    {\"threads\": " << (*sweep)[i].threads
          << ", \"rounds_per_sec\": " << (*sweep)[i].rounds_per_sec
          << ", \"speedup_vs_1\": "
          << (*sweep)[i].rounds_per_sec / (*sweep)[0].rounds_per_sec << "}"
          << (i + 1 < sweep->size() ? "," : "") << "\n";
    }
    out << "  ]";
  }
  out << "\n}\n";
  std::cout << "  wrote " << path << "\n";
}

// ---------------------------------------------------------------------------
// Regress mode (--mode=regress): replay committed BENCH_*.json baselines.
// Each section a baseline records is re-measured once (shared across
// baseline files) and gated through bench::RegressGate. Sections whose
// workloads have their own dedicated CI jobs (soak, wire, full sweeps) are
// logged as skipped rather than silently ignored.

std::size_t RunRegress(const std::vector<std::string>& paths, double tol_pct,
                       bool gate_abs, std::size_t sweep_rounds,
                       const bloc::bench::CommonFlags& common) {
  using bloc::bench::BaselineCv;
  using bloc::bench::JsonValue;
  bloc::bench::RegressGate gate(tol_pct);
  std::optional<KernelComparison> kernels;
  std::optional<ObsOverhead> obs_overhead;

  for (const std::string& path : paths) {
    std::cout << "\n=== regress vs " << path << " ===\n";
    const std::optional<JsonValue> root = bloc::bench::ParseJsonFile(path);
    if (!root) {
      std::cerr << "bench_perf: cannot read or parse baseline " << path
                << "\n";
      gate.Zero(path + " (parse failure)", 1.0);
      continue;
    }

    if (const JsonValue* base = root->Find("likelihood_map")) {
      if (!kernels) kernels = RunKernelComparison();
      if (const JsonValue* isa = base->Find("isa")) {
        // A baseline that records its ISA gates the absolute kernel time,
        // and only on that ISA: the time moves with the vector width.
        if (!gate_abs) {
          gate.Skip("likelihood_map.ns_per_cell_antenna",
                    "absolute timing, needs --regress-abs");
        } else if (isa->str != kernels->isa) {
          gate.Skip("likelihood_map.ns_per_cell_antenna", "isa");
        } else {
          gate.AtMost("likelihood_map.ns_per_cell_antenna",
                      base->Number("ns_per_cell_antenna"),
                      kernels->ns_per_cell_antenna);
        }
      } else {
        gate.AtLeast("likelihood_map.speedup", base->Number("speedup"),
                     kernels->speedup);
        if (gate_abs) {
          gate.AtMost("likelihood_map.steering_plan_ms_per_map",
                      base->Number("steering_plan_ms_per_map"),
                      kernels->plan_ms_per_map);
        }
      }
    }

    if (const JsonValue* base = root->Find("observability")) {
      if (!obs_overhead) obs_overhead = RunObsOverheadCheck(sweep_rounds);
      // Overhead percentages are noisy near zero: the budget is the larger
      // of the absolute 5% ceiling and baseline + 5 points.
      gate.Budget("observability.overhead_pct",
                  std::max(5.0, base->Number("overhead_pct") + 5.0),
                  obs_overhead->overhead_pct);
    }

    if (const JsonValue* base = root->Find("figure")) {
      const JsonValue* name_node = base->Find("name");
      const std::string name =
          name_node != nullptr ? name_node->str : std::string("figure");
      const std::size_t locations =
          static_cast<std::size_t>(base->Number("locations", 100));
      const std::uint64_t seed =
          static_cast<std::uint64_t>(base->Number("seed", 1));
      const std::size_t threads =
          static_cast<std::size_t>(base->Number("threads", 1));
      std::cerr << "regenerating " << name << " workload (" << locations
                << " locations, seed " << seed << ")...\n";
      sim::DatasetOptions options;
      options.locations = locations;
      const sim::Dataset ds =
          sim::GenerateDataset(sim::PaperTestbed(seed), options);
      core::LocalizerConfig config = sim::PaperLocalizerConfig(ds);
      common.Apply(config);
      std::vector<double> errors;
      const bloc::bench::Stats eval_ms = bloc::bench::MeasureRepeated(
          1, 3, [&] {
            const auto t0 = std::chrono::steady_clock::now();
            errors = sim::EvaluateBloc(ds, config, threads);
            const std::chrono::duration<double, std::milli> ms =
                std::chrono::steady_clock::now() - t0;
            return ms.count() /
                   static_cast<double>(std::max<std::size_t>(
                       ds.rounds.size(), 1));
          });
      const eval::ErrorStats stats = eval::ComputeStats(errors);
      // Accuracy is deterministic for a fixed seed: a tight 10% band
      // catches algorithmic regressions without re-tuning the gate.
      gate.AtMost(name + ".median_error_m", base->Number("median_error_m"),
                  stats.median, 0.0, 10.0);
      gate.AtMost(name + ".p90_error_m", base->Number("p90_error_m"),
                  stats.p90, 0.0, 10.0);
      if (gate_abs) {
        gate.AtMost(name + ".eval_ms_per_round",
                    base->Number("eval_ms_per_round.p50"), eval_ms.p50,
                    BaselineCv(*base, "eval_ms_per_round"));
      }
    }

    for (const char* section :
         {"fullphy_measurement", "fullphy_results", "dataset_store", "soak",
          "soak_wire", "results"}) {
      if (root->Find(section) != nullptr) {
        gate.Skip(section, "covered by its own CI job, not re-run here");
      }
    }
  }

  std::cout << "\n=== regress summary: " << gate.checks() << " checks, "
            << gate.failures() << " failures ===\n";
  return gate.failures();
}

}  // namespace

int main(int argc, char** argv) {
  // The shared --metrics-json/--trace/--threads/--search family goes
  // through bench::CommonFlags::TryParse like every other bench.
  std::string json_path;
  bloc::bench::CommonFlags common;
  std::string mode = "all";  // all | localize | fullphy | dataset | obs |
                             // soak | regress
  std::size_t sweep_rounds = 8;
  std::size_t dataset_locations = 100;
  double obs_guard_pct = -1.0;  // <0: report only, no gate
  SoakConfig soak_config;
  bool soak_wire = false;
  bool soak_guard = false;
  double soak_guard_p99_ms = -1.0;  // <0: no latency budget
  int admin_port = -1;              // <0: no admin endpoint
  bool admin_scrape = false;
  std::vector<std::string> baselines;
  double regress_tol_pct = 35.0;
  bool regress_abs = false;
  const auto parse_csv = [](std::string_view v) {
    std::vector<std::size_t> out;
    while (!v.empty()) {
      const std::size_t comma = v.find(',');
      out.push_back(std::stoul(std::string(v.substr(0, comma))));
      if (comma == std::string_view::npos) break;
      v.remove_prefix(comma + 1);
    }
    return out;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (common.TryParse(arg)) {
      continue;
    }
    if (arg.starts_with("--json=")) {
      json_path = arg.substr(7);
    } else if (arg.starts_with("--obs-guard=")) {
      obs_guard_pct = std::stod(std::string(arg.substr(12)));
    } else if (arg == "--wire") {
      soak_wire = true;
    } else if (arg.starts_with("--sweep-rounds=")) {
      sweep_rounds = std::stoul(std::string(arg.substr(15)));
    } else if (arg.starts_with("--dataset-locations=")) {
      dataset_locations = std::stoul(std::string(arg.substr(20)));
    } else if (arg.starts_with("--tags=")) {
      soak_config.tags = parse_csv(arg.substr(7));
    } else if (arg.starts_with("--producers=")) {
      soak_config.producers = parse_csv(arg.substr(12));
    } else if (arg.starts_with("--rounds-per-tag=")) {
      soak_config.rounds_per_tag = std::stoul(std::string(arg.substr(17)));
    } else if (arg.starts_with("--soak-reps=")) {
      soak_config.reps = std::stoul(std::string(arg.substr(12)));
    } else if (arg.starts_with("--soak-warmup=")) {
      soak_config.warmup = std::stoul(std::string(arg.substr(14)));
    } else if (arg.starts_with("--soak-locations=")) {
      soak_config.dataset_locations =
          std::stoul(std::string(arg.substr(17)));
    } else if (arg.starts_with("--shed-policy=")) {
      const std::string_view policy = arg.substr(14);
      if (policy == "shed-oldest") {
        soak_config.shed_policy = bloc::serve::ShedPolicy::kShedOldest;
      } else if (policy == "refuse-new") {
        soak_config.shed_policy = bloc::serve::ShedPolicy::kRefuseNew;
      } else {
        std::cerr << "bench_perf: --shed-policy must be 'shed-oldest' or "
                     "'refuse-new'\n";
        return 1;
      }
    } else if (arg == "--soak-guard") {
      soak_guard = true;
    } else if (arg.starts_with("--soak-guard=")) {
      soak_guard = true;
      soak_guard_p99_ms = std::stod(std::string(arg.substr(13)));
    } else if (arg.starts_with("--admin-port=")) {
      admin_port = std::stoi(std::string(arg.substr(13)));
    } else if (arg == "--admin-scrape") {
      admin_scrape = true;
    } else if (arg.starts_with("--baseline=")) {
      baselines.emplace_back(arg.substr(11));
    } else if (arg.starts_with("--regress-tol=")) {
      regress_tol_pct = std::stod(std::string(arg.substr(14)));
    } else if (arg == "--regress-abs") {
      regress_abs = true;
    } else if (arg.starts_with("--mode=")) {
      mode = arg.substr(7);
      if (mode != "all" && mode != "localize" && mode != "fullphy" &&
          mode != "dataset" && mode != "obs" && mode != "soak" &&
          mode != "regress") {
        std::cerr << "bench_perf: unknown --mode=" << mode
                  << " (expected all, localize, fullphy, dataset, obs, "
                     "soak or regress)\n";
        return 1;
      }
    } else {
      std::cerr << "bench_perf: unknown argument " << arg << "\n";
      return 1;
    }
  }
  common.ApplyStartup();

  KernelComparison kernels;
  std::vector<SweepPoint> sweep;
  FullPhyComparison fullphy;
  std::vector<SweepPoint> fullphy_sweep;
  DatasetSweep dataset;
  ObsOverhead obs_overhead;
  SoakResult soak;
  WireSmoke wire;
  const bool run_localize = mode == "all" || mode == "localize";
  const bool run_fullphy = mode == "all" || mode == "fullphy";
  const bool run_dataset = mode == "all" || mode == "dataset";
  const bool run_obs = mode == "all" || mode == "obs";
  // Opt-in: minutes of load generation. --wire swaps the in-process sweep
  // for the TCP-loopback smoke.
  const bool run_soak = mode == "soak" && !soak_wire;
  const bool run_wire = mode == "soak" && soak_wire;
  if (mode == "regress") {
    if (baselines.empty()) {
      std::cerr << "bench_perf: --mode=regress needs at least one "
                   "--baseline=PATH\n";
      return 1;
    }
    const std::size_t failures = RunRegress(baselines, regress_tol_pct,
                                            regress_abs, sweep_rounds,
                                            common);
    bloc::bench::FinishObservability(common);
    return failures == 0 ? 0 : 1;
  }
  // The admin endpoint comes up before the (slow) dataset generation so an
  // external scraper attached at launch gets answers immediately; per
  // sweep point the live service is attached behind /healthz.
  std::unique_ptr<serve::AdminServer> admin;
  std::vector<std::string> scrape_failures;
  if (run_soak && (admin_port >= 0 || admin_scrape)) {
    serve::AdminOptions admin_options;
    admin_options.port =
        admin_port >= 0 ? static_cast<std::uint16_t>(admin_port) : 0;
    admin = std::make_unique<serve::AdminServer>(nullptr, admin_options);
    std::cout << "admin endpoint on 127.0.0.1:" << admin->port()
              << " (/metrics /healthz /report)\n";
  }
  if (run_fullphy) {
    fullphy = RunFullPhyComparison();
    fullphy_sweep = RunFullPhyThreadSweep();
  }
  if (run_localize) {
    kernels = RunKernelComparison();
    sweep = RunThroughputSweep(sweep_rounds);
  }
  if (run_dataset) dataset = RunDatasetSweep(dataset_locations);
  if (run_obs) obs_overhead = RunObsOverheadCheck(sweep_rounds);
  if (run_soak) {
    soak = RunSoakSweep(soak_config, admin.get(),
                        admin_scrape ? &scrape_failures : nullptr);
  }
  if (run_wire) wire = RunWireSmoke(soak_config);
  if (!json_path.empty()) {
    WriteSweepJson(json_path, run_localize ? &sweep : nullptr,
                   run_localize ? &kernels : nullptr,
                   run_fullphy ? &fullphy : nullptr,
                   run_fullphy ? &fullphy_sweep : nullptr,
                   run_dataset ? &dataset : nullptr,
                   run_obs ? &obs_overhead : nullptr,
                   run_soak ? &soak : nullptr,
                   run_wire ? &wire : nullptr, sweep_rounds);
  }
  bloc::bench::FinishObservability(common);
  if (!scrape_failures.empty()) {
    for (const std::string& failure : scrape_failures) {
      std::cerr << "bench_perf: admin scrape validation failed: " << failure
                << "\n";
    }
    return 1;
  }
  if (run_obs && obs_guard_pct >= 0.0 &&
      obs_overhead.overhead_pct > obs_guard_pct) {
    std::cerr << "bench_perf: observability overhead "
              << obs_overhead.overhead_pct << "% exceeds the --obs-guard="
              << obs_guard_pct << "% budget\n";
    return 1;
  }
  if (run_wire && soak_guard) {
    bool failed = false;
    const auto fail = [&](const std::string& why) {
      std::cerr << "bench_perf: wire smoke SLO gate failed: " << why << "\n";
      failed = true;
    };
    if (wire.lost > 0) fail(std::to_string(wire.lost) + " updates lost");
    if (wire.refused_frames > 0) {
      fail(std::to_string(wire.refused_frames) + " frames refused");
    }
    if (wire.parity_mismatches > 0) {
      fail(std::to_string(wire.parity_mismatches) + " position mismatches");
    }
    if (wire.order_violations > 0) {
      fail(std::to_string(wire.order_violations) +
           " per-tag order violations");
    }
    if (failed) return 1;
  }
  if (run_soak && soak_guard) {
    // SLO gate: every admitted frame localized exactly once (no loss, no
    // shed, no expiry, no duplicates), every position bit-identical and in
    // per-tag order, throughput no worse than half the bare-engine
    // baseline, and p99 within the optional budget.
    bool failed = false;
    const auto fail = [&](const std::string& why) {
      std::cerr << "bench_perf: soak SLO gate failed: " << why << "\n";
      failed = true;
    };
    if (soak.total_lost > 0) {
      fail(std::to_string(soak.total_lost) + " rounds lost");
    }
    if (soak.total_mismatches > 0) {
      fail(std::to_string(soak.total_mismatches) + " position mismatches");
    }
    if (soak.total_order_violations > 0) {
      fail(std::to_string(soak.total_order_violations) +
           " per-tag order violations");
    }
    if (soak.total_shed > 0) fail(std::to_string(soak.total_shed) +
                                  " rounds shed under a loss-free workload");
    if (soak.total_expired > 0) {
      fail(std::to_string(soak.total_expired) + " rounds expired");
    }
    if (soak.total_duplicates > 0) {
      fail(std::to_string(soak.total_duplicates) + " duplicate frames");
    }
    if (soak.throughput_ratio < 0.5) {
      fail("service/baseline throughput ratio " +
           std::to_string(soak.throughput_ratio) + " below 0.5");
    }
    if (soak_guard_p99_ms >= 0.0 &&
        soak.worst_p99_us > soak_guard_p99_ms * 1e3) {
      fail("worst p99 " + std::to_string(soak.worst_p99_us / 1e3) +
           " ms exceeds the " + std::to_string(soak_guard_p99_ms) +
           " ms budget");
    }
    if (failed) return 1;
  }
  return 0;
}
