// Shared helpers for the figure-reproduction bench binaries.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "stats.h"

#include "bloc/localizer.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sim/cli.h"
#include "sim/dataset_io.h"
#include "sim/experiment.h"

namespace bloc::bench {

/// Compiler barrier for timed loops: `value` counts as read and all memory
/// as clobbered, so the work that produced it is neither dropped nor moved
/// out of the loop.
template <class T>
inline void DoNotOptimize(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

/// Flags every bench binary shares, parsed in exactly one place:
///   --threads=N        engine/synthesis workers (0 = hardware_concurrency)
///   --metrics-json=P   RunReport JSON at exit
///   --trace=P          Chrome trace JSON at exit (enables tracing)
///   --search=MODE      "exhaustive", or "coarse" to let TrackedLocalizer
///                      gate the map stage with its Kalman prediction
/// CliArgs-based benches call ReadFrom; bench_perf, which parses its own
/// flags too, feeds each argument through TryParse.
struct CommonFlags {
  std::size_t threads = 1;
  std::string metrics_json;
  std::string trace_path;
  std::string search = "exhaustive";

  void ReadFrom(const sim::CliArgs& args) {
    threads = args.Threads();
    metrics_json = args.Str("metrics-json", metrics_json);
    trace_path = args.Str("trace", trace_path);
    search = args.Str("search", search);
  }

  /// Consumes one `--key=value` argument; false leaves it for the caller.
  bool TryParse(std::string_view arg) {
    const auto value = [&](std::string_view key) {
      return arg.substr(key.size());
    };
    if (arg.rfind("--threads=", 0) == 0) {
      const std::string_view v = value("--threads=");
      std::size_t n = 0;
      std::from_chars(v.data(), v.data() + v.size(), n);
      threads = n;
      return true;
    }
    if (arg.rfind("--metrics-json=", 0) == 0) {
      metrics_json = std::string(value("--metrics-json="));
      return true;
    }
    if (arg.rfind("--trace=", 0) == 0) {
      trace_path = std::string(value("--trace="));
      return true;
    }
    if (arg.rfind("--search=", 0) == 0) {
      search = std::string(value("--search="));
      return true;
    }
    return false;
  }

  /// Side effects that must happen before the workload (tracing opt-in).
  void ApplyStartup() const {
    if (!trace_path.empty()) obs::SetTracingEnabled(true);
  }

  /// Applies the --search flag onto an existing localizer config.
  void Apply(core::LocalizerConfig& config) const {
    if (search != "exhaustive" && search != "coarse") {
      throw std::invalid_argument("--search must be 'exhaustive' or 'coarse'");
    }
    config.spectra.search.mode = search == "coarse"
                                     ? core::SearchMode::kCoarseToFine
                                     : core::SearchMode::kExhaustive;
  }
};

struct BenchSetup {
  sim::ScenarioConfig scenario;
  sim::DatasetOptions options;
  std::string csv_path;
  /// --threads / --metrics-json / --trace / --search flags (shared).
  CommonFlags common;
  std::string dataset_cache;  // --dataset-cache=DIR
  std::string save_dataset;   // --save-dataset=PATH (primary dataset)
  std::string load_dataset;   // --load-dataset=PATH (primary dataset)
  std::uint64_t seed = 1;     // --seed=S (recorded in the figure JSON)
  /// Figure-bench stats block (bench::Stats over repeated evaluations):
  ///   --bench-json=PATH  write the machine-readable figure baseline
  ///   --reps=K --warmup=W  measured / discarded evaluation passes
  std::string bench_json;
  std::size_t bench_reps = 3;
  std::size_t bench_warmup = 1;
};

/// Parses `--motion=static|waypoint|walk` (throws on anything else).
inline sim::MotionModel ParseMotionModel(const std::string& name) {
  if (name == "static") return sim::MotionModel::kStatic;
  if (name == "waypoint") return sim::MotionModel::kWaypoint;
  if (name == "walk") return sim::MotionModel::kRandomWalk;
  throw std::invalid_argument(
      "--motion must be 'static', 'waypoint' or 'walk'");
}

/// Common CLI: --locations=N --seed=S --csv=PATH --resolution=R
/// --dataset-cache=DIR --save-dataset=PATH --load-dataset=PATH
/// --motion=MODEL --speed=MPS --round-period=S --waypoints=N
/// plus every CommonFlags flag.
inline BenchSetup ParseSetup(int argc, char** argv,
                             std::size_t default_locations = 250,
                             const std::string& default_motion = "static") {
  sim::CliArgs args(argc, argv);
  BenchSetup setup;
  setup.seed = args.U64("seed", 1);
  setup.scenario = sim::PaperTestbed(setup.seed);
  setup.options.locations = args.SizeT("locations", default_locations);
  setup.options.grid_resolution = args.Double("resolution", 0.075);
  setup.scenario.motion.model =
      ParseMotionModel(args.Str("motion", default_motion));
  setup.scenario.motion.speed_mps =
      args.Double("speed", setup.scenario.motion.speed_mps);
  setup.scenario.motion.round_period_s =
      args.Double("round-period", setup.scenario.motion.round_period_s);
  setup.scenario.motion.waypoint_count =
      args.SizeT("waypoints", setup.scenario.motion.waypoint_count);
  setup.csv_path = args.Str("csv", "");
  setup.common.ReadFrom(args);
  // --threads drives dataset synthesis too: the measurement simulator's
  // per-round fan-out is bit-identical for every thread count.
  setup.options.measurement_threads = setup.common.threads;
  setup.dataset_cache = args.Str("dataset-cache", "");
  setup.save_dataset = args.Str("save-dataset", "");
  setup.load_dataset = args.Str("load-dataset", "");
  setup.bench_json = args.Str("bench-json", "");
  setup.bench_reps = args.SizeT("reps", setup.bench_reps);
  setup.bench_warmup = args.SizeT("warmup", setup.bench_warmup);
  setup.common.ApplyStartup();
  return setup;
}

/// Times repeated whole-dataset evaluations (--warmup discarded, --reps
/// measured) and summarizes milliseconds per round; `fn` returns the
/// per-location error vector and the last run's errors land in `errors`
/// (every run is bit-identical, so which run's errors survive is moot).
template <typename Fn>
Stats MeasureEvaluation(const BenchSetup& setup, std::size_t rounds,
                        std::vector<double>& errors, Fn&& fn) {
  return MeasureRepeated(setup.bench_warmup, setup.bench_reps, [&] {
    const auto t0 = std::chrono::steady_clock::now();
    errors = fn();
    const std::chrono::duration<double, std::milli> ms =
        std::chrono::steady_clock::now() - t0;
    return ms.count() / static_cast<double>(std::max<std::size_t>(rounds, 1));
  });
}

/// Machine-readable baseline for one figure bench: the deterministic
/// accuracy numbers (seed-reproducible, so --mode=regress can check them
/// exactly) plus a bench::Stats block over the repeated evaluation timing
/// (machine-dependent; regress compares it only under --regress-abs).
inline bool WriteFigureJson(const std::string& path, const std::string& figure,
                            const BenchSetup& setup,
                            const eval::ErrorStats& errors,
                            const Stats& eval_ms_per_round) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "[bench] cannot write " << path << "\n";
    return false;
  }
  out << "{\n  \"figure\": {\n";
  out << "    \"name\": \"" << figure << "\",\n";
  out << "    \"locations\": " << setup.options.locations << ",\n";
  out << "    \"seed\": " << setup.seed << ",\n";
  out << "    \"threads\": " << setup.common.threads << ",\n";
  out << "    \"median_error_m\": " << errors.median << ",\n";
  out << "    \"p90_error_m\": " << errors.p90 << ",\n";
  out << "    \"eval_ms_per_round\": ";
  eval_ms_per_round.WriteJson(out);
  out << "\n  }\n}\n";
  std::cerr << "[bench] wrote " << path << "\n";
  return true;
}

/// Exports the observability artifacts the flags asked for. Call once at the
/// end of main, after the workload (DESIGN.md §5d).
inline void FinishObservability(const std::string& metrics_json,
                                const std::string& trace_path) {
  if (!metrics_json.empty()) {
    if (obs::RunReport::Capture().WriteJsonFile(metrics_json)) {
      std::cerr << "[obs] wrote metrics " << metrics_json << "\n";
    }
  }
  if (!trace_path.empty()) {
    if (obs::WriteChromeTraceFile(trace_path)) {
      std::cerr << "[obs] wrote trace " << trace_path << " ("
                << obs::TraceDroppedEvents() << " events dropped)\n";
    }
  }
}

inline void FinishObservability(const CommonFlags& common) {
  FinishObservability(common.metrics_json, common.trace_path);
}

inline void FinishObservability(const BenchSetup& setup) {
  FinishObservability(setup.common);
}

/// Shared obtain/evaluate policy for the bench binaries — the paper's
/// generate-once/replay-many harness (§7):
///   --load-dataset=PATH  replay a recorded dataset instead of synthesizing
///   --dataset-cache=DIR  content-addressed store reused across runs and
///                        across every bench binary with the same scenario
///   --save-dataset=PATH  persist the primary dataset after obtaining it
/// Falls back to in-memory generation when no flag is given.
class ExperimentDriver {
 public:
  explicit ExperimentDriver(BenchSetup setup) : setup_(std::move(setup)) {
    if (!setup_.dataset_cache.empty()) store_.emplace(setup_.dataset_cache);
  }

  const BenchSetup& setup() const { return setup_; }
  sim::DatasetStore* store() { return store_ ? &*store_ : nullptr; }

  /// The bench's primary dataset (lazy; synthesized/loaded on first use).
  const sim::Dataset& dataset() {
    if (!primary_) {
      primary_ = ObtainPrimary();
      if (!setup_.save_dataset.empty()) {
        const std::uint64_t fp =
            sim::Fingerprint(setup_.scenario, setup_.options);
        sim::SaveDataset(setup_.save_dataset, *primary_, fp);
        std::cerr << "[dataset] saved " << setup_.save_dataset << "\n";
      }
    }
    return *primary_;
  }

  /// The paper localizer config for `dataset` with the shared --search flag
  /// applied — every bench
  /// evaluates through this so the flags reach the whole suite.
  core::LocalizerConfig LocalizerConfig(const sim::Dataset& dataset) const {
    core::LocalizerConfig config = sim::PaperLocalizerConfig(dataset);
    setup_.common.Apply(config);
    return config;
  }

  /// Same store policy for additional datasets (the ablations build their
  /// own scenarios); --load/--save apply to the primary dataset only.
  sim::Dataset Obtain(const sim::ScenarioConfig& scenario,
                      sim::DatasetOptions options) {
    AttachProgress(options);
    if (!store_) return sim::GenerateDataset(scenario, options);
    const std::uint64_t fp = sim::Fingerprint(scenario, options);
    const std::size_t hits_before = store_->hits();
    sim::Dataset dataset = store_->GetOrGenerate(scenario, options);
    const bool hit = store_->hits() > hits_before;
    std::cerr << "[dataset] cache " << (hit ? "hit" : "miss") << " fp="
              << std::hex << fp << std::dec << " ("
              << dataset.rounds.size() << " rounds) at "
              << store_->PathFor(fp).string() << "\n";
    return dataset;
  }

 private:
  sim::Dataset ObtainPrimary() {
    if (!setup_.load_dataset.empty()) {
      sim::LoadedDataset loaded = sim::LoadDataset(setup_.load_dataset);
      const std::uint64_t expected =
          sim::Fingerprint(setup_.scenario, setup_.options);
      std::cerr << "[dataset] loaded " << setup_.load_dataset << " ("
                << loaded.dataset.rounds.size() << " rounds)\n";
      if (loaded.fingerprint != expected) {
        std::cerr << "[dataset] note: recorded fingerprint " << std::hex
                  << loaded.fingerprint << " differs from the flags' "
                  << expected << std::dec
                  << "; replaying the recorded measurements\n";
      }
      return std::move(loaded.dataset);
    }
    return Obtain(setup_.scenario, setup_.options);
  }

  static void AttachProgress(sim::DatasetOptions& options) {
    options.progress = [](std::size_t done, std::size_t total) {
      if (done % 100 == 0 || done == total) {
        std::cerr << "  measured " << done << "/" << total << " locations\r";
        if (done == total) std::cerr << "\n";
      }
    };
  }

  BenchSetup setup_;
  std::optional<sim::DatasetStore> store_;
  std::optional<sim::Dataset> primary_;
};

inline std::string FmtCm(double metres) {
  return eval::Fmt(metres * 100.0, 1) + " cm";
}

}  // namespace bloc::bench
