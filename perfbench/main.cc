// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale full|tiny]
//
// Workloads: locate_batch, serve_paced, serve_flood, track_moving (see
// workloads.h and interactions.json). Inputs come from the seed only. The
// run prints a human-readable report, one {"meta": ...} line with the host
// and build, and as its last line one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A traced run measures the workload untraced and traced for
// half the time each (trace_overhead_frac.*) and adds the layer probes.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "common.h"
#include "inputs.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {
namespace {

const char* const kWorkloads[] = {"locate_batch", "serve_paced",
                                  "serve_flood", "track_moving"};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <locate_batch|serve_paced|"
               "serve_flood|track_moving> --seed <n> --seconds <s> "
               "--trace <0|1> [--scale full|tiny]\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--scale") {
        if (value == "tiny") {
          args.scale = Scale::Tiny();
        } else if (value != "full") {
          Usage("unknown scale " + value);
        }
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) Usage("--workload is required");
  bool known = false;
  for (const char* w : kWorkloads) known = known || args.workload == w;
  if (!known) Usage("unknown workload " + args.workload);
  if (!(args.seconds > 0.0)) Usage("--seconds must be positive");
  return args;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void PrintTable(const char* title, const MetricTable& table) {
  std::cout << title << "\n";
  for (const auto& [name, m] : table) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-36s %14.6g %s", name.c_str(),
                  m.value, m.unit.c_str());
    std::cout << line << "\n";
  }
}

std::string MetricsJson(const MetricTable& table) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, m] : table) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << Num(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}";
  return out.str();
}

/// The inputs one process needs, made lazily from the seed.
class Inputs {
 public:
  Inputs(const Args& args) : args_(args) {}
  const StaticInputs& Static() {
    if (!static_) static_ = MakeStaticInputs(args_.seed, args_.scale);
    return *static_;
  }
  const MovingInputs& Moving(std::size_t tags) {
    if (!moving_ || moving_->tags.size() != tags) {
      moving_ = MakeMovingInputs(args_.seed, tags, args_.scale.moving_rounds);
    }
    return *moving_;
  }

 private:
  const Args& args_;
  std::optional<StaticInputs> static_;
  std::optional<MovingInputs> moving_;
};

WorkloadResult Run(const std::string& workload, Inputs& inputs,
                   const RunSpec& spec, const Scale& scale, Oracle& oracle) {
  if (workload == "locate_batch") {
    return RunLocateBatch(inputs.Static(), spec, oracle);
  }
  if (workload == "serve_paced") {
    return RunServePaced(inputs.Static(), spec, oracle);
  }
  if (workload == "serve_flood") {
    return RunServeFlood(inputs.Static(), spec, oracle);
  }
  return RunTrackMoving(inputs.Moving(scale.moving_tags), spec, oracle);
}

/// End-to-end metrics of one (untraced) workload run.
MetricTable EndToEnd(const WorkloadResult& r) {
  MetricTable m;
  m["setup_s"] = {r.setup_s, "s"};
  m["rounds_per_s"] = {r.rounds_per_s, "rounds/s"};
  m["fix_latency_p50_ms"] = {r.latency_ms.Quantile(0.50), "ms"};
  return m;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Scale& scale = args.scale;
  std::cout << "perfbench workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace << "\n";

  Inputs inputs(args);
  Oracle oracle;
  RunSpec spec;
  spec.seconds = args.seconds;
  spec.warmup_s = scale.warmup_s;
  spec.setups = scale.setup_repeats;
  spec.serve_tags = scale.serve_tags;
  spec.paced_rate = scale.paced_rate;

  const bool moving = args.workload == "track_moving";
  const double synth_ms = moving
      ? inputs.Moving(scale.moving_tags).synth_ms_per_round
      : inputs.Static().synth_ms_per_round;
  const Samples errors = moving ? inputs.Moving(scale.moving_tags).ErrorsM()
                                : inputs.Static().ErrorsM();

  MetricTable e2e, layer;
  bool generator_behind = false;
  std::vector<std::string> budget;
  if (!args.trace) {
    const WorkloadResult r = Run(args.workload, inputs, spec, scale, oracle);
    e2e = EndToEnd(r);
    std::cout << "peak_rss_mb " << PeakRssMb() << " MB\n";
    generator_behind = r.generator_behind;
    // The tails swing with host stalls far more than any end-to-end bound
    // allows, so they are printed here and reported per layer.
    std::cout << "fix latency: " << r.latency_ms.size() << " samples, p95 "
              << r.latency_ms.Quantile(0.95) << " ms, p99 "
              << r.latency_ms.Quantile(0.99) << " ms"
              << (r.latency_ms.size() >= 1000 ? "" : " (fewer than 10 beyond)")
              << "\n";
  } else {
    // Untraced then traced, half the time each: the difference is the
    // tracing overhead.
    RunSpec half = spec;
    half.seconds = args.seconds / 2.0;
    half.setups = 1;
    const WorkloadResult plain =
        Run(args.workload, inputs, half, scale, oracle);
    half.trace = true;
    const WorkloadResult traced =
        Run(args.workload, inputs, half, scale, oracle);
    generator_behind = plain.generator_behind || traced.generator_behind;
    layer = traced.layer;
    layer["trace_overhead_frac.rounds_per_s"] = {
        plain.rounds_per_s / traced.rounds_per_s - 1.0, "ratio"};
    layer["trace_overhead_frac.fix_latency_p50_ms"] = {
        traced.latency_ms.Median() / plain.latency_ms.Median() - 1.0, "ratio"};
    layer["fix_latency_p95_ms"] = {traced.latency_ms.Quantile(0.95), "ms"};
    layer["fix_latency_p99_ms"] = {traced.latency_ms.Quantile(0.99), "ms"};
    layer["gen.lag_p99_ms"] = {traced.gen_lag_ms.Quantile(0.99), "ms"};
    layer["gen.rounds_sent"] = {static_cast<double>(traced.rounds_sent),
                                "rounds"};

    // Layers this workload does not run are probed briefly on the same
    // seed's inputs, so every traced run reports every layer.
    RunSpec probe;
    probe.seconds = scale.probe_s;
    probe.warmup_s = scale.warmup_s / 5.0;
    probe.setups = 1;
    probe.trace = true;
    probe.serve_tags = scale.serve_tags;
    probe.paced_rate = scale.paced_rate;

    const StaticInputs& st = inputs.Static();
    if (moving) {
      const MovingInputs& mv = inputs.Moving(scale.moving_tags);
      layer.merge(ProbeBlocStages(mv.tags.front().deployment, mv.config,
                                  mv.tags.front().rounds, scale.probe_s,
                                  budget));
    } else {
      layer.merge(ProbeBlocStages(st.dataset.deployment, st.config,
                                  st.dataset.rounds, scale.probe_s, budget));
    }
    budget.push_back("  map kernel rate " +
                     std::to_string(layer["dsp.map_gterms_per_s"].value) +
                     " Gterm/s with the " + ActiveIsaName() + " kernels");
    const EngineScaling scaling = ProbeEngineScaling(st, scale.probe_s / 2.0);
    layer["engine.scaling_eff"] = {scaling.efficiency(), "ratio"};
    layer["engine.threads"] = {static_cast<double>(scaling.threads), "threads"};

    double flood_rate = traced.rounds_per_s;
    if (args.workload != "serve_paced") {
      layer.merge(RunServePaced(st, probe, oracle).layer);
    }
    if (args.workload == "locate_batch" || moving) {
      const WorkloadResult flood = RunServeFlood(st, probe, oracle);
      flood_rate = flood.rounds_per_s;
      for (const auto& [name, m] : flood.layer) layer[name] = m;
    }
    if (args.workload == "serve_paced") {
      flood_rate = RunServeFlood(st, probe, oracle).rounds_per_s;
    }
    const double batch_rate = args.workload == "locate_batch"
                                  ? traced.rounds_per_s
                                  : scaling.nproc_rounds_per_s;
    layer["serve.to_batch_ratio"] = {flood_rate / batch_rate, "ratio"};
    if (!moving) {
      layer.merge(RunTrackMoving(inputs.Moving(1), probe, oracle).layer);
    }
    layer["sim.round_ms"] = {synth_ms, "ms"};
    layer["median_error_m"] = {errors.Median(), "m"};
    layer["p90_error_m"] = {errors.Quantile(0.90), "m"};

    if (args.workload == "serve_paced") {
      // Where a fix's time goes below saturation: socket transit, then the
      // service's ingest-to-update latency, against the due-to-callback
      // latency the user sees.
      const double fix_ms = traced.latency_ms.Median();
      const double transit_ms = layer["net.transit_us_p50"].value / 1e3;
      const double update_ms = layer["serve.update_latency_p50_ms"].value;
      const double lag_ms = traced.gen_lag_ms.Median();
      char line[160];
      budget.push_back("serve_paced latency budget (medians):");
      const auto row = [&](const char* name, double ms) {
        std::snprintf(line, sizeof(line), "  %-28s %10.3f ms  %6.1f%%", name,
                      ms, 100.0 * ms / fix_ms);
        budget.push_back(line);
      };
      row("generator lag", lag_ms);
      row("net transit", transit_ms);
      row("serve update latency", update_ms);
      row("unaccounted", fix_ms - lag_ms - transit_ms - update_ms);
      row("fix latency", fix_ms);
    }
  }

  if (args.trace) {
    layer["peak_rss_mb"] = {PeakRssMb(), "MB"};
  }
  const double failed_frac =
      oracle.attempted() == 0
          ? 1.0
          : static_cast<double>(oracle.failed()) /
                static_cast<double>(oracle.attempted());
  if (args.trace) layer["failed_frac"] = {failed_frac, "ratio"};
  std::cout << "rounds checked against the serial reference: "
            << oracle.attempted() << ", failed " << oracle.failed()
            << " (failed_frac " << failed_frac << ") " << oracle.Reasons()
            << "\n";
  std::cout << "accuracy: median_error_m " << errors.Median()
            << " m, p90_error_m " << errors.Quantile(0.90) << " m over "
            << errors.size() << " rounds\n";
  if (generator_behind) {
    std::cout << "WARNING: the open-loop generator fell behind its schedule; "
                 "this run's latency is not valid\n";
  }
  for (const std::string& line : budget) std::cout << line << "\n";
  PrintTable(args.trace ? "per-layer metrics:" : "end-to-end metrics:",
             args.trace ? layer : e2e);

  std::cout << "{\"meta\": {\"workload\": \"" << args.workload
            << "\", \"seed\": " << args.seed << ", \"seconds\": "
            << Num(args.seconds) << ", \"trace\": " << args.trace
            << ", \"generator_behind\": "
            << (generator_behind ? "true" : "false")
            << ", \"host\": " << HostMetadataJson() << "}}\n";
  const bool correct = oracle.failed() == 0 && oracle.attempted() > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << oracle.attempted()
            << ", \"failed\": " << oracle.failed() << ", \"metrics\": "
            << MetricsJson(args.trace ? layer : e2e) << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
