#include "sim/experiment.h"

#include <stdexcept>

#include "eval/metrics.h"
#include "net/transport.h"
#include "obs/trace.h"
#include "sim/dataset_io.h"
#include "sim/vicon.h"

namespace bloc::sim {

namespace {

/// The receiving end of GenerateDataset's transport: keeps every decoded
/// report in arrival order.
struct ReportRecorder : net::MessageSink {
  std::vector<anchor::CsiReport> reports;

  void OnMessage(const net::Message& msg) override {
    if (const auto* m = std::get_if<net::CsiReportMsg>(&msg)) {
      reports.push_back(m->report);
    }
  }
};

}  // namespace

dsp::GridSpec RoomGrid(const ScenarioConfig& config, double resolution,
                       double margin) {
  dsp::GridSpec spec;
  spec.x_min = -margin;
  spec.y_min = -margin;
  spec.x_max = config.room_width + margin;
  spec.y_max = config.room_height + margin;
  spec.resolution = resolution;
  return spec;
}

Dataset GenerateDataset(const ScenarioConfig& config,
                        const DatasetOptions& options, DatasetWriter* writer) {
  obs::TraceSpan setup_span("sim.stream.setup", "sim");
  Testbed testbed(config);
  MeasurementSimulator sim(testbed, options.measurement_threads);
  sim.SetChannelMap(options.channel_map);
  ViconSystem vicon{dsp::Rng(config.seed)};

  // Reports travel through the real framing/decoding path, exactly as
  // they would over TCP, and are recorded as they come off the wire.
  ReportRecorder recorder;
  net::InProcTransport transport(recorder);

  Dataset dataset;
  dataset.deployment = testbed.deployment();
  dataset.room_grid = RoomGrid(config, options.grid_resolution);
  if (writer != nullptr) writer->Begin(dataset.deployment, dataset.room_grid);

  // Each round re-solves the tag's channel at the trajectory's current
  // pose; kStatic reproduces the historical independent-position sampling
  // bit for bit (sim/motion.h).
  const std::vector<TimedPose> trajectory = SampleTrajectory(
      testbed, config.motion, options.locations, options.position_seed);
  dataset.rounds.reserve(trajectory.size());
  dataset.truths.reserve(trajectory.size());
  dataset.timestamps.reserve(trajectory.size());

  setup_span.End();
  for (std::size_t i = 0; i < trajectory.size(); ++i) {
    obs::TraceSpan round_span("sim.stream.round", "sim", i);
    const net::MeasurementRound produced =
        sim.RunRound(trajectory[i].position, i);
    for (const anchor::CsiReport& report : produced.reports) {
      transport.Send(net::CsiReportMsg{report});
    }
    if (recorder.reports.size() != produced.reports.size()) {
      throw std::runtime_error("GenerateDataset: round did not complete");
    }
    dataset.rounds.push_back(
        net::MeasurementRound{i, std::move(recorder.reports)});
    recorder.reports.clear();
    dataset.truths.push_back(vicon.Measure(trajectory[i].position));
    dataset.timestamps.push_back(trajectory[i].t_s);
    if (writer != nullptr) {
      writer->Append(trajectory[i].t_s, dataset.truths.back(),
                     dataset.rounds.back());
    }
    if (options.progress) options.progress(i + 1, trajectory.size());
  }
  return dataset;
}

std::vector<double> EvaluateBloc(const Dataset& dataset,
                                 const core::LocalizerConfig& config,
                                 std::size_t threads) {
  core::LocalizationEngine engine(dataset.deployment, config,
                                  {.threads = threads});
  const std::vector<core::LocationResult> results =
      engine.LocateBatch(dataset.rounds);
  std::vector<double> errors;
  errors.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    errors.push_back(
        eval::LocalizationError(results[i].position, dataset.truths[i]));
  }
  return errors;
}

std::vector<double> EvaluateAoa(const Dataset& dataset,
                                baseline::AoaBaselineConfig config) {
  const baseline::AoaBaseline baseline(dataset.deployment, std::move(config));
  std::vector<double> errors;
  errors.reserve(dataset.rounds.size());
  for (std::size_t i = 0; i < dataset.rounds.size(); ++i) {
    const baseline::AoaResult result = baseline.Locate(dataset.rounds[i]);
    errors.push_back(
        eval::LocalizationError(result.position, dataset.truths[i]));
  }
  return errors;
}

std::vector<double> EvaluateRssi(const Dataset& dataset,
                                 baseline::RssiBaselineConfig config) {
  const baseline::RssiBaseline baseline(dataset.deployment, std::move(config));
  std::vector<double> errors;
  errors.reserve(dataset.rounds.size());
  for (std::size_t i = 0; i < dataset.rounds.size(); ++i) {
    const baseline::RssiResult result = baseline.Locate(dataset.rounds[i]);
    errors.push_back(
        eval::LocalizationError(result.position, dataset.truths[i]));
  }
  return errors;
}

core::LocalizerConfig PaperLocalizerConfig(const Dataset& dataset) {
  core::LocalizerConfig config;
  config.grid = dataset.room_grid;
  config.scoring.a = 0.1;                     // paper §7
  config.scoring.b = 0.05;                    // paper §7
  config.scoring.entropy_window_radius = 3;   // 7x7 circular window
  config.scoring.mode = core::SelectionMode::kBlocScore;
  return config;
}

}  // namespace bloc::sim
