// Experiment orchestration: generates the evaluation dataset (the paper's
// 1700 measured tag positions, §7) by running measurement rounds and
// shipping every report through the wire codec, then evaluates localizers
// against the recorded rounds. Generating once and
// evaluating many configurations mirrors the paper's methodology (same
// measurements, different processing).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "baseline/aoa_baseline.h"
#include "baseline/rssi_baseline.h"
#include "bloc/engine.h"
#include "bloc/localizer.h"
#include "net/messages.h"
#include "sim/measurement.h"
#include "sim/motion.h"
#include "sim/testbed.h"

namespace bloc::sim {

struct Dataset {
  core::Deployment deployment;
  std::vector<geom::Vec2> truths;  // VICON-measured ground-truth poses
  /// Per-round capture timestamps (seconds from trajectory start). Static
  /// datasets carry them too (round_period_s spacing); format-v1 files load
  /// with synthesized 1 Hz timestamps.
  std::vector<double> timestamps;
  std::vector<net::MeasurementRound> rounds;
  dsp::GridSpec room_grid;  // search grid matching the scenario's room
};

struct DatasetOptions {
  std::size_t locations = 250;
  double grid_resolution = 0.075;
  /// Channel map used during collection (Fig. 11 blacklisting).
  link::ChannelMap channel_map;
  /// When nonzero, tag positions are sampled from this seed instead of the
  /// scenario seed — lets two datasets share the identical environment
  /// (scatterers, shadowing) while visiting different positions, e.g. the
  /// fingerprinting survey/query split.
  std::uint64_t position_seed = 0;
  /// Worker threads for the measurement simulator's per-round fan-out
  /// (1 = inline, 0 = all hardware threads). Output is bit-identical for
  /// every thread count.
  std::size_t measurement_threads = 1;
  /// Progress callback, called after each location (may be empty).
  std::function<void(std::size_t done, std::size_t total)> progress;
};

class DatasetWriter;  // sim/dataset_io.h

/// Runs `options.locations` measurement rounds on a fresh testbed built
/// from `config`. Each round's reports travel through EncodeFrame/TCP-style
/// framing and are recorded as decoded. Rounds are produced in index order
/// and the output is bit-identical for every thread count. When `writer`
/// is given, its Begin is called once the deployment is calibrated and
/// every recorded round is appended to it as it is produced, with no
/// full-dataset barrier (see sim/dataset_io.h).
Dataset GenerateDataset(const ScenarioConfig& config,
                        const DatasetOptions& options,
                        DatasetWriter* writer = nullptr);

/// Localization errors (metres) of the BLoc pipeline over the dataset.
/// Rounds are processed by a LocalizationEngine batch with `threads`
/// workers (0 = hardware_concurrency); results are bit-identical for every
/// thread count.
std::vector<double> EvaluateBloc(const Dataset& dataset,
                                 const core::LocalizerConfig& config,
                                 std::size_t threads = 0);

/// Errors of the AoA-combining baseline over the dataset.
std::vector<double> EvaluateAoa(const Dataset& dataset,
                                baseline::AoaBaselineConfig config);

/// Errors of the RSSI trilateration baseline over the dataset.
std::vector<double> EvaluateRssi(const Dataset& dataset,
                                 baseline::RssiBaselineConfig config);

/// Grid spec covering the scenario's room plus `margin` metres.
dsp::GridSpec RoomGrid(const ScenarioConfig& config, double resolution = 0.075,
                       double margin = 0.0);

/// LocalizerConfig preset matching the paper's parameters (§7) for a
/// dataset's room grid.
core::LocalizerConfig PaperLocalizerConfig(const Dataset& dataset);

}  // namespace bloc::sim
