// The four workloads. Each builds the program with its shipped defaults
// (only the fields the workload defines are set), times `setups` fresh
// set-ups to the first result, measures for `seconds` after a warm-up, and
// checks every output against the serial reference through the Oracle.
// With `trace` on, benchmark-side timers around the public calls fill
// WorkloadResult::layer with the workload's own per-layer metrics.
#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "inputs.h"

namespace perfbench {

struct RunSpec {
  double seconds = 10.0;
  double warmup_s = 0.5;
  std::size_t setups = 5;
  bool trace = false;
  std::size_t serve_tags = 1000;
  double paced_rate = 150.0;
};

struct WorkloadResult {
  /// Median over RunSpec::setups of build-the-program-to-first-result.
  double setup_s = 0.0;
  /// Rounds fully delivered per second in the measured window.
  double rounds_per_s = 0.0;
  /// Per-result latency (ms) from when the input was due to its result.
  Samples latency_ms;
  /// How late the generator issued each unit of work (ms): against the
  /// schedule for an open loop, against the previous completion for a
  /// closed loop.
  Samples gen_lag_ms;
  std::uint64_t rounds_sent = 0;
  /// An open-loop run whose generator could not hold its schedule: its
  /// latency is not valid.
  bool generator_behind = false;
  /// In-situ per-layer metrics (traced runs only).
  MetricTable layer;
};

WorkloadResult RunLocateBatch(const StaticInputs& in, const RunSpec& spec,
                              Oracle& oracle);
WorkloadResult RunServePaced(const StaticInputs& in, const RunSpec& spec,
                             Oracle& oracle);
WorkloadResult RunServeFlood(const StaticInputs& in, const RunSpec& spec,
                             Oracle& oracle);
WorkloadResult RunTrackMoving(const MovingInputs& in, const RunSpec& spec,
                              Oracle& oracle);

/// Checks one raw result against the serial reference position.
void CheckFix(const bloc::geom::Vec2& got, const bloc::geom::Vec2& want,
              Oracle& oracle);

}  // namespace perfbench
