// Layer probes of a traced run: benchmark-side timers around the public
// stage functions of one layer, on the workload's own inputs.
#pragma once

#include <string>
#include <vector>

#include "bloc/localizer.h"
#include "common.h"
#include "inputs.h"

namespace perfbench {

/// Times the bloc stages serially on one LocalizerWorkspace for `seconds`:
/// FilterInto, CorrectInto (+FuseOrder), each AnchorMapInto, FusedMapInto,
/// ScoreFused, and a whole Locate. Fills bloc.* (medians, us),
/// bloc.unaccounted_frac (Locate minus the stage sum, over Locate) and
/// dsp.map_gterms_per_s (cells x antennas x bands / AnchorMapInto time).
/// `budget` receives the human-readable budget table.
MetricTable ProbeBlocStages(
    const bloc::core::Deployment& deployment,
    const bloc::core::LocalizerConfig& config,
    const std::vector<bloc::net::MeasurementRound>& rounds, double seconds,
    std::vector<std::string>& budget);

struct EngineScaling {
  double one_thread_rounds_per_s = 0.0;
  double nproc_rounds_per_s = 0.0;
  std::size_t threads = 0;
  /// nproc rate / (threads x 1-thread rate).
  double efficiency() const {
    return one_thread_rounds_per_s <= 0.0
               ? 0.0
               : nproc_rounds_per_s /
                     (static_cast<double>(threads) * one_thread_rounds_per_s);
  }
};

/// LocateBatch rounds/s at 1 thread and at the default (nproc) threads, for
/// `seconds` each, on the static rounds.
EngineScaling ProbeEngineScaling(const StaticInputs& in, double seconds);

}  // namespace perfbench
