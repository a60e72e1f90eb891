// Workload inputs, made from the seed, and the serial references every
// workload's outputs are checked against. Input synthesis (sim/phy/channel/
// link/anchor/geom) is not under test; its cost is reported as sim.round_ms.
#pragma once

#include <cstdint>
#include <vector>

#include "bloc/localizer.h"
#include "common.h"
#include "sim/experiment.h"
#include "track/tracked_localizer.h"

namespace perfbench {

/// Static fig9 rounds from PaperTestbed(seed): 4 anchors, 0.075 m grid, and
/// the serial Localizer::Locate reference position of every round.
struct StaticInputs {
  bloc::sim::Dataset dataset;
  bloc::core::LocalizerConfig config;  // PaperLocalizerConfig, as shipped
  std::vector<bloc::core::LocationResult> reference;
  double synth_ms_per_round = 0.0;

  /// Static tag t sits at fig9 location t % locations; every round of the
  /// tag repeats that location's frames.
  std::size_t LocationOf(std::uint64_t tag) const {
    return static_cast<std::size_t>(tag % dataset.rounds.size());
  }
  Samples ErrorsM() const;
};

StaticInputs MakeStaticInputs(std::uint64_t seed, const Scale& scale);

/// Scenario seed of the room the moving tags cross.
inline constexpr std::uint64_t kMovingRoomSeed = 1;

/// Waypoint-motion tags in the PaperTestbed(kMovingRoomSeed) room, one
/// trajectory per tag drawn from the seed, localized with
/// SearchMode::kCoarseToFine. The reference is one serial TrackedLocalizer
/// pass per tag (raw and tracked positions), which every re-run must
/// reproduce bit for bit.
struct MovingInputs {
  std::vector<bloc::sim::Dataset> tags;
  bloc::core::LocalizerConfig config;  // kCoarseToFine, otherwise as shipped
  bloc::track::TrackedLocalizerConfig track_config;  // defaults: gating on
  std::vector<std::vector<bloc::geom::Vec2>> reference_raw;
  std::vector<std::vector<bloc::geom::Vec2>> reference_tracked;
  double synth_ms_per_round = 0.0;

  std::size_t rounds_per_tag() const {
    return tags.empty() ? 0 : tags.front().rounds.size();
  }
  /// Tracked-position errors of the reference pass against ground truth.
  Samples ErrorsM() const;
};

MovingInputs MakeMovingInputs(std::uint64_t seed, std::size_t tags,
                              std::size_t rounds);

}  // namespace perfbench
