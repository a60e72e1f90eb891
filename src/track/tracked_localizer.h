// Track-while-localize (DESIGN.md §5g): a per-tag stage that closes the
// loop between the Kalman tracker and the map stage. Each round the
// tracker's prediction (position extrapolated by the round's dt, sized by
// the predicted covariance) becomes the LocalizerWorkspace gate, so the
// anchor maps are evaluated only over a cell window around where the tag
// can plausibly be; the fix that comes back updates the tracker. A missed
// gate re-runs the round over the whole grid and is recorded per round, so
// gating can only cost time, never a fix. With gating disabled the
// per-round fixes are bit-identical to the plain Localizer.
#pragma once

#include <cstddef>

#include "bloc/localizer.h"
#include "track/kalman.h"

namespace bloc::track {

struct TrackedLocalizerConfig {
  KalmanConfig kalman;
  /// Feed the prediction into the map stage as a gate. Only effective
  /// when the Localizer's SearchConfig::mode is kCoarseToFine.
  bool gate_search = true;
  /// Gate half-width = gate_sigmas x max per-axis predicted std +
  /// gate_margin_m, floored at min_gate_radius_m. The margin absorbs
  /// un-modelled motion between rounds; the floor keeps very confident
  /// tracks from gating below the scoring halo. 2 sigma is deliberately
  /// tighter than the tracker's Mahalanobis gate: a fix clipped to the
  /// gate's edge is one the innovation gate would likely reject anyway, so
  /// the tight window trades nothing measurable on trajectory error for a
  /// ~50% evaluated-cell saving (bench_traj reports it).
  double gate_sigmas = 2.0;
  double gate_margin_m = 0.3;
  double min_gate_radius_m = 0.75;
  /// Accepted fixes before the first gated round — the velocity estimate is
  /// meaningless until at least two fixes are in.
  std::size_t warmup_fixes = 2;
};

/// One round's output: the raw per-round fix plus the smoothed track state.
struct TrackedFix {
  core::LocationResult raw;
  /// Kalman state after this round's update (equals the raw fix direction
  /// smoothed against history; holds the prediction when the fix was
  /// rejected or empty).
  geom::Vec2 tracked_position;
  geom::Vec2 velocity;
  /// The raw fix passed the tracker's innovation gate and updated the
  /// state (false for empty rounds and Mahalanobis rejections).
  bool fix_accepted = false;
  /// This round's maps ran over a prediction window smaller than the grid.
  bool gated = false;
  /// The gate missed and the round ran over the whole grid.
  bool gate_missed = false;
};

/// Per-tag tracking session over a shared Localizer. Not thread-safe: one
/// instance per tag per thread (the serve layer keeps one per TagSession).
/// The Localizer must outlive the TrackedLocalizer.
class TrackedLocalizer {
 public:
  explicit TrackedLocalizer(const core::Localizer& localizer,
                            const TrackedLocalizerConfig& config = {});

  /// Localizes one round captured at `t_s` (seconds, monotone per tag)
  /// through the gated map stage and updates the tracker with the fix.
  TrackedFix Locate(const net::MeasurementRound& round, double t_s,
                    core::LocalizerWorkspace& ws);

  /// Forgets the track (the next round re-initializes from its raw fix).
  void Reset();

  const KalmanTracker& tracker() const { return tracker_; }
  const TrackedLocalizerConfig& config() const { return config_; }
  /// Rounds whose maps ran gated / whose gate missed.
  std::size_t gated_rounds() const { return gated_rounds_; }
  std::size_t gate_misses() const { return gate_misses_; }

 private:
  const core::Localizer* localizer_;
  TrackedLocalizerConfig config_;
  KalmanTracker tracker_;
  double last_t_s_ = 0.0;
  bool has_time_ = false;
  std::size_t accepted_fixes_ = 0;
  std::size_t gated_rounds_ = 0;
  std::size_t gate_misses_ = 0;
};

}  // namespace bloc::track
