#include "track/tracked_localizer.h"

#include <algorithm>

namespace bloc::track {

TrackedLocalizer::TrackedLocalizer(const core::Localizer& localizer,
                                   const TrackedLocalizerConfig& config)
    : localizer_(&localizer), config_(config), tracker_(config.kalman) {}

void TrackedLocalizer::Reset() {
  tracker_ = KalmanTracker(config_.kalman);
  has_time_ = false;
  last_t_s_ = 0.0;
  accepted_fixes_ = 0;
}

TrackedFix TrackedLocalizer::Locate(const net::MeasurementRound& round,
                                    double t_s,
                                    core::LocalizerWorkspace& ws) {
  const double dt = has_time_ ? t_s - last_t_s_ : 0.0;
  TrackedFix out;

  const bool can_gate =
      config_.gate_search && tracker_.initialized() &&
      accepted_fixes_ >= config_.warmup_fixes &&
      localizer_->config().spectra.search.mode ==
          core::SearchMode::kCoarseToFine;
  if (can_gate) {
    const KalmanPrediction pred = tracker_.Predict(std::max(dt, 0.0));
    ws.gate.active = true;
    ws.gate.center = pred.position;
    ws.gate.radius_m =
        std::max(config_.min_gate_radius_m,
                 config_.gate_sigmas *
                         std::max(pred.position_std.x, pred.position_std.y) +
                     config_.gate_margin_m);
  }
  out.raw = localizer_->Locate(round, ws);
  ws.gate.active = false;

  const bool have_fix = out.raw.anchors_used > 0;
  if (can_gate && have_fix) {
    // The map-stage stats are only this round's when the map stage
    // actually ran (empty rounds return the sentinel before it).
    out.gated = ws.search.stats.gated;
    out.gate_missed = ws.search.stats.gate_missed;
    if (out.gated) ++gated_rounds_;
    if (out.gate_missed) ++gate_misses_;
  }

  if (have_fix) {
    const bool was_initialized = tracker_.initialized();
    out.fix_accepted = tracker_.Update(out.raw.position, dt);
    if (out.fix_accepted) ++accepted_fixes_;
    // The filter state sits at t_s after an initialization or any dt > 0
    // update (a Mahalanobis rejection still advances the prediction); a
    // dt <= 0 rejection leaves it at the previous, later timestamp.
    if (!was_initialized || dt > 0.0) {
      last_t_s_ = t_s;
      has_time_ = true;
    }
  }

  if (tracker_.initialized()) {
    out.tracked_position = tracker_.position();
    out.velocity = tracker_.velocity();
  } else {
    out.tracked_position = out.raw.position;
    out.velocity = {0.0, 0.0};
  }
  return out;
}

}  // namespace bloc::track
