// Constant-velocity Kalman tracking over BLoc position fixes. The paper's
// motivating applications (pets, keys, factory assets) are moving targets
// observed at ~1 fix per localization round; a small filter over the fixes
// smooths per-round outliers and yields velocity estimates.
#pragma once

#include <cstddef>

#include "geom/vec2.h"

namespace bloc::track {

struct KalmanConfig {
  /// Process noise: std-dev of the white acceleration (m/s^2).
  double accel_std = 1.0;
  /// Measurement noise: std-dev of a BLoc fix (m). The paper's median error
  /// is ~0.86 m, so ~0.7 is a reasonable per-axis default.
  double fix_std = 0.7;
  /// Mahalanobis gate: fixes further than this many sigmas from the
  /// prediction are rejected as outliers (0 disables gating).
  double gate_sigmas = 4.0;
};

/// State extrapolated `dt_s` ahead of the last update, without mutating the
/// filter — what the gated search reads to place its region before the
/// round's fix exists.
struct KalmanPrediction {
  geom::Vec2 position;
  geom::Vec2 velocity;
  /// Per-axis position std-dev of the extrapolated state (grows with dt).
  geom::Vec2 position_std;
};

/// 2-D constant-velocity Kalman filter with per-axis decoupling (the motion
/// and measurement models are axis-independent, so two 2-state filters are
/// exactly equivalent to one 4-state filter and simpler to verify).
class KalmanTracker {
 public:
  explicit KalmanTracker(const KalmanConfig& config = {});

  /// First fix initializes the state; later fixes run predict+update with
  /// the elapsed time `dt_s`. Returns false when the fix was rejected: a
  /// non-finite fix or a non-positive dt on an initialized filter
  /// (duplicate round or clock skew) — both leave the state untouched so
  /// bad input cannot corrupt it — or a fix outside the Mahalanobis gate
  /// (the prediction still advances). Rejections count in rejected_fixes() and the
  /// `track.rejected_fixes` registry counter.
  bool Update(const geom::Vec2& fix, double dt_s);

  /// Extrapolates the estimate `dt_s` ahead (const: the filter state is
  /// untouched). Meaningless before the first fix.
  KalmanPrediction Predict(double dt_s) const;

  bool initialized() const { return initialized_; }
  geom::Vec2 position() const { return {x_.pos, y_.pos}; }
  geom::Vec2 velocity() const { return {x_.vel, y_.vel}; }
  /// Per-axis position std-dev of the current estimate.
  geom::Vec2 position_std() const;
  std::size_t rejected_fixes() const { return rejected_; }

 private:
  struct Axis {
    double pos = 0.0;
    double vel = 0.0;
    // Covariance [[p00, p01], [p01, p11]].
    double p00 = 1.0, p01 = 0.0, p11 = 1.0;

    void Predict(double dt, double q);
    /// Returns the normalized innovation (z - pos) / sigma.
    double Innovation(double z, double r) const;
    void Correct(double z, double r);
  };

  KalmanConfig config_;
  bool initialized_ = false;
  Axis x_, y_;
  std::size_t rejected_ = 0;
};

}  // namespace bloc::track
