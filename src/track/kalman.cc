#include "track/kalman.h"

#include <cmath>

#include "obs/metrics.h"

namespace bloc::track {

namespace {

obs::Counter& RejectedFixesCounter() {
  static obs::Counter& counter = obs::GetCounter("track.rejected_fixes");
  return counter;
}

}  // namespace

KalmanTracker::KalmanTracker(const KalmanConfig& config) : config_(config) {}

void KalmanTracker::Axis::Predict(double dt, double q) {
  // x' = F x with F = [[1, dt], [0, 1]]; P' = F P F^T + Q, Q the white-
  // acceleration model.
  pos += vel * dt;
  const double p00_new = p00 + dt * (2.0 * p01 + dt * p11);
  const double p01_new = p01 + dt * p11;
  p00 = p00_new;
  p01 = p01_new;
  const double dt2 = dt * dt;
  p00 += q * dt2 * dt2 / 4.0;
  p01 += q * dt2 * dt / 2.0;
  p11 += q * dt2;
}

double KalmanTracker::Axis::Innovation(double z, double r) const {
  const double s = p00 + r;
  return (z - pos) / std::sqrt(s);
}

void KalmanTracker::Axis::Correct(double z, double r) {
  const double s = p00 + r;
  const double k0 = p00 / s;
  const double k1 = p01 / s;
  const double y = z - pos;
  pos += k0 * y;
  vel += k1 * y;
  const double p00_new = (1.0 - k0) * p00;
  const double p01_new = (1.0 - k0) * p01;
  const double p11_new = p11 - k1 * p01;
  p00 = p00_new;
  p01 = p01_new;
  p11 = p11_new;
}

bool KalmanTracker::Update(const geom::Vec2& fix, double dt_s) {
  const double r = config_.fix_std * config_.fix_std;
  if (!std::isfinite(fix.x) || !std::isfinite(fix.y)) {
    // A NaN fix would initialize the state to NaN, and a NaN innovation
    // passes the gate test below (NaN > g^2 is false).
    ++rejected_;
    RejectedFixesCounter().Inc();
    return false;
  }
  if (!initialized_) {
    x_.pos = fix.x;
    y_.pos = fix.y;
    x_.vel = y_.vel = 0.0;
    x_.p00 = y_.p00 = r;
    x_.p01 = y_.p01 = 0.0;
    x_.p11 = y_.p11 = 4.0;  // loose velocity prior
    initialized_ = true;
    return true;
  }
  if (!(dt_s > 0.0)) {
    // Duplicate round or clock skew: predicting backwards (or by NaN)
    // would corrupt the covariance, so the fix is dropped whole and the
    // state keeps its last honest timestamp.
    ++rejected_;
    RejectedFixesCounter().Inc();
    return false;
  }
  const double q = config_.accel_std * config_.accel_std;
  x_.Predict(dt_s, q);
  y_.Predict(dt_s, q);
  if (config_.gate_sigmas > 0) {
    const double nx = x_.Innovation(fix.x, r);
    const double ny = y_.Innovation(fix.y, r);
    if (nx * nx + ny * ny >
        config_.gate_sigmas * config_.gate_sigmas) {
      ++rejected_;
      RejectedFixesCounter().Inc();
      return false;
    }
  }
  x_.Correct(fix.x, r);
  y_.Correct(fix.y, r);
  return true;
}

KalmanPrediction KalmanTracker::Predict(double dt_s) const {
  const double dt = dt_s > 0.0 ? dt_s : 0.0;
  const double q = config_.accel_std * config_.accel_std;
  KalmanPrediction out;
  out.position = {x_.pos + x_.vel * dt, y_.pos + y_.vel * dt};
  out.velocity = {x_.vel, y_.vel};
  const auto var = [&](const Axis& a) {
    const double dt2 = dt * dt;
    return a.p00 + dt * (2.0 * a.p01 + dt * a.p11) + q * dt2 * dt2 / 4.0;
  };
  out.position_std = {std::sqrt(std::max(var(x_), 0.0)),
                      std::sqrt(std::max(var(y_), 0.0))};
  return out;
}

geom::Vec2 KalmanTracker::position_std() const {
  return {std::sqrt(std::max(x_.p00, 0.0)),
          std::sqrt(std::max(y_.p00, 0.0))};
}

}  // namespace bloc::track
