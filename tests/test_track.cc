#include "track/kalman.h"

#include <gtest/gtest.h>

#include <limits>

#include "dsp/rng.h"
#include "dsp/stats.h"
#include "obs/metrics.h"

namespace bloc::track {
namespace {

TEST(Kalman, FirstFixInitializes) {
  KalmanTracker kf;
  EXPECT_FALSE(kf.initialized());
  EXPECT_TRUE(kf.Update({2.0, 3.0}, 0.0));
  EXPECT_TRUE(kf.initialized());
  EXPECT_NEAR(kf.position().x, 2.0, 1e-12);
  EXPECT_NEAR(kf.position().y, 3.0, 1e-12);
  EXPECT_NEAR(kf.velocity().Norm(), 0.0, 1e-12);
}

TEST(Kalman, ConvergesOnStationaryTarget) {
  KalmanConfig config;
  config.fix_std = 0.5;
  config.accel_std = 0.001;  // stationary target: trust the motion model
  KalmanTracker kf(config);
  dsp::Rng rng(3);
  const geom::Vec2 truth{1.5, 2.5};
  for (int i = 0; i < 200; ++i) {
    kf.Update({truth.x + rng.Gaussian(0.5), truth.y + rng.Gaussian(0.5)},
              1.0);
  }
  // A constant-velocity filter does not average forever (it must stay
  // responsive), but with tiny process noise it beats a single fix by ~3x.
  EXPECT_LT(geom::Distance(kf.position(), truth), 0.25);
  EXPECT_LT(kf.position_std().x, 0.15);
}

TEST(Kalman, TracksConstantVelocity) {
  KalmanConfig config;
  config.fix_std = 0.3;
  config.accel_std = 0.05;  // nearly constant velocity
  KalmanTracker kf(config);
  dsp::Rng rng(5);
  const geom::Vec2 v{0.4, -0.2};  // m/s
  geom::Vec2 p{0.0, 5.0};
  for (int i = 0; i < 100; ++i) {
    p = p + v * 0.5;
    kf.Update({p.x + rng.Gaussian(0.3), p.y + rng.Gaussian(0.3)}, 0.5);
  }
  EXPECT_LT(geom::Distance(kf.position(), p), 0.3);
  EXPECT_LT(geom::Distance(kf.velocity(), v), 0.15);
}

TEST(Kalman, SmoothsNoisyFixes) {
  // Filtered error beats raw-fix error on a moving target.
  KalmanConfig config;
  config.fix_std = 0.7;
  config.accel_std = 0.05;
  KalmanTracker kf(config);
  dsp::Rng rng(7);
  geom::Vec2 p{1.0, 1.0};
  std::vector<double> raw_err, kf_err;
  for (int i = 0; i < 150; ++i) {
    p = p + geom::Vec2{0.1, 0.05};
    const geom::Vec2 fix{p.x + rng.Gaussian(0.7), p.y + rng.Gaussian(0.7)};
    kf.Update(fix, 1.0);
    if (i > 10) {
      raw_err.push_back(geom::Distance(fix, p));
      kf_err.push_back(geom::Distance(kf.position(), p));
    }
  }
  EXPECT_LT(dsp::Median(kf_err), 0.7 * dsp::Median(raw_err));
}

TEST(Kalman, GatesOutliers) {
  KalmanConfig config;
  config.fix_std = 0.3;
  config.gate_sigmas = 4.0;
  KalmanTracker kf(config);
  kf.Update({1.0, 1.0}, 0.0);
  for (int i = 0; i < 10; ++i) kf.Update({1.0, 1.0}, 1.0);
  // A wild multipath fix across the room is rejected...
  EXPECT_FALSE(kf.Update({9.0, 9.0}, 1.0));
  EXPECT_EQ(kf.rejected_fixes(), 1u);
  // ...and the estimate barely moves.
  EXPECT_LT(geom::Distance(kf.position(), {1.0, 1.0}), 0.2);
}

TEST(Kalman, GatingDisabledAcceptsEverything) {
  KalmanConfig config;
  config.gate_sigmas = 0.0;
  KalmanTracker kf(config);
  kf.Update({1.0, 1.0}, 0.0);
  EXPECT_TRUE(kf.Update({9.0, 9.0}, 1.0));
  EXPECT_EQ(kf.rejected_fixes(), 0u);
}

TEST(Kalman, RejectsNonPositiveDtOnInitializedFilter) {
  KalmanTracker kf;
  EXPECT_TRUE(kf.Update({1.0, 2.0}, -5.0));  // first fix: dt is irrelevant
  // A duplicate round (dt == 0) or clock skew (dt < 0) must not run a
  // zero-or-negative-time predict into the covariance.
  EXPECT_FALSE(kf.Update({1.5, 2.5}, 0.0));
  EXPECT_FALSE(kf.Update({1.5, 2.5}, -1.0));
  EXPECT_EQ(kf.rejected_fixes(), 2u);
  // The state is untouched by the rejections...
  EXPECT_EQ(kf.position().x, 1.0);
  EXPECT_EQ(kf.position().y, 2.0);
  // ...and a well-formed fix still updates.
  EXPECT_TRUE(kf.Update({1.1, 2.1}, 0.5));
}

TEST(Kalman, RejectsNonFiniteFix) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  obs::Counter& rejected = obs::GetCounter("track.rejected_fixes");
#if defined(BLOC_OBS_OFF)
  constexpr std::uint64_t kCounted = 0;  // the registry is compiled out
#else
  constexpr std::uint64_t kCounted = 1;
#endif

  // A fresh tracker must not initialize from a NaN fix.
  KalmanTracker fresh;
  const std::uint64_t before = rejected.Value();
  EXPECT_FALSE(fresh.Update({kNaN, 1.0}, 0.5));
  EXPECT_FALSE(fresh.initialized());
  EXPECT_EQ(fresh.rejected_fixes(), 1u);
  EXPECT_EQ(rejected.Value(), before + kCounted);
  EXPECT_TRUE(fresh.Update({1.0, 2.0}, 0.5));
  EXPECT_EQ(fresh.position().x, 1.0);

  // On an initialized tracker a NaN innovation would pass the Mahalanobis
  // test; the fix must be rejected with the state left as it was.
  KalmanTracker kf;
  kf.Update({1.0, 2.0}, 0.0);
  kf.Update({1.2, 2.1}, 0.5);
  const geom::Vec2 pos = kf.position();
  const geom::Vec2 vel = kf.velocity();
  const geom::Vec2 std_before = kf.position_std();
  EXPECT_FALSE(kf.Update({1.3, kNaN}, 0.5));
  EXPECT_FALSE(kf.Update({kInf, 2.2}, 0.5));
  EXPECT_EQ(kf.rejected_fixes(), 2u);
  EXPECT_EQ(rejected.Value(), before + 3 * kCounted);
  EXPECT_EQ(kf.position().x, pos.x);
  EXPECT_EQ(kf.position().y, pos.y);
  EXPECT_EQ(kf.velocity().x, vel.x);
  EXPECT_EQ(kf.velocity().y, vel.y);
  EXPECT_EQ(kf.position_std().x, std_before.x);
  EXPECT_EQ(kf.position_std().y, std_before.y);
}

TEST(Kalman, PredictExtrapolatesWithoutMutating) {
  KalmanTracker kf;
  const geom::Vec2 v{0.4, -0.2};
  geom::Vec2 p{1.0, 3.0};
  kf.Update(p, 0.0);
  for (int i = 0; i < 30; ++i) {
    p = p + v * 0.5;
    kf.Update(p, 0.5);
  }
  const geom::Vec2 pos_before = kf.position();
  const geom::Vec2 vel_before = kf.velocity();

  const KalmanPrediction pred = kf.Predict(1.0);
  // Constant-velocity extrapolation from the current state...
  EXPECT_NEAR(pred.position.x, pos_before.x + vel_before.x, 1e-12);
  EXPECT_NEAR(pred.position.y, pos_before.y + vel_before.y, 1e-12);
  EXPECT_EQ(pred.velocity.x, vel_before.x);
  EXPECT_EQ(pred.velocity.y, vel_before.y);
  // ...whose uncertainty grows with the horizon, anchored at the filter's
  // current std for dt = 0.
  EXPECT_NEAR(kf.Predict(0.0).position_std.x, kf.position_std().x, 1e-12);
  EXPECT_GT(pred.position_std.x, kf.position_std().x);
  EXPECT_GT(kf.Predict(2.0).position_std.x, pred.position_std.x);
  // The filter itself is untouched.
  EXPECT_EQ(kf.position().x, pos_before.x);
  EXPECT_EQ(kf.position().y, pos_before.y);
  EXPECT_EQ(kf.velocity().x, vel_before.x);
  EXPECT_EQ(kf.velocity().y, vel_before.y);
}

TEST(Kalman, UncertaintyGrowsWithoutMeasurements) {
  KalmanTracker kf;
  kf.Update({0.0, 0.0}, 0.0);
  kf.Update({0.0, 0.0}, 1.0);
  const double before = kf.position_std().x;
  // Gated updates still advance the prediction, inflating covariance.
  KalmanConfig tight;
  tight.gate_sigmas = 0.001;
  KalmanTracker gated(tight);
  gated.Update({0.0, 0.0}, 0.0);
  for (int i = 0; i < 5; ++i) gated.Update({3.0, 3.0}, 1.0);
  EXPECT_GT(gated.position_std().x, before);
}

}  // namespace
}  // namespace bloc::track
