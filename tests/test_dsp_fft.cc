#include "dsp/fft.h"

#include <gtest/gtest.h>

#include "dsp/complex_ops.h"
#include "obs/metrics.h"

namespace bloc::dsp {
namespace {

TEST(Fft, ImpulseIsFlat) {
  CVec x(8, cplx{0, 0});
  x[0] = {1, 0};
  Fft(x);
  for (const cplx& v : x) {
    EXPECT_NEAR(std::abs(v - cplx{1, 0}), 0.0, 1e-12);
  }
}

TEST(Fft, DcConcentratesInBinZero) {
  CVec x(16, cplx{1, 0});
  Fft(x);
  EXPECT_NEAR(std::abs(x[0]), 16.0, 1e-9);
  for (std::size_t k = 1; k < 16; ++k) {
    EXPECT_NEAR(std::abs(x[k]), 0.0, 1e-9);
  }
}

TEST(Fft, SingleToneLandsInItsBin) {
  const std::size_t n = 64;
  const std::size_t tone = 5;
  CVec x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = Rotor(kTwoPi * tone * i / n);
  }
  Fft(x);
  EXPECT_NEAR(std::abs(x[tone]), static_cast<double>(n), 1e-8);
  for (std::size_t k = 0; k < n; ++k) {
    if (k != tone) {
      EXPECT_NEAR(std::abs(x[k]), 0.0, 1e-8);
    }
  }
}

TEST(Fft, RoundTripRestoresSignal) {
  CVec x;
  for (int i = 0; i < 32; ++i) {
    x.push_back({std::sin(0.3 * i), std::cos(0.17 * i)});
  }
  CVec y = x;
  Fft(y, false);
  Fft(y, true);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-10);
  }
}

TEST(Fft, ParsevalHolds) {
  CVec x;
  for (int i = 0; i < 128; ++i) x.push_back({std::sin(0.1 * i), 0.0});
  const double time_power = Power(x);
  CVec y = x;
  Fft(y);
  EXPECT_NEAR(Power(y) / 128.0, time_power, 1e-8);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  CVec x(12);
  EXPECT_THROW(Fft(x), std::invalid_argument);
}

TEST(Fft, EmptyIsNoop) {
  CVec x;
  EXPECT_NO_THROW(Fft(x));
}

TEST(NextPow2, Basics) {
  EXPECT_EQ(NextPow2(0), 1u);
  EXPECT_EQ(NextPow2(1), 1u);
  EXPECT_EQ(NextPow2(2), 2u);
  EXPECT_EQ(NextPow2(3), 4u);
  EXPECT_EQ(NextPow2(1025), 2048u);
}

TEST(BinFrequency, BasebandConvention) {
  EXPECT_DOUBLE_EQ(BinFrequency(0, 8, 8000.0), 0.0);
  EXPECT_DOUBLE_EQ(BinFrequency(1, 8, 8000.0), 1000.0);
  EXPECT_DOUBLE_EQ(BinFrequency(7, 8, 8000.0), -1000.0);
  EXPECT_DOUBLE_EQ(BinFrequency(4, 8, 8000.0), -4000.0);
}

TEST(ApplyTransferFunction, FlatGainScales) {
  CVec x;
  for (int i = 0; i < 100; ++i) x.push_back(Rotor(0.05 * i));
  const cplx gain{0.5, -0.5};
  const CVec y =
      ApplyTransferFunction(x, 8.0e6, [&](double) { return gain; });
  ASSERT_EQ(y.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(y[i] - x[i] * gain), 0.0, 1e-9);
  }
}

TEST(ApplyTransferFunction, ToneSeesItsOwnGain) {
  // A tone at +1 MHz through H(f) = 1 for f>0, 0 for f<=0 passes intact.
  const double fs = 8.0e6;
  CVec x;
  for (int i = 0; i < 256; ++i) {
    x.push_back(Rotor(kTwoPi * 1.0e6 * i / fs));
  }
  const CVec y = ApplyTransferFunction(
      x, fs, [](double f) { return f > 0 ? cplx{1, 0} : cplx{0, 0}; });
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-6);
  }
}

TEST(ApplyTransferFunction, EmptyInput) {
  EXPECT_TRUE(
      ApplyTransferFunction({}, 8.0e6, [](double) { return cplx{1, 0}; })
          .empty());
}

class FftSizesTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizesTest, RoundTripAtSize) {
  const std::size_t n = GetParam();
  CVec x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = Rotor(0.7 * i) * (1.0 + 0.1 * i);
  CVec y = x;
  Fft(y, false);
  Fft(y, true);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-7 * n);
  }
}

TEST_P(FftSizesTest, PlanMatchesLegacyFft) {
  const std::size_t n = GetParam();
  CVec x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = Rotor(0.7 * i + 0.13);
  CVec legacy = x;
  CVec planned = x;
  Fft(legacy, false);
  const FftPlan plan(n);
  plan.Forward(planned);
  // The legacy transform accumulates recurrence drift (~5e-11 at 4096); the
  // plan's twiddles are exact, so the gap is the legacy error.
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(planned[i] - legacy[i]), 0.0, 1e-9);
  }
  Fft(legacy, true);
  plan.Inverse(planned);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(planned[i] - legacy[i]), 0.0, 1e-9);
  }
}

TEST_P(FftSizesTest, PlanRoundTripIsExact) {
  const std::size_t n = GetParam();
  CVec x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = Rotor(1.3 * i - 0.4);
  CVec y = x;
  const FftPlan plan(n);
  plan.Forward(y);
  plan.Inverse(y);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftSizesTest,
                         ::testing::Values(1, 2, 4, 8, 64, 256, 1024, 4096));

TEST(FftPlan, RejectsNonPowerOfTwoSizes) {
  EXPECT_THROW(FftPlan(0), std::invalid_argument);
  EXPECT_THROW(FftPlan(3), std::invalid_argument);
  EXPECT_THROW(FftPlan(1920), std::invalid_argument);
}

TEST(FftPlan, RejectsSizeMismatch) {
  const FftPlan plan(16);
  CVec x(8);
  EXPECT_THROW(plan.Forward(x), std::invalid_argument);
  EXPECT_THROW(plan.Inverse(x), std::invalid_argument);
}

TEST(FftPlanCache, BuildsEachSizeOnce) {
  obs::Counter& builds = obs::GetCounter("dsp.fft_plan_cache.builds");
  obs::Counter& lookups = obs::GetCounter("dsp.fft_plan_cache.lookups");
  const std::uint64_t builds0 = builds.Value();
  const std::uint64_t lookups0 = lookups.Value();
  FftPlanCache cache;
  const auto a = cache.GetOrBuild(256);
  const auto b = cache.GetOrBuild(1024);
  const auto c = cache.GetOrBuild(256);
  EXPECT_EQ(a.get(), c.get());
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.builds(), 2u);
  EXPECT_EQ(cache.lookups(), 3u);
  // The registry counters count the same events process-wide.
  EXPECT_EQ(builds.Value() - builds0, cache.builds());
  EXPECT_EQ(lookups.Value() - lookups0, cache.lookups());
}

TEST(ApplyTransferFunctionPlanned, MatchesLegacyCallbackVariant) {
  const double fs = 8.0e6;
  CVec x;
  for (int i = 0; i < 300; ++i) {
    x.push_back(Rotor(0.21 * i) * (0.5 + 0.01 * i));
  }
  // A smooth frequency response evaluated two ways: per-bin callback
  // (legacy, allocating) and precomputed bins through the plan.
  const auto h_of_f = [](double f) {
    return cplx{0.8, 0.1} * Rotor(kTwoPi * f * 2.0e-8);
  };
  const CVec legacy = ApplyTransferFunction(x, fs, h_of_f);

  const std::size_t n = NextPow2(x.size());
  const FftPlan plan(n);
  CVec x_fft(n, cplx{0, 0});
  std::copy(x.begin(), x.end(), x_fft.begin());
  plan.Forward(x_fft);
  CVec h_bins(n);
  for (std::size_t k = 0; k < n; ++k) h_bins[k] = h_of_f(BinFrequency(k, n, fs));
  CVec work(n);
  ApplyTransferFunction(plan, x_fft, h_bins, work);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(work[i] - legacy[i]), 0.0, 1e-9);
  }
}

TEST(ApplyTransferFunctionPlanned, RejectsSizeMismatch) {
  const FftPlan plan(16);
  CVec ok(16), bad(8);
  EXPECT_THROW(ApplyTransferFunction(plan, bad, ok, ok),
               std::invalid_argument);
  EXPECT_THROW(ApplyTransferFunction(plan, ok, bad, ok),
               std::invalid_argument);
  EXPECT_THROW(ApplyTransferFunction(plan, ok, ok, bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace bloc::dsp
