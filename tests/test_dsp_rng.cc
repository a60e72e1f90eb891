#include "dsp/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

namespace bloc::dsp {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(0, 1), b.Uniform(0, 1));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.Uniform(0, 1) == b.Uniform(0, 1)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  Rng root(99);
  Rng c1 = root.Fork("noise");
  Rng c2 = Rng(99).Fork("noise");
  EXPECT_DOUBLE_EQ(c1.Uniform(0, 1), c2.Uniform(0, 1));

  Rng d1 = Rng(99).Fork("noise");
  Rng d2 = Rng(99).Fork("positions");
  EXPECT_NE(d1.Uniform(0, 1), d2.Uniform(0, 1));
}

TEST(Rng, ForkIgnoresParentConsumption) {
  // Forking depends only on the root seed and the name, not on how many
  // draws the parent made — this keeps components independent.
  Rng a(5);
  a.Uniform(0, 1);
  a.Uniform(0, 1);
  Rng b(5);
  EXPECT_DOUBLE_EQ(a.Fork("x").Uniform(0, 1), b.Fork("x").Uniform(0, 1));
}

TEST(Rng, TupleForkIsDeterministicAndPure) {
  Rng root(42);
  Rng a = root.Fork({3, 1, 4, 1, 5});
  root.Uniform(0, 1);  // parent consumption must not matter
  Rng b = root.Fork({3, 1, 4, 1, 5});
  EXPECT_DOUBLE_EQ(a.Uniform(0, 1), b.Uniform(0, 1));
}

TEST(Rng, TupleForkIsOrderSensitive) {
  Rng root(42);
  Rng ab = root.Fork({1, 2});
  Rng ba = root.Fork({2, 1});
  EXPECT_NE(ab.Uniform(0, 1), ba.Uniform(0, 1));
}

TEST(Rng, TupleForkAdjacentIdsDecorrelate) {
  // Neighbouring tuples (as the measurement simulator produces per
  // antenna/leg) must give unrelated streams.
  Rng root(7);
  Rng a = root.Fork({10, 0, 0});
  Rng b = root.Fork({10, 0, 1});
  Rng c = root.Fork({10, 1, 0});
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    const double va = a.Uniform(0, 1);
    if (va == b.Uniform(0, 1)) ++same;
    if (va == c.Uniform(0, 1)) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, FillComplexGaussianMatchesRequestedVariance) {
  Rng rng(11);
  CVec buf(20000);
  rng.FillComplexGaussian(buf, 2.0);
  double power = 0.0, mean_re = 0.0;
  for (const cplx& v : buf) {
    power += std::norm(v);
    mean_re += v.real();
  }
  power /= static_cast<double>(buf.size());
  mean_re /= static_cast<double>(buf.size());
  EXPECT_NEAR(power, 2.0, 0.1);
  EXPECT_NEAR(mean_re, 0.0, 0.05);
}

TEST(Rng, FillComplexGaussianIsDeterministic) {
  Rng a(13), b(13);
  CVec x(64), y(64);
  a.FillComplexGaussian(x, 0.5);
  b.FillComplexGaussian(y, 0.5);
  EXPECT_EQ(x, y);
}

TEST(Rng, GaussianMatchesNormalDistributionAndTakesZeroStddev) {
  for (const double stddev : {0.0, 1e-3, 0.5, 1.0, 7.25}) {
    Rng rng(99);
    std::mt19937_64 engine(99);
    for (int i = 0; i < 64; ++i) {
      // std::normal_distribution requires stddev > 0; zero noise still
      // takes its draw, so the stream stays aligned.
      double want = 0.0;
      if (stddev > 0.0) {
        want = std::normal_distribution<double>(0.0, stddev)(engine);
      } else {
        std::normal_distribution<double>()(engine);
      }
      EXPECT_EQ(rng.Gaussian(stddev), want)
          << "stddev " << stddev << " draw " << i;
    }
    EXPECT_EQ(rng.Gaussian(1.0), std::normal_distribution<double>()(engine));
  }
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  double sum = 0, sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Gaussian(2.0);
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.1);
  EXPECT_NEAR(sum_sq / n, 4.0, 0.2);
}

TEST(Rng, ComplexGaussianVariance) {
  Rng rng(13);
  double power = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) power += std::norm(rng.ComplexGaussian(0.5));
  EXPECT_NEAR(power / n, 0.5, 0.03);
}

TEST(Rng, RandomRotorUnitMagnitudeUniformPhase) {
  Rng rng(17);
  cplx mean{0, 0};
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const cplx r = rng.RandomRotor();
    EXPECT_NEAR(std::abs(r), 1.0, 1e-12);
    mean += r;
  }
  EXPECT_NEAR(std::abs(mean) / n, 0.0, 0.02);  // phases uniform
}

TEST(Rng, ChanceProbability) {
  Rng rng(19);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(HashName, StableAndDistinct) {
  EXPECT_EQ(HashName("abc"), HashName("abc"));
  EXPECT_NE(HashName("abc"), HashName("abd"));
  EXPECT_NE(HashName(""), HashName("a"));
}

}  // namespace
}  // namespace bloc::dsp
