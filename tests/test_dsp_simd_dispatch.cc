#include <gtest/gtest.h>

#include <cstddef>
#include <random>
#include <vector>

#include "dsp/simd_dispatch.h"

namespace bloc::dsp::simd {
namespace {

TEST(SimdDispatch, IsaNameParseRoundTrip) {
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    const auto parsed = ParseIsa(IsaName(isa));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, isa);
  }
  EXPECT_EQ(ParseIsa("scalar"), Isa::kScalar);
  EXPECT_EQ(ParseIsa("avx2"), Isa::kAvx2);
  EXPECT_EQ(ParseIsa("avx512"), Isa::kAvx512);
  EXPECT_FALSE(ParseIsa("").has_value());
  EXPECT_FALSE(ParseIsa("AVX2").has_value());
  EXPECT_FALSE(ParseIsa("sse9").has_value());
}

TEST(SimdDispatch, ResolveIsaHonorsForceAndClampsToSupport) {
  // No override (null or unrecognized): the probed best wins.
  EXPECT_EQ(ResolveIsa(nullptr, Isa::kAvx512), Isa::kAvx512);
  EXPECT_EQ(ResolveIsa("bogus", Isa::kAvx2), Isa::kAvx2);
  // Narrower force is obeyed.
  EXPECT_EQ(ResolveIsa("scalar", Isa::kAvx512), Isa::kScalar);
  EXPECT_EQ(ResolveIsa("avx2", Isa::kAvx512), Isa::kAvx2);
  // Wider force clamps down to what the machine can run.
  EXPECT_EQ(ResolveIsa("avx512", Isa::kAvx2), Isa::kAvx2);
  EXPECT_EQ(ResolveIsa("avx512", Isa::kScalar), Isa::kScalar);
}

TEST(SimdDispatch, ScalarAlwaysSupportedAndTablesTagged) {
  EXPECT_TRUE(IsaSupported(Isa::kScalar));
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (!IsaSupported(isa)) continue;
    EXPECT_EQ(ForIsa(isa).isa, isa);
  }
  EXPECT_TRUE(IsaSupported(Active().isa));
}

/// Randomized operands for one kernel invocation of n cells. The comb has
/// deliberate gaps (zero coefficients) to exercise the skip branch.
struct Operands {
  std::vector<double> comb;  // interleaved (re, im), `steps` pairs
  std::vector<double> base_re, base_im, step_re, step_im;
  std::vector<double> acc_re, acc_im;

  Operands(std::mt19937& rng, std::size_t steps, std::size_t n) {
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    std::bernoulli_distribution gap(0.2);
    for (std::size_t k = 0; k < steps; ++k) {
      if (gap(rng)) {
        comb.insert(comb.end(), {0.0, 0.0});
      } else {
        comb.insert(comb.end(), {u(rng), u(rng)});
      }
    }
    auto fill = [&](std::vector<double>& v) {
      v.resize(n);
      for (double& x : v) x = u(rng);
    };
    fill(base_re);
    fill(base_im);
    fill(step_re);
    fill(step_im);
    acc_re.assign(n, 0.0);
    acc_im.assign(n, 0.0);
  }
};

// Every kernel variant must produce bit-identical doubles for every lane —
// the band tables, and with them every map value, depend on it, so the
// comparisons below are EXPECT_EQ, not EXPECT_NEAR.
TEST(SimdDispatch, KernelsBitIdenticalAcrossIsas) {
  std::mt19937 rng(7);
  const Kernels& ref = ForIsa(Isa::kScalar);
  for (const std::size_t n : {1u, 3u, 8u, 13u, 31u, 32u, 33u, 64u, 100u}) {
    for (Isa isa : {Isa::kAvx2, Isa::kAvx512}) {
      if (!IsaSupported(isa)) continue;
      const Kernels& alt = ForIsa(isa);
      const std::size_t steps = 37;
      Operands a(rng, steps, n);
      Operands b = a;
      alt.walk(b.comb.data(), steps, b.base_re.data(), b.base_im.data(),
               b.step_re.data(), b.step_im.data(), b.acc_re.data(),
               b.acc_im.data(), n);
      ref.walk(a.comb.data(), steps, a.base_re.data(), a.base_im.data(),
               a.step_re.data(), a.step_im.data(), a.acc_re.data(),
               a.acc_im.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(a.acc_re[i], b.acc_re[i]) << "walk n=" << n << " i=" << i;
        ASSERT_EQ(a.acc_im[i], b.acc_im[i]) << "walk n=" << n << " i=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace bloc::dsp::simd
