#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "dsp/aligned.h"
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

/// The walk of one cell, written out per cell and independent of the
/// kernels' vector template: MAC unless the comb coefficient is zero,
/// rotate unless it is the final step.
void WalkOracle(const double* comb, std::size_t steps, double r, double i,
                double sr, double si, double* out_re, double* out_im) {
  double ar = 0.0;
  double ai = 0.0;
  for (std::size_t k = 0; k < steps; ++k) {
    const double a_re = comb[2 * k];
    const double a_im = comb[2 * k + 1];
    if (a_re != 0.0 || a_im != 0.0) {
      ar += a_re * r - a_im * i;
      ai += a_re * i + a_im * r;
    }
    if (k + 1 != steps) {
      const double pr = r;
      const double pi = i;
      r = pr * sr - pi * si;
      i = pr * si + pi * sr;
    }
  }
  *out_re = ar;
  *out_im = ai;
}

// Every kernel variant must produce bit-identical doubles for every lane —
// the band tables, the plan terms and with them every map value depend on
// it, so the comparisons below are exact, not EXPECT_NEAR.
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

  // The plan-chunk kernels: random cubics, offsets and rotors, and a gather
  // of random lanes over every tail length, both starting a sum and adding
  // to one.
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  const auto random = [&](std::size_t n) {
    std::vector<double> v(n);
    for (double& x : v) x = u(rng);
    return v;
  };
  constexpr std::size_t kIntervals = 23;
  const std::vector<double> table = random(8 * kIntervals);
  for (const std::size_t chunks : {1u, 2u, 7u, 40u}) {
    const std::size_t lanes = chunks * kChunkLanes;
    std::vector<std::uint32_t> interval(chunks);
    std::uniform_int_distribution<std::uint32_t> pick(0, kIntervals - 1);
    for (std::uint32_t& i : interval) i = pick(rng);
    std::vector<double> frac = random(lanes);
    for (double& f : frac) f = 0.5 * (f + 1.0);  // [0, 1)
    const std::vector<double> base_re = random(lanes);
    const std::vector<double> base_im = random(lanes);
    dsp::AlignedVec<double> ref_term(2 * lanes);
    ref.chunk_terms(table.data(), interval.data(), frac.data(), base_re.data(),
                    base_im.data(), ref_term.data(), chunks);
    std::vector<std::uint32_t> lane(lanes + 5);
    std::uniform_int_distribution<std::uint32_t> any_lane(
        0, static_cast<std::uint32_t>(lanes - 1));
    for (std::uint32_t& l : lane) l = any_lane(rng);
    const std::vector<double> acc_re0 = random(lane.size());
    const std::vector<double> acc_im0 = random(lane.size());
    for (Isa isa : {Isa::kAvx2, Isa::kAvx512}) {
      if (!IsaSupported(isa)) continue;
      const Kernels& alt = ForIsa(isa);
      dsp::AlignedVec<double> term(2 * lanes);
      alt.chunk_terms(table.data(), interval.data(), frac.data(),
                      base_re.data(), base_im.data(), term.data(), chunks);
      ASSERT_EQ(ref_term, term) << "chunk_terms " << IsaName(isa);
      for (const bool init : {true, false}) {
        for (const bool finish : {false, true}) {
          for (std::size_t n = 0; n <= lane.size(); ++n) {
            std::vector<double> a_re = acc_re0, a_im = acc_im0;
            std::vector<double> b_re = acc_re0, b_im = acc_im0;
            std::vector<double> a_mag(lane.size(), -1.0);
            std::vector<double> b_mag(lane.size(), -1.0);
            ref.gather_add(ref_term.data(), lane.data(), init, a_re.data(),
                           a_im.data(), finish ? a_mag.data() : nullptr, n);
            alt.gather_add(ref_term.data(), lane.data(), init, b_re.data(),
                           b_im.data(), finish ? b_mag.data() : nullptr, n);
            ASSERT_EQ(a_re, b_re) << "gather_add n=" << n << " init=" << init;
            ASSERT_EQ(a_im, b_im) << "gather_add n=" << n << " init=" << init;
            ASSERT_EQ(a_mag, b_mag) << "gather_add n=" << n << " init=" << init;
          }
        }
      }
    }
    // The scalar reference itself: each lane's cubic times its rotor as an
    // (re, im) pair, and the gather's start from zero, add and finish.
    for (std::size_t l = 0; l < lanes; ++l) {
      const double* c = table.data() + 8 * interval[l / kChunkLanes];
      const double s = frac[l];
      const double br = c[0] + s * (c[2] + s * (c[4] + s * c[6]));
      const double bi = c[1] + s * (c[3] + s * (c[5] + s * c[7]));
      ASSERT_EQ(ref_term[2 * l], br * base_re[l] - bi * base_im[l]);
      ASSERT_EQ(ref_term[2 * l + 1], bi * base_re[l] + br * base_im[l]);
    }
    std::vector<double> a_re = acc_re0, a_im = acc_im0;
    ref.gather_add(ref_term.data(), lane.data(), false, a_re.data(),
                   a_im.data(), nullptr, lane.size());
    std::vector<double> mag(lane.size());
    std::vector<double> m_re = acc_re0, m_im = acc_im0;
    ref.gather_add(ref_term.data(), lane.data(), false, m_re.data(),
                   m_im.data(), mag.data(), lane.size());
    EXPECT_EQ(m_re, acc_re0);  // finishing leaves the accumulators alone
    EXPECT_EQ(m_im, acc_im0);
    for (std::size_t c = 0; c < lane.size(); ++c) {
      ASSERT_EQ(a_re[c], acc_re0[c] + ref_term[2 * lane[c]]);
      ASSERT_EQ(a_im[c], acc_im0[c] + ref_term[2 * lane[c] + 1]);
      ASSERT_EQ(mag[c], std::sqrt(a_re[c] * a_re[c] + a_im[c] * a_im[c]));
    }
  }
}

// Every ISA, the scalar one included, against the per-cell formulas: all
// three tables come from one vector-width template, so agreeing with each
// other alone would not catch a template bug. The lengths straddle each
// walk block (4, 8 and 32 cells) and each vector width.
TEST(SimdDispatch, EveryIsaMatchesPerCellFormulas) {
  std::mt19937 rng(11);
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (!IsaSupported(isa)) continue;
    const Kernels& k = ForIsa(isa);
    for (std::size_t n = 1; n <= 100; ++n) {
      const std::size_t steps = 37;
      Operands op(rng, steps, n);
      k.walk(op.comb.data(), steps, op.base_re.data(), op.base_im.data(),
             op.step_re.data(), op.step_im.data(), op.acc_re.data(),
             op.acc_im.data(), n);
      for (std::size_t c = 0; c < n; ++c) {
        double re = 0.0;
        double im = 0.0;
        WalkOracle(op.comb.data(), steps, op.base_re[c], op.base_im[c],
                   op.step_re[c], op.step_im[c], &re, &im);
        ASSERT_EQ(op.acc_re[c], re)
            << "walk " << IsaName(isa) << " n=" << n << " c=" << c;
        ASSERT_EQ(op.acc_im[c], im)
            << "walk " << IsaName(isa) << " n=" << n << " c=" << c;
      }
    }
  }

  std::uniform_real_distribution<double> u(-1.0, 1.0);
  const auto random = [&](std::size_t n) {
    std::vector<double> v(n);
    for (double& x : v) x = u(rng);
    return v;
  };
  constexpr std::size_t kIntervals = 23;
  const std::vector<double> table = random(8 * kIntervals);
  for (const std::size_t chunks : {1u, 2u, 5u, 9u}) {
    const std::size_t lanes = chunks * kChunkLanes;
    std::vector<std::uint32_t> interval(chunks);
    std::uniform_int_distribution<std::uint32_t> pick(0, kIntervals - 1);
    for (std::uint32_t& i : interval) i = pick(rng);
    std::vector<double> frac = random(lanes);
    for (double& f : frac) f = 0.5 * (f + 1.0);  // [0, 1)
    const std::vector<double> base_re = random(lanes);
    const std::vector<double> base_im = random(lanes);
    std::vector<std::uint32_t> lane(lanes + 5);
    std::uniform_int_distribution<std::uint32_t> any_lane(
        0, static_cast<std::uint32_t>(lanes - 1));
    for (std::uint32_t& l : lane) l = any_lane(rng);
    const std::vector<double> acc_re0 = random(lane.size());
    const std::vector<double> acc_im0 = random(lane.size());
    for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
      if (!IsaSupported(isa)) continue;
      const Kernels& k = ForIsa(isa);
      dsp::AlignedVec<double> term(2 * lanes);
      k.chunk_terms(table.data(), interval.data(), frac.data(), base_re.data(),
                    base_im.data(), term.data(), chunks);
      for (std::size_t l = 0; l < lanes; ++l) {
        const double* c = table.data() + 8 * interval[l / kChunkLanes];
        const double s = frac[l];
        const double br = c[0] + s * (c[2] + s * (c[4] + s * c[6]));
        const double bi = c[1] + s * (c[3] + s * (c[5] + s * c[7]));
        ASSERT_EQ(term[2 * l], br * base_re[l] - bi * base_im[l])
            << "chunk_terms " << IsaName(isa) << " lane " << l;
        ASSERT_EQ(term[2 * l + 1], bi * base_re[l] + br * base_im[l])
            << "chunk_terms " << IsaName(isa) << " lane " << l;
      }
      for (const bool init : {true, false}) {
        for (const bool finish : {false, true}) {
          for (std::size_t n = 0; n <= lane.size(); ++n) {
            std::vector<double> re = acc_re0, im = acc_im0;
            std::vector<double> mag(lane.size(), -1.0);
            k.gather_add(term.data(), lane.data(), init, re.data(), im.data(),
                         finish ? mag.data() : nullptr, n);
            for (std::size_t c = 0; c < lane.size(); ++c) {
              const double sum_re =
                  (init ? 0.0 : acc_re0[c]) + term[2 * lane[c]];
              const double sum_im =
                  (init ? 0.0 : acc_im0[c]) + term[2 * lane[c] + 1];
              const bool stored = c < n && !finish;
              ASSERT_EQ(re[c], stored ? sum_re : acc_re0[c])
                  << "gather_add " << IsaName(isa) << " n=" << n << " c=" << c;
              ASSERT_EQ(im[c], stored ? sum_im : acc_im0[c])
                  << "gather_add " << IsaName(isa) << " n=" << n << " c=" << c;
              ASSERT_EQ(mag[c], c < n && finish ? std::sqrt(sum_re * sum_re +
                                                            sum_im * sum_im)
                                                : -1.0)
                  << "gather_add " << IsaName(isa) << " n=" << n << " c=" << c;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace bloc::dsp::simd
