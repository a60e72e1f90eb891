// Explicit scalar / AVX2 / AVX-512 variants of the comb walk and of the
// two plan-chunk kernels.
//
// The walk evaluates, per element c and comb step k:
//   acc[c] += comb[k] * cur[c]  (complex MAC, split re/im; skipped on gaps)
//   cur[c] *= step[c]           (complex rotate; skipped on the last step)
// The chunk kernel evaluates one Horner cubic and one complex multiply per
// lane, and the gather kernel one add per (re, im) component (and, on a
// map's last antenna, the magnitude sqrt(re * re + im * im)). Every vector
// variant keeps the exact expression shapes of the scalar reference below —
// separate multiplies and adds, never an FMA — so the results are bit-
// identical across ISAs and across lane/tail splits. This file is compiled
// with -ffp-contract=off (src/dsp/CMakeLists.txt) to keep the compiler from
// fusing those multiply-adds behind our back.

#include "dsp/simd_dispatch.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define BLOC_SIMD_X86 1
#include <immintrin.h>
#endif

namespace bloc::dsp::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar reference (also the tail loop of the vector variants).

// Per cell: MAC unless the comb coefficient is zero, rotate unless it is
// the final step, with cur/acc in registers for the whole walk.
void WalkScalarOne(const double* comb, std::size_t steps, double r, double i,
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

void WalkScalar(const double* comb, std::size_t steps, const double* base_re,
                const double* base_im, const double* step_re,
                const double* step_im, double* acc_re, double* acc_im,
                std::size_t n) {
  // Four cells in flight: each cell's rotation is a serial multiply chain
  // across steps, so interleaving independent chains buys ILP. The per-cell
  // operation sequence is unchanged.
  std::size_t c = 0;
  for (; c + 4 <= n; c += 4) {
    double r0 = base_re[c], i0 = base_im[c];
    double r1 = base_re[c + 1], i1 = base_im[c + 1];
    double r2 = base_re[c + 2], i2 = base_im[c + 2];
    double r3 = base_re[c + 3], i3 = base_im[c + 3];
    const double sr0 = step_re[c], si0 = step_im[c];
    const double sr1 = step_re[c + 1], si1 = step_im[c + 1];
    const double sr2 = step_re[c + 2], si2 = step_im[c + 2];
    const double sr3 = step_re[c + 3], si3 = step_im[c + 3];
    double ar0 = 0.0, ai0 = 0.0, ar1 = 0.0, ai1 = 0.0;
    double ar2 = 0.0, ai2 = 0.0, ar3 = 0.0, ai3 = 0.0;
    for (std::size_t k = 0; k < steps; ++k) {
      const double a_re = comb[2 * k];
      const double a_im = comb[2 * k + 1];
      if (a_re != 0.0 || a_im != 0.0) {
        ar0 += a_re * r0 - a_im * i0;
        ai0 += a_re * i0 + a_im * r0;
        ar1 += a_re * r1 - a_im * i1;
        ai1 += a_re * i1 + a_im * r1;
        ar2 += a_re * r2 - a_im * i2;
        ai2 += a_re * i2 + a_im * r2;
        ar3 += a_re * r3 - a_im * i3;
        ai3 += a_re * i3 + a_im * r3;
      }
      if (k + 1 != steps) {
        double p = r0;
        r0 = p * sr0 - i0 * si0;
        i0 = p * si0 + i0 * sr0;
        p = r1;
        r1 = p * sr1 - i1 * si1;
        i1 = p * si1 + i1 * sr1;
        p = r2;
        r2 = p * sr2 - i2 * si2;
        i2 = p * si2 + i2 * sr2;
        p = r3;
        r3 = p * sr3 - i3 * si3;
        i3 = p * si3 + i3 * sr3;
      }
    }
    acc_re[c] = ar0;
    acc_im[c] = ai0;
    acc_re[c + 1] = ar1;
    acc_im[c + 1] = ai1;
    acc_re[c + 2] = ar2;
    acc_im[c + 2] = ai2;
    acc_re[c + 3] = ar3;
    acc_im[c + 3] = ai3;
  }
  for (; c < n; ++c) {
    WalkScalarOne(comb, steps, base_re[c], base_im[c], step_re[c], step_im[c],
                  acc_re + c, acc_im + c);
  }
}

/// A complex value as an interleaved (re, im) lane pair. GCC/Clang lower
/// the element-wise arithmetic to whatever vectors the target has (two
/// scalar ops at worst), with per-lane IEEE semantics unchanged; the
/// baseline x86-64 ISA runs it two-wide.
typedef double Pair __attribute__((vector_size(16)));

inline Pair LoadPair(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// One chunk: the cubic's coefficients are shared by its lanes, so they are
// read once, as (re, im) pairs like the table stores them. Per component
// this is the expression every variant evaluates: the rotor multiply's re
// adds -(b_im * base_im), which is exactly b_re * base_re - b_im * base_im.
void ChunkTermsScalar(const double* table, const std::uint32_t* interval,
                      const double* frac, const double* base_re,
                      const double* base_im, double* term,
                      std::size_t chunks) {
  const Pair sign = {-1.0, 1.0};
  for (std::size_t k = 0; k < chunks; ++k) {
    const double* c = table + 8 * std::size_t{interval[k]};
    const Pair c0 = LoadPair(c);
    const Pair c1 = LoadPair(c + 2);
    const Pair c2 = LoadPair(c + 4);
    const Pair c3 = LoadPair(c + 6);
    for (std::size_t l = kChunkLanes * k; l < kChunkLanes * (k + 1); ++l) {
      const double s = frac[l];
      const Pair b = c0 + s * (c1 + s * (c2 + s * c3));
      const Pair swapped = {b[1], b[0]};
      const Pair t = b * base_re[l] + swapped * base_im[l] * sign;
      std::memcpy(term + 2 * l, &t, sizeof t);
    }
  }
}

void GatherAddScalar(const double* term, const std::uint32_t* lane, bool init,
                     double* acc_re, double* acc_im, double* magnitude,
                     std::size_t n) {
  for (std::size_t c = 0; c < n; ++c) {
    const double* t = term + 2 * std::size_t{lane[c]};
    const double re = (init ? 0.0 : acc_re[c]) + t[0];
    const double im = (init ? 0.0 : acc_im[c]) + t[1];
    if (magnitude != nullptr) {
      magnitude[c] = std::sqrt(re * re + im * im);
    } else {
      acc_re[c] = re;
      acc_im[c] = im;
    }
  }
}

constexpr Kernels kScalarKernels{WalkScalar, ChunkTermsScalar,
                                 GatherAddScalar, Isa::kScalar};

#if defined(BLOC_SIMD_X86)

// ---------------------------------------------------------------------------
// AVX2: 4 doubles per lane group. _mm256_mul_pd/_mm256_add_pd/_mm256_sub_pd
// mirror the scalar expression tree exactly (no _mm256_fmadd_pd).

// One 8-cell block of the AVX2 walk: 2 independent rotation chains of 4
// lanes. Two chains hide the rotate's multiply latency while staying inside
// the 16 ymm registers (4 step rotors + 4 cur + 4 acc + 2 broadcasts = 14
// live).
__attribute__((target("avx2"))) inline void WalkAvx2Block8(
    const double* comb, std::size_t steps, const double* base_re,
    const double* base_im, const double* step_re, const double* step_im,
    double* acc_re, double* acc_im) {
  __m256d r0 = _mm256_loadu_pd(base_re);
  __m256d i0 = _mm256_loadu_pd(base_im);
  __m256d r1 = _mm256_loadu_pd(base_re + 4);
  __m256d i1 = _mm256_loadu_pd(base_im + 4);
  const __m256d sr0 = _mm256_loadu_pd(step_re);
  const __m256d si0 = _mm256_loadu_pd(step_im);
  const __m256d sr1 = _mm256_loadu_pd(step_re + 4);
  const __m256d si1 = _mm256_loadu_pd(step_im + 4);
  __m256d ar0 = _mm256_setzero_pd();
  __m256d ai0 = _mm256_setzero_pd();
  __m256d ar1 = _mm256_setzero_pd();
  __m256d ai1 = _mm256_setzero_pd();
  for (std::size_t k = 0; k < steps; ++k) {
    const double a_re = comb[2 * k];
    const double a_im = comb[2 * k + 1];
    if (a_re != 0.0 || a_im != 0.0) {
      const __m256d va = _mm256_set1_pd(a_re);
      const __m256d vb = _mm256_set1_pd(a_im);
      ar0 = _mm256_add_pd(ar0, _mm256_sub_pd(_mm256_mul_pd(va, r0),
                                             _mm256_mul_pd(vb, i0)));
      ai0 = _mm256_add_pd(ai0, _mm256_add_pd(_mm256_mul_pd(va, i0),
                                             _mm256_mul_pd(vb, r0)));
      ar1 = _mm256_add_pd(ar1, _mm256_sub_pd(_mm256_mul_pd(va, r1),
                                             _mm256_mul_pd(vb, i1)));
      ai1 = _mm256_add_pd(ai1, _mm256_add_pd(_mm256_mul_pd(va, i1),
                                             _mm256_mul_pd(vb, r1)));
    }
    if (k + 1 != steps) {
      const __m256d p0 = r0;
      r0 = _mm256_sub_pd(_mm256_mul_pd(p0, sr0), _mm256_mul_pd(i0, si0));
      i0 = _mm256_add_pd(_mm256_mul_pd(p0, si0), _mm256_mul_pd(i0, sr0));
      const __m256d p1 = r1;
      r1 = _mm256_sub_pd(_mm256_mul_pd(p1, sr1), _mm256_mul_pd(i1, si1));
      i1 = _mm256_add_pd(_mm256_mul_pd(p1, si1), _mm256_mul_pd(i1, sr1));
    }
  }
  _mm256_storeu_pd(acc_re, ar0);
  _mm256_storeu_pd(acc_im, ai0);
  _mm256_storeu_pd(acc_re + 4, ar1);
  _mm256_storeu_pd(acc_im + 4, ai1);
}

__attribute__((target("avx2"))) void WalkAvx2(
    const double* comb, std::size_t steps, const double* base_re,
    const double* base_im, const double* step_re, const double* step_im,
    double* acc_re, double* acc_im, std::size_t n) {
  std::size_t c = 0;
  for (; c + 8 <= n; c += 8) {
    WalkAvx2Block8(comb, steps, base_re + c, base_im + c, step_re + c,
                   step_im + c, acc_re + c, acc_im + c);
  }
  if (c == n) return;
  if (n >= 8) {
    // Overlapped tail: the walk is pure per cell (acc[c] is a function of
    // base[c]/step[c]/comb only), so re-running the final full-width block
    // shifted to end exactly at n rewrites the overlap with identical bits
    // and keeps the remainder at full vector throughput.
    c = n - 8;
    WalkAvx2Block8(comb, steps, base_re + c, base_im + c, step_re + c,
                   step_im + c, acc_re + c, acc_im + c);
    return;
  }
  // n < 8: 4-cell chunk as one chain, then scalar.
  for (; c + 4 <= n; c += 4) {
    __m256d r0 = _mm256_loadu_pd(base_re + c);
    __m256d i0 = _mm256_loadu_pd(base_im + c);
    const __m256d sr0 = _mm256_loadu_pd(step_re + c);
    const __m256d si0 = _mm256_loadu_pd(step_im + c);
    __m256d ar0 = _mm256_setzero_pd();
    __m256d ai0 = _mm256_setzero_pd();
    for (std::size_t k = 0; k < steps; ++k) {
      const double a_re = comb[2 * k];
      const double a_im = comb[2 * k + 1];
      if (a_re != 0.0 || a_im != 0.0) {
        const __m256d va = _mm256_set1_pd(a_re);
        const __m256d vb = _mm256_set1_pd(a_im);
        ar0 = _mm256_add_pd(ar0, _mm256_sub_pd(_mm256_mul_pd(va, r0),
                                               _mm256_mul_pd(vb, i0)));
        ai0 = _mm256_add_pd(ai0, _mm256_add_pd(_mm256_mul_pd(va, i0),
                                               _mm256_mul_pd(vb, r0)));
      }
      if (k + 1 != steps) {
        const __m256d p0 = r0;
        r0 = _mm256_sub_pd(_mm256_mul_pd(p0, sr0), _mm256_mul_pd(i0, si0));
        i0 = _mm256_add_pd(_mm256_mul_pd(p0, si0), _mm256_mul_pd(i0, sr0));
      }
    }
    _mm256_storeu_pd(acc_re + c, ar0);
    _mm256_storeu_pd(acc_im + c, ai0);
  }
  WalkScalar(comb, steps, base_re + c, base_im + c, step_re + c, step_im + c,
             acc_re + c, acc_im + c, n - c);
}

__attribute__((target("avx2"))) void ChunkTermsAvx2(
    const double* table, const std::uint32_t* interval, const double* frac,
    const double* base_re, const double* base_im, double* term,
    std::size_t chunks) {
  for (std::size_t k = 0; k < chunks; ++k) {
    const double* c = table + 8 * std::size_t{interval[k]};
    const __m256d c0r = _mm256_broadcast_sd(c);
    const __m256d c0i = _mm256_broadcast_sd(c + 1);
    const __m256d c1r = _mm256_broadcast_sd(c + 2);
    const __m256d c1i = _mm256_broadcast_sd(c + 3);
    const __m256d c2r = _mm256_broadcast_sd(c + 4);
    const __m256d c2i = _mm256_broadcast_sd(c + 5);
    const __m256d c3r = _mm256_broadcast_sd(c + 6);
    const __m256d c3i = _mm256_broadcast_sd(c + 7);
    for (std::size_t h = 0; h < kChunkLanes; h += 4) {
      const std::size_t l = kChunkLanes * k + h;
      const __m256d s = _mm256_loadu_pd(frac + l);
      const __m256d br = _mm256_add_pd(
          c0r, _mm256_mul_pd(
                   s, _mm256_add_pd(
                          c1r, _mm256_mul_pd(
                                   s, _mm256_add_pd(c2r, _mm256_mul_pd(s, c3r))))));
      const __m256d bi = _mm256_add_pd(
          c0i, _mm256_mul_pd(
                   s, _mm256_add_pd(
                          c1i, _mm256_mul_pd(
                                   s, _mm256_add_pd(c2i, _mm256_mul_pd(s, c3i))))));
      const __m256d pr = _mm256_loadu_pd(base_re + l);
      const __m256d pi = _mm256_loadu_pd(base_im + l);
      const __m256d tr =
          _mm256_sub_pd(_mm256_mul_pd(br, pr), _mm256_mul_pd(bi, pi));
      const __m256d ti =
          _mm256_add_pd(_mm256_mul_pd(bi, pr), _mm256_mul_pd(br, pi));
      // Interleave to (re, im) pairs: lanes 0 2 / 1 3, then swap halves.
      const __m256d even = _mm256_unpacklo_pd(tr, ti);
      const __m256d odd = _mm256_unpackhi_pd(tr, ti);
      _mm256_storeu_pd(term + 2 * l, _mm256_permute2f128_pd(even, odd, 0x20));
      _mm256_storeu_pd(term + 2 * l + 4,
                       _mm256_permute2f128_pd(even, odd, 0x31));
    }
  }
}

/// The (re, im) pair of cell `c`'s term.
__attribute__((target("avx2"))) inline __m128d TermPair(
    const double* term, const std::uint32_t* lane, std::size_t c) {
  return _mm_loadu_pd(term + 2 * std::size_t{lane[c]});
}

__attribute__((target("avx2"))) void GatherAddAvx2(
    const double* term, const std::uint32_t* lane, bool init, double* acc_re,
    double* acc_im, double* magnitude, std::size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  std::size_t c = 0;
  for (; c + 4 <= n; c += 4) {
    // a = pairs (0, 2), b = pairs (1, 3): the per-128-bit unpacks then give
    // the four cells' re and im in cell order.
    const __m256d a = _mm256_set_m128d(TermPair(term, lane, c + 2),
                                       TermPair(term, lane, c));
    const __m256d b = _mm256_set_m128d(TermPair(term, lane, c + 3),
                                       TermPair(term, lane, c + 1));
    const __m256d re = _mm256_add_pd(
        init ? zero : _mm256_loadu_pd(acc_re + c), _mm256_unpacklo_pd(a, b));
    const __m256d im = _mm256_add_pd(
        init ? zero : _mm256_loadu_pd(acc_im + c), _mm256_unpackhi_pd(a, b));
    if (magnitude != nullptr) {
      _mm256_storeu_pd(magnitude + c,
                       _mm256_sqrt_pd(_mm256_add_pd(_mm256_mul_pd(re, re),
                                                    _mm256_mul_pd(im, im))));
    } else {
      _mm256_storeu_pd(acc_re + c, re);
      _mm256_storeu_pd(acc_im + c, im);
    }
  }
  GatherAddScalar(term, lane + c, init, acc_re + c, acc_im + c,
                  magnitude == nullptr ? nullptr : magnitude + c, n - c);
}

constexpr Kernels kAvx2Kernels{WalkAvx2, ChunkTermsAvx2, GatherAddAvx2,
                               Isa::kAvx2};

// ---------------------------------------------------------------------------
// AVX-512F: 8 doubles per lane group, same expression tree.

// One 32-cell block of the AVX-512 walk: 4 independent rotation chains of 8
// lanes; 26 of the 32 zmm registers stay live.
__attribute__((target("avx512f"))) inline void WalkAvx512Block32(
    const double* comb, std::size_t steps, const double* base_re,
    const double* base_im, const double* step_re, const double* step_im,
    double* acc_re, double* acc_im) {
  __m512d r[4], i[4], ar[4], ai[4];
  __m512d sr[4], si[4];
  for (std::size_t u = 0; u < 4; ++u) {
    r[u] = _mm512_loadu_pd(base_re + 8 * u);
    i[u] = _mm512_loadu_pd(base_im + 8 * u);
    sr[u] = _mm512_loadu_pd(step_re + 8 * u);
    si[u] = _mm512_loadu_pd(step_im + 8 * u);
    ar[u] = _mm512_setzero_pd();
    ai[u] = _mm512_setzero_pd();
  }
  for (std::size_t k = 0; k < steps; ++k) {
    const double a_re = comb[2 * k];
    const double a_im = comb[2 * k + 1];
    if (a_re != 0.0 || a_im != 0.0) {
      const __m512d va = _mm512_set1_pd(a_re);
      const __m512d vb = _mm512_set1_pd(a_im);
      for (std::size_t u = 0; u < 4; ++u) {
        ar[u] = _mm512_add_pd(ar[u], _mm512_sub_pd(_mm512_mul_pd(va, r[u]),
                                                   _mm512_mul_pd(vb, i[u])));
        ai[u] = _mm512_add_pd(ai[u], _mm512_add_pd(_mm512_mul_pd(va, i[u]),
                                                   _mm512_mul_pd(vb, r[u])));
      }
    }
    if (k + 1 != steps) {
      for (std::size_t u = 0; u < 4; ++u) {
        const __m512d p = r[u];
        r[u] = _mm512_sub_pd(_mm512_mul_pd(p, sr[u]),
                             _mm512_mul_pd(i[u], si[u]));
        i[u] = _mm512_add_pd(_mm512_mul_pd(p, si[u]),
                             _mm512_mul_pd(i[u], sr[u]));
      }
    }
  }
  for (std::size_t u = 0; u < 4; ++u) {
    _mm512_storeu_pd(acc_re + 8 * u, ar[u]);
    _mm512_storeu_pd(acc_im + 8 * u, ai[u]);
  }
}

__attribute__((target("avx512f"))) void WalkAvx512(
    const double* comb, std::size_t steps, const double* base_re,
    const double* base_im, const double* step_re, const double* step_im,
    double* acc_re, double* acc_im, std::size_t n) {
  std::size_t c = 0;
  for (; c + 32 <= n; c += 32) {
    WalkAvx512Block32(comb, steps, base_re + c, base_im + c, step_re + c,
                      step_im + c, acc_re + c, acc_im + c);
  }
  if (c == n) return;
  if (n >= 32) {
    // Overlapped tail: the walk is pure per cell (acc[c] is a function of
    // base[c]/step[c]/comb only), so re-running the final full-width block
    // shifted to end exactly at n rewrites the overlap with identical bits
    // and keeps the remainder at full vector throughput.
    c = n - 32;
    WalkAvx512Block32(comb, steps, base_re + c, base_im + c, step_re + c,
                      step_im + c, acc_re + c, acc_im + c);
    return;
  }
  // n < 32: 8-cell chunks as one chain, then scalar.
  for (; c + 8 <= n; c += 8) {
    __m512d r0 = _mm512_loadu_pd(base_re + c);
    __m512d i0 = _mm512_loadu_pd(base_im + c);
    const __m512d sr0 = _mm512_loadu_pd(step_re + c);
    const __m512d si0 = _mm512_loadu_pd(step_im + c);
    __m512d ar0 = _mm512_setzero_pd();
    __m512d ai0 = _mm512_setzero_pd();
    for (std::size_t k = 0; k < steps; ++k) {
      const double a_re = comb[2 * k];
      const double a_im = comb[2 * k + 1];
      if (a_re != 0.0 || a_im != 0.0) {
        const __m512d va = _mm512_set1_pd(a_re);
        const __m512d vb = _mm512_set1_pd(a_im);
        ar0 = _mm512_add_pd(ar0, _mm512_sub_pd(_mm512_mul_pd(va, r0),
                                               _mm512_mul_pd(vb, i0)));
        ai0 = _mm512_add_pd(ai0, _mm512_add_pd(_mm512_mul_pd(va, i0),
                                               _mm512_mul_pd(vb, r0)));
      }
      if (k + 1 != steps) {
        const __m512d p0 = r0;
        r0 = _mm512_sub_pd(_mm512_mul_pd(p0, sr0), _mm512_mul_pd(i0, si0));
        i0 = _mm512_add_pd(_mm512_mul_pd(p0, si0), _mm512_mul_pd(i0, sr0));
      }
    }
    _mm512_storeu_pd(acc_re + c, ar0);
    _mm512_storeu_pd(acc_im + c, ai0);
  }
  WalkScalar(comb, steps, base_re + c, base_im + c, step_re + c, step_im + c,
             acc_re + c, acc_im + c, n - c);
}

// One chunk is one vector: the cubic's coefficients are broadcasts and the
// frac/rotor loads are contiguous.
__attribute__((target("avx512f"))) void ChunkTermsAvx512(
    const double* table, const std::uint32_t* interval, const double* frac,
    const double* base_re, const double* base_im, double* term,
    std::size_t chunks) {
  // (re, im) pairs of lanes 0-3 and 4-7: index i < 8 picks tr[i], 8 + i
  // picks ti[i].
  const __m512i first = _mm512_set_epi64(11, 3, 10, 2, 9, 1, 8, 0);
  const __m512i second = _mm512_set_epi64(15, 7, 14, 6, 13, 5, 12, 4);
  for (std::size_t k = 0; k < chunks; ++k) {
    const double* c = table + 8 * std::size_t{interval[k]};
    const std::size_t l = kChunkLanes * k;
    const __m512d s = _mm512_loadu_pd(frac + l);
    const __m512d br = _mm512_add_pd(
        _mm512_set1_pd(c[0]),
        _mm512_mul_pd(
            s, _mm512_add_pd(
                   _mm512_set1_pd(c[2]),
                   _mm512_mul_pd(s, _mm512_add_pd(
                                        _mm512_set1_pd(c[4]),
                                        _mm512_mul_pd(s, _mm512_set1_pd(c[6])))))));
    const __m512d bi = _mm512_add_pd(
        _mm512_set1_pd(c[1]),
        _mm512_mul_pd(
            s, _mm512_add_pd(
                   _mm512_set1_pd(c[3]),
                   _mm512_mul_pd(s, _mm512_add_pd(
                                        _mm512_set1_pd(c[5]),
                                        _mm512_mul_pd(s, _mm512_set1_pd(c[7])))))));
    const __m512d pr = _mm512_loadu_pd(base_re + l);
    const __m512d pi = _mm512_loadu_pd(base_im + l);
    const __m512d tr =
        _mm512_sub_pd(_mm512_mul_pd(br, pr), _mm512_mul_pd(bi, pi));
    const __m512d ti =
        _mm512_add_pd(_mm512_mul_pd(bi, pr), _mm512_mul_pd(br, pi));
    _mm512_storeu_pd(term + 2 * l, _mm512_permutex2var_pd(tr, first, ti));
    _mm512_storeu_pd(term + 2 * l + 8, _mm512_permutex2var_pd(tr, second, ti));
  }
}

__attribute__((target("avx512f"))) void GatherAddAvx512(
    const double* term, const std::uint32_t* lane, bool init, double* acc_re,
    double* acc_im, double* magnitude, std::size_t n) {
  const __m512d zero = _mm512_setzero_pd();
  std::size_t c = 0;
  for (; c + 8 <= n; c += 8) {
    // a = pairs (0, 2, 4, 6), b = pairs (1, 3, 5, 7): the per-128-bit
    // unpacks then give the eight cells' re and im in cell order. One
    // 16-byte load per cell reads both parts from one cache line.
    // (The maskz forms with a full mask: the plain intrinsics start from an
    // undefined register.)
    const __m512d a = _mm512_maskz_insertf64x4(
        0xFF,
        _mm512_castpd256_pd512(_mm256_set_m128d(TermPair(term, lane, c + 2),
                                                TermPair(term, lane, c))),
        _mm256_set_m128d(TermPair(term, lane, c + 6),
                         TermPair(term, lane, c + 4)),
        1);
    const __m512d b = _mm512_maskz_insertf64x4(
        0xFF,
        _mm512_castpd256_pd512(_mm256_set_m128d(TermPair(term, lane, c + 3),
                                                TermPair(term, lane, c + 1))),
        _mm256_set_m128d(TermPair(term, lane, c + 7),
                         TermPair(term, lane, c + 5)),
        1);
    const __m512d re =
        _mm512_add_pd(init ? zero : _mm512_loadu_pd(acc_re + c),
                      _mm512_maskz_unpacklo_pd(0xFF, a, b));
    const __m512d im =
        _mm512_add_pd(init ? zero : _mm512_loadu_pd(acc_im + c),
                      _mm512_maskz_unpackhi_pd(0xFF, a, b));
    if (magnitude != nullptr) {
      _mm512_storeu_pd(
          magnitude + c,
          _mm512_maskz_sqrt_pd(0xFF, _mm512_add_pd(_mm512_mul_pd(re, re),
                                                   _mm512_mul_pd(im, im))));
    } else {
      _mm512_storeu_pd(acc_re + c, re);
      _mm512_storeu_pd(acc_im + c, im);
    }
  }
  GatherAddScalar(term, lane + c, init, acc_re + c, acc_im + c,
                  magnitude == nullptr ? nullptr : magnitude + c, n - c);
}

constexpr Kernels kAvx512Kernels{WalkAvx512, ChunkTermsAvx512,
                                 GatherAddAvx512, Isa::kAvx512};

#endif  // BLOC_SIMD_X86

}  // namespace

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "scalar";
}

std::optional<Isa> ParseIsa(std::string_view name) {
  if (name == "scalar") return Isa::kScalar;
  if (name == "avx2") return Isa::kAvx2;
  if (name == "avx512") return Isa::kAvx512;
  return std::nullopt;
}

bool IsaSupported(Isa isa) {
#if defined(BLOC_SIMD_X86)
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case Isa::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0;
  }
  return false;
#else
  return isa == Isa::kScalar;
#endif
}

Isa BestSupported() {
  if (IsaSupported(Isa::kAvx512)) return Isa::kAvx512;
  if (IsaSupported(Isa::kAvx2)) return Isa::kAvx2;
  return Isa::kScalar;
}

Isa ResolveIsa(const char* force, Isa best) {
  if (force == nullptr) return best;
  const std::optional<Isa> wanted = ParseIsa(force);
  if (!wanted) return best;  // unrecognized spelling: ignore the override
  // Forcing wider than the CPU supports clamps down; forcing narrower is
  // always honored (every CPU can run the scalar kernels).
  return *wanted <= best ? *wanted : best;
}

const Kernels& ForIsa(Isa isa) {
#if defined(BLOC_SIMD_X86)
  switch (isa) {
    case Isa::kScalar:
      return kScalarKernels;
    case Isa::kAvx2:
      return kAvx2Kernels;
    case Isa::kAvx512:
      return kAvx512Kernels;
  }
#endif
  return kScalarKernels;
}

const Kernels& Active() {
  // Resolved exactly once; thread-safe via C++ static-init guarantees.
  static const Kernels& table =
      ForIsa(ResolveIsa(std::getenv("BLOC_FORCE_ISA"), BestSupported()));
  return table;
}

}  // namespace bloc::dsp::simd
