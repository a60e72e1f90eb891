// The comb walk and the two plan-chunk kernels, each written once as a
// template over the vector width W and instantiated per ISA: the baseline
// target with W = 2 (SSE2 on x86-64), AVX2 with W = 4 and AVX-512F with
// W = 8.
//
// The walk evaluates, per element c and comb step k:
//   acc[c] += comb[k] * cur[c]  (complex MAC, split re/im; skipped on gaps)
//   cur[c] *= step[c]           (complex rotate; skipped on the last step)
// The chunk kernel evaluates one Horner cubic and one complex multiply per
// lane, and the gather kernel one add per (re, im) component (and, on a
// map's last antenna, the magnitude sqrt(re * re + im * im)). The GCC/Clang
// vector extensions apply each operator lane by lane with IEEE semantics,
// so every width evaluates the same expression per element — separate
// multiplies and adds, never an FMA — and the results are bit-identical
// across ISAs and across lane/tail splits. This file is compiled with
// -ffp-contract=off (src/dsp/CMakeLists.txt) to keep the compiler from
// fusing those multiply-adds behind our back.
//
// The templates are force-inlined into thin per-ISA entry points with
// internal linkage, so each instantiation is compiled for its entry point's
// target. (Building this file once per -m flag instead would let the linker
// merge inline functions across ISAs, and an AVX-512 copy could then run on
// a CPU without it.)

#include "dsp/simd_dispatch.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define BLOC_SIMD_X86 1
#endif

namespace bloc::dsp::simd {

namespace {

// W doubles. (GCC ignores vector_size on an alias template, so the type is
// declared in a class template.)
template <int W>
struct VecOf {
  typedef double Type __attribute__((vector_size(8 * W)));
};
template <int W>
using Vec = typename VecOf<W>::Type;

template <int W>
[[gnu::always_inline]] inline Vec<W> Load(const double* p) {
  Vec<W> v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <typename V>
[[gnu::always_inline]] inline void Store(double* p, V v) {
  std::memcpy(p, &v, sizeof v);
}

// The per-128-bit unpacks of a and b: Even = a0 b0 a2 b2 ... and
// Odd = a1 b1 a3 b3 ...
template <int W>
[[gnu::always_inline]] inline Vec<W> Even(Vec<W> a, Vec<W> b) {
  if constexpr (W == 2) {
    return __builtin_shufflevector(a, b, 0, 2);
  } else if constexpr (W == 4) {
    return __builtin_shufflevector(a, b, 0, 4, 2, 6);
  } else {
    return __builtin_shufflevector(a, b, 0, 8, 2, 10, 4, 12, 6, 14);
  }
}

template <int W>
[[gnu::always_inline]] inline Vec<W> Odd(Vec<W> a, Vec<W> b) {
  if constexpr (W == 2) {
    return __builtin_shufflevector(a, b, 1, 3);
  } else if constexpr (W == 4) {
    return __builtin_shufflevector(a, b, 1, 5, 3, 7);
  } else {
    return __builtin_shufflevector(a, b, 1, 9, 3, 11, 5, 13, 7, 15);
  }
}

// ---------------------------------------------------------------------------
// The comb walk.

// Cells [0, W * Chains): Chains independent rotation chains of W lanes.
// Each cell's rotation is a serial multiply chain across steps, so
// interleaving chains hides its latency.
template <int W, int Chains>
[[gnu::always_inline]] inline void WalkBlock(
    const double* comb, std::size_t steps, const double* base_re,
    const double* base_im, const double* step_re, const double* step_im,
    double* acc_re, double* acc_im) {
  Vec<W> r[Chains], i[Chains], sr[Chains], si[Chains], ar[Chains], ai[Chains];
  for (int u = 0; u < Chains; ++u) {
    r[u] = Load<W>(base_re + W * u);
    i[u] = Load<W>(base_im + W * u);
    sr[u] = Load<W>(step_re + W * u);
    si[u] = Load<W>(step_im + W * u);
    ar[u] = Vec<W>{};
    ai[u] = Vec<W>{};
  }
  for (std::size_t k = 0; k < steps; ++k) {
    const double a_re = comb[2 * k];
    const double a_im = comb[2 * k + 1];
    if (a_re != 0.0 || a_im != 0.0) {
      for (int u = 0; u < Chains; ++u) {
        ar[u] += a_re * r[u] - a_im * i[u];
        ai[u] += a_re * i[u] + a_im * r[u];
      }
    }
    if (k + 1 != steps) {
      for (int u = 0; u < Chains; ++u) {
        const Vec<W> p = r[u];
        r[u] = p * sr[u] - i[u] * si[u];
        i[u] = p * si[u] + i[u] * sr[u];
      }
    }
  }
  for (int u = 0; u < Chains; ++u) {
    Store(acc_re + W * u, ar[u]);
    Store(acc_im + W * u, ai[u]);
  }
}

template <int W, int Chains>
[[gnu::always_inline]] inline void Walk(
    const double* comb, std::size_t steps, const double* base_re,
    const double* base_im, const double* step_re, const double* step_im,
    double* acc_re, double* acc_im, std::size_t n) {
  constexpr std::size_t kBlock = W * Chains;
  if (n < kBlock) {
    if constexpr (Chains > 1) {
      Walk<W, 1>(comb, steps, base_re, base_im, step_re, step_im, acc_re,
                 acc_im, n);
    } else {
      // Fewer cells than lanes: walk them in the low lanes of zero-padded
      // copies.
      double in[4][W] = {};
      double out[2][W];
      for (std::size_t c = 0; c < n; ++c) {
        in[0][c] = base_re[c];
        in[1][c] = base_im[c];
        in[2][c] = step_re[c];
        in[3][c] = step_im[c];
      }
      WalkBlock<W, 1>(comb, steps, in[0], in[1], in[2], in[3], out[0],
                      out[1]);
      std::memcpy(acc_re, out[0], n * sizeof(double));
      std::memcpy(acc_im, out[1], n * sizeof(double));
    }
    return;
  }
  for (std::size_t c = 0; c < n; c += kBlock) {
    // Overlapped tail: the walk is pure per cell (acc[c] is a function of
    // base[c]/step[c]/comb only), so the last block is shifted to end
    // exactly at n; it rewrites the overlap with identical bits and keeps
    // the remainder at full vector throughput.
    c = std::min(c, n - kBlock);
    WalkBlock<W, Chains>(comb, steps, base_re + c, base_im + c, step_re + c,
                         step_im + c, acc_re + c, acc_im + c);
  }
}

// ---------------------------------------------------------------------------
// The plan-chunk kernels.

// Stores lanes (re[l], im[l]) as W interleaved pairs.
template <int W>
[[gnu::always_inline]] inline void StoreInterleaved(double* out, Vec<W> re,
                                                    Vec<W> im) {
  if constexpr (W == 8) {
    Store(out, __builtin_shufflevector(re, im, 0, 8, 1, 9, 2, 10, 3, 11));
    Store(out + 8,
          __builtin_shufflevector(re, im, 4, 12, 5, 13, 6, 14, 7, 15));
  } else {
    const Vec<W> even = Even<W>(re, im);
    const Vec<W> odd = Odd<W>(re, im);
    if constexpr (W == 2) {
      Store(out, even);
      Store(out + 2, odd);
    } else {
      // An unpack, then a 128-bit block pick: the direct two-source
      // 4-wide shuffle lowers to more instructions.
      Store(out, __builtin_shufflevector(even, odd, 0, 1, 4, 5));
      Store(out + 4, __builtin_shufflevector(even, odd, 2, 3, 6, 7));
    }
  }
}

template <int W>
[[gnu::always_inline]] inline void ChunkTerms(
    const double* table, const std::uint32_t* interval, const double* frac,
    const double* base_re, const double* base_im, double* term,
    std::size_t chunks) {
  for (std::size_t k = 0; k < chunks; ++k) {
    // The cubic is shared by the chunk's lanes. Its coefficients stay in
    // scalar locals: staging them through a stack array costs a
    // store-forwarding stall per chunk.
    const double* c = table + 8 * std::size_t{interval[k]};
    const double c0r = c[0], c0i = c[1], c1r = c[2], c1i = c[3];
    const double c2r = c[4], c2i = c[5], c3r = c[6], c3i = c[7];
    for (std::size_t h = 0; h < kChunkLanes; h += W) {
      const std::size_t l = kChunkLanes * k + h;
      const Vec<W> s = Load<W>(frac + l);
      const Vec<W> br = c0r + s * (c1r + s * (c2r + s * c3r));
      const Vec<W> bi = c0i + s * (c1i + s * (c2i + s * c3i));
      const Vec<W> pr = Load<W>(base_re + l);
      const Vec<W> pi = Load<W>(base_im + l);
      StoreInterleaved<W>(term + 2 * l, br * pr - bi * pi, bi * pr + br * pi);
    }
  }
}

// The (re, im) pairs of cells 0, 2, ..., W - 2 of `lane`, concatenated: one
// 16-byte load per cell reads both parts from one cache line.
template <int W>
[[gnu::always_inline]] inline Vec<W> TermPairs(const double* term,
                                               const std::uint32_t* lane) {
  if constexpr (W == 2) {
    return Load<2>(term + 2 * std::size_t{lane[0]});
  } else {
    const Vec<W / 2> lo = TermPairs<W / 2>(term, lane);
    const Vec<W / 2> hi = TermPairs<W / 2>(term, lane + W / 2);
    if constexpr (W == 4) {
      return __builtin_shufflevector(lo, hi, 0, 1, 2, 3);
    } else {
      return __builtin_shufflevector(lo, hi, 0, 1, 2, 3, 4, 5, 6, 7);
    }
  }
}

template <int W>
[[gnu::always_inline]] inline void GatherAdd(
    const double* term, const std::uint32_t* lane, bool init, double* acc_re,
    double* acc_im, double* magnitude, std::size_t n) {
  std::size_t c = 0;
  for (; c + W <= n; c += W) {
    // a holds the pairs of cells c, c + 2, ..., b those of c + 1, c + 3, ...:
    // their even and odd lanes are the W cells' re and im in cell order.
    const Vec<W> a = TermPairs<W>(term, lane + c);
    const Vec<W> b = TermPairs<W>(term, lane + c + 1);
    const Vec<W> re = (init ? Vec<W>{} : Load<W>(acc_re + c)) + Even<W>(a, b);
    const Vec<W> im = (init ? Vec<W>{} : Load<W>(acc_im + c)) + Odd<W>(a, b);
    if (magnitude != nullptr) {
      Vec<W> m = re * re + im * im;
      for (int e = 0; e < W; ++e) m[e] = std::sqrt(m[e]);
      Store(magnitude + c, m);
    } else {
      Store(acc_re + c, re);
      Store(acc_im + c, im);
    }
  }
  // The last n % W cells. The gather adds into acc, so an overlapped
  // vector would add twice.
  for (; c < n; ++c) {
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

// ---------------------------------------------------------------------------
// The per-ISA entry points: forwarding templates whose parameter types are
// deduced from the Kernels slot they fill. The walk keeps 2, 2 and 4
// chains: at W = 8, 4 chains leave 26 of the 32 zmm registers live; at
// W = 2 and 4, 2 chains stay inside the 16 xmm/ymm registers (4 step
// rotors + 4 cur + 4 acc + 2 comb broadcasts).

void WalkScalar(auto... a) { Walk<2, 2>(a...); }
void ChunkTermsScalar(auto... a) { ChunkTerms<2>(a...); }
void GatherAddScalar(auto... a) { GatherAdd<2>(a...); }

constexpr Kernels kScalarKernels{WalkScalar, ChunkTermsScalar,
                                 GatherAddScalar, Isa::kScalar};

#if defined(BLOC_SIMD_X86)

[[gnu::target("avx2")]] void WalkAvx2(auto... a) { Walk<4, 2>(a...); }
[[gnu::target("avx2")]] void ChunkTermsAvx2(auto... a) { ChunkTerms<4>(a...); }
[[gnu::target("avx2")]] void GatherAddAvx2(auto... a) { GatherAdd<4>(a...); }

constexpr Kernels kAvx2Kernels{WalkAvx2, ChunkTermsAvx2, GatherAddAvx2,
                               Isa::kAvx2};

[[gnu::target("avx512f")]] void WalkAvx512(auto... a) { Walk<8, 4>(a...); }
[[gnu::target("avx512f")]] void ChunkTermsAvx512(auto... a) {
  ChunkTerms<8>(a...);
}
[[gnu::target("avx512f")]] void GatherAddAvx512(auto... a) {
  GatherAdd<8>(a...);
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
