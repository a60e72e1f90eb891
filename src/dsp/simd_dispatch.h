// Runtime CPU dispatch for the Eq. 17 plan kernels.
//
// The steering-plan kernel (bloc/steering_plan.h) tabulates each antenna's
// band sum B_j(D) once per round by walking the dense band comb over a few
// hundred table entries (`walk`); each antenna's plan terms, grouped by
// table interval into 8-lane chunks, then interpolate that table
// (`chunk_terms`) and are gathered back into cell order (`gather_add`).
// Each kernel is written once, as a template over the vector width, and
// instantiated three times: "scalar" (the baseline target, 2 lanes — SSE2
// on x86-64), AVX2 (4 lanes) and AVX-512 (8 lanes). This facility probes
// the CPU once at startup and resolves a function-pointer table to one of
// the three, so a portable binary still runs 512-bit code on machines that
// have it.
//
// Bit-identity contract: every instantiation performs the same IEEE-754
// double operations in the same per-element order and none uses FMA (the
// translation unit is additionally built with -ffp-contract=off), so every
// table entry, plan term and map value is bit-identical across ISAs and
// lane packings. The cross-ISA parity tests rely on this.
//
// `BLOC_FORCE_ISA=scalar|avx2|avx512` overrides the probe (clamped down to
// what the CPU supports) — used by the tests and the CI scalar and AVX2
// legs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace bloc::dsp::simd {

enum class Isa {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// Lanes of one plan chunk: one AVX-512 vector of doubles.
inline constexpr std::size_t kChunkLanes = 8;

/// The dispatched kernels. All per-element arrays are length `n`; aliasing
/// between distinct arguments is not allowed.
struct Kernels {
  /// The comb walk per element: starting from cur = base, for each comb
  /// step k apply the MAC acc += comb[k] * cur (skipped when comb[k] == 0,
  /// a comb gap) and then the rotation cur *= step (skipped on the final
  /// step), writing the summed accumulator to acc. `comb` is `steps`
  /// interleaved (re, im) pairs.
  void (*walk)(const double* comb, std::size_t steps, const double* base_re,
               const double* base_im, const double* step_re,
               const double* step_im, double* acc_re, double* acc_im,
               std::size_t n);
  /// The plan terms of `chunks` chunks of kChunkLanes lanes. Chunk k reads
  /// the 8 doubles at table + 8 * interval[k] — the Horner coefficients
  /// c0..c3 of one cubic as interleaved (re, im) pairs — and each of its
  /// lanes l = kChunkLanes * k + i evaluates, per component,
  ///   b = c0 + s * (c1 + s * (c2 + s * c3)),  s = frac[l],
  /// then writes the term b * base[l] as the pair term[2l], term[2l + 1]:
  /// re = b_re * base_re - b_im * base_im, im = b_im * base_re + b_re *
  /// base_im. `term` must be 64-byte aligned, so each chunk's 16 doubles fill
  /// two whole cache lines: the 8-lane variant's two 64-byte stores then
  /// never split a line (unaligned, they cost ~25% of the kernel).
  void (*chunk_terms)(const double* table, const std::uint32_t* interval,
                      const double* frac, const double* base_re,
                      const double* base_im, double* term,
                      std::size_t chunks);
  /// For c < n, per component: sum = (init ? 0.0 : acc[c]) + the pair at
  /// term + 2 * lane[c]. Stores sum to acc, or, when `magnitude` is not
  /// null, stores sqrt(sum_re * sum_re + sum_im * sum_im) to magnitude[c]
  /// instead and leaves acc untouched (the last antenna of a map).
  void (*gather_add)(const double* term, const std::uint32_t* lane, bool init,
                     double* acc_re, double* acc_im, double* magnitude,
                     std::size_t n);
  Isa isa = Isa::kScalar;
};

/// Lowercase spelling used by BLOC_FORCE_ISA and the metrics/logs.
const char* IsaName(Isa isa);

/// Inverse of IsaName; nullopt for unknown spellings.
std::optional<Isa> ParseIsa(std::string_view name);

/// Whether this CPU can execute the variant (scalar is always true).
bool IsaSupported(Isa isa);

/// The widest ISA this CPU supports.
Isa BestSupported();

/// Pure resolution rule: `force` is the BLOC_FORCE_ISA value (may be null
/// or unrecognized, both meaning "no override"), `best` the probe result.
/// A forced ISA wider than `best` clamps down to `best`.
Isa ResolveIsa(const char* force, Isa best);

/// The kernel table of a specific variant. Callers must check
/// IsaSupported(isa) first; used by the cross-ISA parity tests.
const Kernels& ForIsa(Isa isa);

/// The process-wide active table: ResolveIsa(getenv("BLOC_FORCE_ISA"),
/// BestSupported()), resolved once on first call and cached.
const Kernels& Active();

}  // namespace bloc::dsp::simd
