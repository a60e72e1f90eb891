// Runtime CPU dispatch for the split-complex comb walk.
//
// The steering-plan kernel (bloc/steering_plan.h) tabulates each antenna's
// band sum B_j(D) once per round by walking the dense band comb over a few
// hundred table entries; every grid cell then interpolates that table. The
// walk is the one dispatched kernel: this facility probes the CPU once at
// startup and resolves a function-pointer table to explicit scalar / AVX2 /
// AVX-512 variants, so a portable binary still runs 512-bit walks on
// machines that have them.
//
// Bit-identity contract: every variant performs the same IEEE-754 double
// operations in the same per-element order and none uses FMA (the
// translation unit is additionally built with -ffp-contract=off), so every
// table entry — and with it every map value — is bit-identical across ISAs
// and lane packings. The cross-ISA parity tests rely on this.
//
// `BLOC_FORCE_ISA=scalar|avx2|avx512` overrides the probe (clamped down to
// what the CPU supports) — used by the tests and the CI scalar leg.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

namespace bloc::dsp::simd {

enum class Isa {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

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
