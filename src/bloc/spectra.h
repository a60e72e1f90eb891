// Likelihood maps over 2-D space from corrected channels (paper §5.3).
//
// JointLikelihoodMap implements Eq. 17 mapped onto Cartesian coordinates:
// P_i(x) = | sum_j sum_k alpha_ij^{f_k} e^{+j 2 pi f_k / c * D_ij(x)} | with
// D_ij(x) = |x - a_ij| - |x - m_00| - d_i0, where a_ij is antenna j of
// anchor i and m_00 is antenna 0 of the master. Angle-only (Eq. 15) and
// distance-only (Eq. 16) maps are provided for analysis and the Fig. 6
// illustrations.
//
// Two kernels evaluate Eq. 17. The reference kernel (JointLikelihoodMapInto
// without a plan) recomputes distances and walks the band comb per cell; the
// steering-plan kernel (bloc/steering_plan.h) factors each band sum into a
// precomputed base rotor times a per-round table of the comb's band sum,
// interpolated per cell. The two agree to within 1e-6 of the map peak and
// select the same positions. The Localizer runs only the plan kernel; the
// reference kernel stays a free function here, the accuracy oracle that the
// parity tests and bench_perf's speedup gate call directly.
#pragma once

#include <cstdint>
#include <span>

#include "anchor/array.h"
#include "bloc/corrected_channel.h"
#include "dsp/aligned.h"
#include "dsp/grid2d.h"
#include "geom/vec2.h"

namespace bloc::core {

class SteeringPlan;
class SteeringPlanCache;

struct SpectraInput {
  /// Corrected channels of one anchor: alpha[antenna][band].
  const AnchorCorrected* channels = nullptr;
  anchor::ArrayGeometry geometry;
  /// Antenna 0 of the master anchor (relative-distance reference).
  geom::Vec2 master_ref_antenna;
  /// d_i0^00 from deployment calibration (0 for the master anchor).
  double master_ref_distance = 0.0;
  std::span<const double> band_freqs_hz;
  /// Use only the first `max_antennas` antennas (0 = all).
  std::size_t max_antennas = 0;
};

/// Whether TrackedLocalizer gates the map stage with its Kalman prediction.
/// The Localizer itself never reads the mode: every round evaluates the
/// Eq. 17 maps over a cell window (LocalizerWorkspace::gate, DESIGN.md
/// §5e), the whole grid unless a caller sets a gate. Only TrackedLocalizer,
/// which gates only in kCoarseToFine, and bench_traj read this; the names
/// stay for the benchmark harness that selects them.
enum class SearchMode {
  /// Ungated: every cell of every anchor map.
  kExhaustive,
  /// TrackedLocalizer restricts each round to a window around its
  /// prediction; ungated rounds are bit-identical to kExhaustive.
  kCoarseToFine,
};

struct SearchConfig {
  /// Read only by TrackedLocalizer and bench_traj (see SearchMode).
  SearchMode mode = SearchMode::kExhaustive;
};

struct SpectraConfig {
  SearchConfig search;
};

/// One anchor's band table for one round (BuildBandTable, steering_plan.h):
/// for every antenna j and D-grid interval i, the cubic through the samples
/// of B_j at entries i-1 .. i+2 as Horner coefficients c0..c3, each an
/// interleaved (re, im) pair — 8 doubles, one cache line, per interval.
using BandTable = dsp::AlignedVec<double>;

/// A contiguous run of row-major grid cells: [begin, begin + length).
struct CellSpan {
  std::uint32_t begin = 0;
  std::uint32_t length = 0;
};

/// Scratch buffers for the likelihood-map kernels: the dense 2 MHz band
/// comb, the antenna-position cache and the steering-plan kernel's band
/// table, terms and accumulators. Reusing one workspace across calls makes
/// the in-place map variants allocation-free in steady state: the term and
/// accumulator buffers only grow, to the largest plan's exact need (~245 KB
/// after the 4 fig9 anchors). The Localizer's map stage keeps one per executing
/// thread (thread_local), so every tag that thread serves runs on it warm.
struct SpectraWorkspace {
  std::vector<dsp::CVec> dense;       // comb values per antenna
  std::vector<std::size_t> k_of;      // band index -> comb step
  std::vector<geom::Vec2> ant_pos;    // antenna positions
  double comb_f0 = 0.0;
  double comb_step = 2.0e6;           // BLE channel spacing
  std::size_t comb_steps = 0;
  /// B_j samples of one antenna (the table build's walk output).
  dsp::SplitComplexVec band_samples;
  /// The round's band table of the plan kernel (full map or window).
  BandTable table;
  /// One antenna's chunk terms as (re, im) pairs (SteeringPlan::max_lanes()
  /// lanes): a cell's gather reads both parts from one cache line. 64-byte
  /// aligned, as the chunk_terms kernel requires (dsp/simd_dispatch.h).
  dsp::AlignedVec<double> terms;
  /// Per-cell coherent sums over the antennas (one per grid cell).
  dsp::SplitComplexVec acc;
  /// A cell window's rows as spans (Localizer::AnchorMapInto).
  std::vector<CellSpan> spans;
};

namespace detail {
/// Number of antennas the kernels actually process for `input`.
std::size_t EffectiveAntennas(const SpectraInput& input);
/// Re-indexes the (possibly gappy) band list onto a dense 2 MHz comb so a
/// band sum becomes a single rotor walk. Writes into the workspace,
/// reusing its buffers.
void BuildComb(const SpectraInput& input, std::size_t antennas,
               SpectraWorkspace& ws);
}  // namespace detail

/// Eq. 17: coherent combination over antennas and bands (steering-plan
/// kernel with a plan built on the fly).
dsp::Grid2D JointLikelihoodMap(const SpectraInput& input,
                               const dsp::GridSpec& spec);

/// In-place reference kernel: overwrites every cell of `grid` (whose spec
/// defines the evaluation points) using `ws` for scratch. Recomputes all
/// geometry and walks the full band comb per cell: the exact Eq. 17 that
/// JointLikelihoodMap approximates to within 1e-6 of the map peak.
void JointLikelihoodMapInto(const SpectraInput& input, dsp::Grid2D& grid,
                            SpectraWorkspace& ws);

/// Eq. 15 mapped to space: per-band Bartlett angle spectra evaluated at the
/// bearing of each grid cell, summed incoherently over bands.
dsp::Grid2D AngleOnlyMap(const SpectraInput& input, const dsp::GridSpec& spec);

/// Eq. 16 mapped to space: per-antenna relative-distance spectra (hyperbolic
/// level sets), summed incoherently over antennas. Runs the steering-plan
/// kernel; pass `cache` to reuse plans across calls (nullptr builds one).
dsp::Grid2D DistanceOnlyMap(const SpectraInput& input,
                            const dsp::GridSpec& spec,
                            SteeringPlanCache* cache = nullptr);

/// The classic 1-D Bartlett angle pseudospectrum at a single band:
/// P(theta) = | sum_j alpha_j e^{+j 2 pi j l sin(theta) f / c} | evaluated on
/// `thetas` (radians, relative to array boresight).
dsp::RVec AngleSpectrum(std::span<const dsp::cplx> per_antenna, double freq_hz,
                        double spacing_m, std::span<const double> thetas);

}  // namespace bloc::core
