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
// select the same positions; the reference kernel stays selectable via
// SpectraConfig as the accuracy oracle.
#pragma once

#include <span>

#include "anchor/array.h"
#include "bloc/corrected_channel.h"
#include "dsp/aligned.h"
#include "dsp/grid2d.h"
#include "geom/vec2.h"

namespace bloc::dsp {
class ThreadPool;
}  // namespace bloc::dsp

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

/// Which Eq. 17 implementation the localizer runs.
enum class LikelihoodKernel {
  /// Precomputed steering plan + per-round band table (the default).
  kSteeringPlan,
  /// Per-cell sqrt/sincos naive loop; kept for parity testing.
  kReference,
};

/// How the likelihood surface is searched for the position estimate.
enum class SearchMode {
  /// Evaluate every cell of every anchor map at full resolution (the
  /// reference behavior).
  kExhaustive,
  /// Hierarchical coarse-to-fine: evaluate a strided coarse level, bound
  /// each block from its coarse neighborhood, refine only the blocks that
  /// can still matter for peak selection (DESIGN.md §5e). Selected
  /// positions are bit-identical to exhaustive as long as the block bounds
  /// hold; violated bounds trigger an automatic exhaustive fallback.
  kCoarseToFine,
};

struct SearchConfig {
  SearchMode mode = SearchMode::kExhaustive;
  /// Coarse decimation: fine cells per block side (>= 2 for coarse mode; a
  /// smaller value falls back to exhaustive). At the paper's 7.5 cm grid,
  /// stride 4 samples every 30 cm; the 3x3 coarse neighborhood then spans
  /// ~0.9 m, wide enough to envelope the fused surface's fringes. Strides
  /// 3 and 4 prune almost identically on the fig9 workload, but 4 halves
  /// the coarse-pass and span-bookkeeping overhead (fewer, larger blocks),
  /// and 5+ starts tripping the bound canary.
  std::size_t coarse_stride = 4;
  /// Safety factor kappa on the 3x3-coarse-neighborhood upper bound.
  /// Per-round worst block-max/neighborhood ratios on the fig9 workload
  /// cluster around 1.05-1.25, with a tail at 1.34/1.43 and one outlier
  /// block near 2.0 (a fine peak landing between coarse samples); 1.45
  /// covers every round that the refine-pass canary would otherwise bounce
  /// to the exhaustive fallback, while the canary plus the position-parity
  /// audit absorb anything beyond. Larger values refine more blocks;
  /// smaller values prune harder at the cost of more canary fallbacks.
  double bound_inflation = 1.45;
  /// Refine every block whose fused upper bound reaches this fraction of
  /// the best fused coarse sample. At or below the FindPeaks floor
  /// (ScoringConfig min_relative_height, 0.2 by default) the refined map
  /// reproduces the full peak list; above it, low peaks may be dropped from
  /// the candidate list while every surviving peak keeps its exact value,
  /// entropy window and score — the argmax cell is always refined, and the
  /// selected positions stay bit-identical on the fig9 workloads (asserted
  /// by the parity tests and the CI parity job).
  double refine_threshold = 0.9;
  /// When the survivor set exceeds this fraction of all cells, pruning is
  /// not paying for its bookkeeping: run the exhaustive path instead.
  double max_refine_fraction = 0.95;
  /// Debug/CI mode: recompute every round exhaustively as well and throw
  /// unless the coarse path selected the bit-identical position.
  bool parity_check = false;
};

struct SpectraConfig {
  LikelihoodKernel kernel = LikelihoodKernel::kSteeringPlan;
  SearchConfig search;
};

/// One anchor's band table for one round (BuildBandTable, steering_plan.h):
/// for every antenna j and D-grid interval i, the cubic through the samples
/// of B_j at entries i-1 .. i+2 as Horner coefficients c0..c3, each an
/// interleaved (re, im) pair — 8 doubles, one cache line, per interval.
using BandTable = dsp::AlignedVec<double>;

/// Scratch buffers for the likelihood-map kernels: the dense 2 MHz band
/// comb, the antenna-position cache and the steering-plan kernel's band
/// table. Reusing one workspace across calls makes the in-place map
/// variants allocation-free in steady state.
struct SpectraWorkspace {
  std::vector<dsp::CVec> dense;       // comb values per antenna
  std::vector<std::size_t> k_of;      // band index -> comb step
  std::vector<geom::Vec2> ant_pos;    // antenna positions
  double comb_f0 = 0.0;
  double comb_step = 2.0e6;           // BLE channel spacing
  std::size_t comb_steps = 0;
  /// B_j samples of one antenna (the table build's walk output).
  dsp::SplitComplexVec band_samples;
  /// The round's band table of the full-map kernels.
  BandTable table;
};

class Localizer;
struct LocalizerWorkspace;

/// Strategy for turning one round's corrected channels into the fused
/// likelihood map (the map stage of the pipeline). Implementations live in
/// localizer.cc; instances are stateless process-wide singletons — all
/// per-round scratch stays in the caller's LocalizerWorkspace.
class SearchStrategy {
 public:
  virtual ~SearchStrategy() = default;
  virtual SearchMode mode() const = 0;
  /// Computes the round's fused (cross-anchor) map into ws.EnsureFused().
  /// Requires ws.corrected and ws.fuse_order to be populated (the filter
  /// and correct stages have run). Peak selection over the result is
  /// bit-identical across strategies (see SearchMode::kCoarseToFine).
  /// `map_pool` is the anchor-map executor: nullptr runs the per-anchor
  /// maps serially on the caller, a pool fans them out with its
  /// ParallelFor. The result is bit-identical either way.
  virtual void BuildFusedInto(const Localizer& localizer,
                              LocalizerWorkspace& ws,
                              const dsp::ThreadPool* map_pool) const = 0;
};

/// The singleton strategy implementing `mode`.
const SearchStrategy& GetSearchStrategy(SearchMode mode);

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
