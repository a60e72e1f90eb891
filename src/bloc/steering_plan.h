// Precomputed steering plans for the Eq. 17 likelihood kernels.
//
// For a fixed (grid, anchor geometry, master reference, comb layout) the
// per-cell relative distances D_ij(x) and the base/step phase rotors of the
// comb walk never change between rounds. A SteeringPlan hoists all of that
// out of the hot path once — SpotFi/ArrayTrack-style steering-matrix
// precomputation mapped onto BLoc's Cartesian grid — leaving the steady-state
// kernel a branch-free complex multiply-accumulate over cells x comb steps
// with no sqrt, no sin/cos and no std::complex arithmetic.
//
// Rotors are stored split-complex (separate aligned re[]/im[] arrays, cell
// index contiguous) so the fused MAC+rotate loop auto-vectorizes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "bloc/spectra.h"
#include "dsp/aligned.h"
#include "dsp/grid2d.h"
#include "geom/vec2.h"
#include "obs/metrics.h"

namespace bloc::core {

/// Everything the precomputed geometry terms depend on. Two keys compare
/// equal iff the plans would be identical (exact double compare: any
/// difference rebuilds, which is the safe direction for a cache).
struct SteeringPlanKey {
  dsp::GridSpec grid;
  /// Positions of the active antennas (after max_antennas truncation).
  std::vector<geom::Vec2> antennas;
  geom::Vec2 master_ref;
  double master_ref_distance = 0.0;
  double comb_f0 = 0.0;
  double comb_step = 0.0;

  bool operator==(const SteeringPlanKey&) const = default;
};

/// Builds the key for `input` evaluated on `grid`. Throws when `input` has
/// no bands (comb_f0 would be undefined).
SteeringPlanKey MakeSteeringPlanKey(const SpectraInput& input,
                                    const dsp::GridSpec& spec,
                                    double comb_step = 2.0e6);

/// One coarse level of the steering pyramid: the fine grid decimated into
/// stride x stride blocks. A level owns no rotors — `sample_cells` holds,
/// per block, the row-major fine-grid index of the block's minimum-corner
/// cell, so coarse evaluation gathers straight out of the fine plan's
/// storage and coarse samples are exact fine-cell values.
struct SteeringLevel {
  std::size_t stride = 1;
  std::size_t bcols = 0;  // blocks per row
  std::size_t brows = 0;  // block rows
  std::size_t fine_cols = 0;
  std::size_t fine_rows = 0;
  /// Per block (row-major over the block grid), the fine cell sampled at
  /// the coarse level.
  std::vector<std::uint32_t> sample_cells;

  std::size_t num_blocks() const { return sample_cells.size(); }

  /// Builds the level geometry for `spec` decimated by `stride` (>= 1).
  static SteeringLevel Build(const dsp::GridSpec& spec, std::size_t stride);

  /// Appends the row-major fine-cell indices of block (bc, br) to `out`.
  /// Edge blocks are clipped to the fine grid.
  void AppendBlockCells(std::size_t bc, std::size_t br,
                        std::vector<std::uint32_t>& out) const;
};

/// Immutable per-(anchor, grid, comb) precomputation: for every grid cell x
/// and active antenna j, the relative distance D_j(x) = |x-a_j| - |x-m00| -
/// d_i0 and the unit rotors e^{j 2 pi f0 D/c} (base) and e^{j 2 pi df D/c}
/// (step). Cell index runs row-major, matching Grid2D storage. Safe to share
/// read-only across threads.
class SteeringPlan {
 public:
  explicit SteeringPlan(SteeringPlanKey key);

  const SteeringPlanKey& key() const { return key_; }
  std::size_t num_cells() const { return cells_; }
  std::size_t num_antennas() const { return key_.antennas.size(); }

  /// The D_j(x) field of antenna `j` (hyperbolic level sets, Fig. 6b).
  const dsp::Grid2D& RelativeDistance(std::size_t j) const {
    return rel_d_[j];
  }

  // Split-complex rotor arrays of antenna `j`, each num_cells() long.
  const double* base_re(std::size_t j) const { return base_[j].re.data(); }
  const double* base_im(std::size_t j) const { return base_[j].im.data(); }
  const double* step_re(std::size_t j) const { return step_[j].re.data(); }
  const double* step_im(std::size_t j) const { return step_[j].im.data(); }

  /// The pyramid level decimating this plan's grid by `stride`. Levels are
  /// index views (no rotor copies), built lazily and memoized; safe to call
  /// concurrently.
  std::shared_ptr<const SteeringLevel> Level(std::size_t stride) const;

  /// Rotor + relative-distance storage of this plan, in bytes — what the
  /// cache's byte budget accounts (pyramid levels are index-only and small).
  std::size_t MemoryBytes() const {
    // rel_d + base/step re/im: five doubles per (cell, antenna).
    return cells_ * num_antennas() * 5 * sizeof(double);
  }

 private:
  SteeringPlanKey key_;
  std::size_t cells_ = 0;
  std::vector<dsp::Grid2D> rel_d_;
  std::vector<dsp::SplitComplexVec> base_;
  std::vector<dsp::SplitComplexVec> step_;
  mutable std::mutex level_mu_;
  mutable std::vector<std::shared_ptr<const SteeringLevel>> levels_;
};

/// Capacity bounds of the steering-plan cache. Either limit alone evicts;
/// the most recently used plan is always retained even when it exceeds the
/// byte budget by itself (the pipeline needs at least one plan to run).
struct SteeringCacheLimits {
  /// Maximum resident plans. A deployment needs one plan per distinct
  /// (anchor geometry, grid, comb) — 64 comfortably covers the multi-
  /// scenario benches while bounding pathological sweeps.
  std::size_t max_plans = 64;
  /// Maximum resident rotor storage (SteeringPlan::MemoryBytes sums).
  std::size_t max_bytes = std::size_t{512} << 20;
};

/// Thread-safe keyed LRU cache of steering plans. Plans are built at most
/// once per resident key (first-round cost only) and handed out as
/// shared_ptr<const>, so readers never synchronize after the build and
/// eviction never invalidates a plan still in use. Builds run outside the
/// mutex behind a per-key in-progress entry: builds of different keys (one
/// per anchor of a fanned-out round) run in parallel, and a lookup of a
/// key being built waits for that one build only. One cache per Localizer /
/// LocalizationEngine serves every worker thread; multi-scenario runs stay
/// within SteeringCacheLimits instead of growing without bound.
class SteeringPlanCache {
 public:
  SteeringPlanCache();
  explicit SteeringPlanCache(SteeringCacheLimits limits);

  std::shared_ptr<const SteeringPlan> GetOrBuild(const SteeringPlanKey& key);

  /// Allocation-free on the hit path: compares `input`/`spec` against the
  /// cached keys field-by-field and only materializes a key on a miss.
  std::shared_ptr<const SteeringPlan> GetOrBuild(const SpectraInput& input,
                                                 const dsp::GridSpec& spec,
                                                 double comb_step = 2.0e6);

  /// Number of plans built so far (distinct keys seen, plus rebuilds of
  /// evicted keys). The amortization tests assert this stops growing after
  /// the first round.
  /// Deprecated: thin wrapper over per-instance state kept for existing
  /// callers; new code should read the `bloc.steering_plan_cache.*`
  /// registry counters (obs/metrics.h) instead.
  std::size_t builds() const;
  /// Total lookups (hits + builds). Deprecated: see builds().
  std::size_t lookups() const;

  /// Plans evicted by the LRU bounds so far (also published as the
  /// `bloc.steering_cache.evictions` counter).
  std::size_t evictions() const;
  /// Resident rotor bytes (also the `bloc.steering_cache.bytes` gauge).
  std::size_t bytes() const;
  const SteeringCacheLimits& limits() const { return limits_; }

 private:
  /// A plan under construction; lookups of its key wait on `plan`.
  struct Building {
    SteeringPlanKey key;
    std::shared_future<std::shared_ptr<const SteeringPlan>> plan;
  };

  /// The one lookup path: a resident plan matching `matches(key)`, else the
  /// in-progress build of that key, else a new build of `make_key()`
  /// outside the mutex.
  template <typename MatchFn, typename KeyFn>
  std::shared_ptr<const SteeringPlan> Lookup(const MatchFn& matches,
                                             const KeyFn& make_key);
  void EvictOverBudgetLocked();

  mutable std::mutex mu_;
  /// MRU-first: hits rotate the plan to the front, eviction pops the back.
  std::vector<std::shared_ptr<const SteeringPlan>> plans_;
  /// Builds in progress (at most one per key). A list, so each builder's
  /// iterator to its own entry stays valid while others come and go.
  std::list<Building> building_;
  SteeringCacheLimits limits_;
  std::size_t builds_ = 0;
  std::size_t lookups_ = 0;
  std::size_t evictions_ = 0;
  std::size_t bytes_ = 0;
  obs::Counter& builds_metric_;
  obs::Counter& lookups_metric_;
  obs::Counter& evictions_metric_;
  obs::Gauge& bytes_gauge_;
};

/// Steering-plan variant of JointLikelihoodMapInto (spectra.h): identical
/// output to the reference kernel, but all geometry work comes from `plan`.
/// `grid` must already have the plan's spec. Throws std::invalid_argument
/// when `plan` does not match (input, grid).
void JointLikelihoodMapInto(const SpectraInput& input, const SteeringPlan& plan,
                            dsp::Grid2D& grid, SpectraWorkspace& ws);

/// Steering-plan variant of the Eq. 16 distance-only map (same contract).
void DistanceOnlyMapInto(const SpectraInput& input, const SteeringPlan& plan,
                         dsp::Grid2D& grid, SpectraWorkspace& ws);

/// Evaluates the Eq. 17 magnitude of `input` at an arbitrary subset of plan
/// cells: out[i] = the joint-likelihood value at row-major fine cell
/// cells[i]. The comb walk runs the same dispatched kernels over rotors
/// gathered into `ws`, and the kernels are lane-order-independent (no FMA),
/// so each out[i] is bit-identical to the corresponding cell of
/// JointLikelihoodMapInto over the full grid — the property the
/// coarse-to-fine search rests on. Throws when `plan` does not match
/// `input` or a cell index is out of range.
void JointLikelihoodCellsInto(const SpectraInput& input,
                              const SteeringPlan& plan,
                              std::span<const std::uint32_t> cells,
                              double* out, SpectraWorkspace& ws);

/// A contiguous run of row-major fine cells: [begin, begin + length).
struct CellSpan {
  std::uint32_t begin = 0;
  std::uint32_t length = 0;
};

/// Span variant of JointLikelihoodCellsInto for contiguous cell runs: the
/// rotors of a run are already contiguous in the plan's storage, so the walk
/// kernel reads them in place — no per-cell gather, same per-cell cost as
/// the full-grid path. out[i] covers the spans concatenated in order; every
/// value is bit-identical to the corresponding cell of the full-grid map
/// (the kernels are lane-order-independent). This is what makes refining a
/// large survivor fraction cheaper than re-running the exhaustive map.
void JointLikelihoodSpansInto(const SpectraInput& input,
                              const SteeringPlan& plan,
                              std::span<const CellSpan> spans,
                              double* out, SpectraWorkspace& ws);

}  // namespace bloc::core
