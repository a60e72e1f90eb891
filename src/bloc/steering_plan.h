// Precomputed steering plans for the Eq. 17 likelihood kernels.
//
// For a fixed (grid, anchor geometry, master reference, comb layout) the
// per-cell relative distances D_ij(x) never change between rounds. The band
// sum of antenna j factors as
//   sum_k alpha_jk e^{j 2 pi (f0 + k df) D / c} = e^{j 2 pi f0 D / c} B_j(D),
//   B_j(D) = sum_k alpha_jk e^{j 2 pi k df D / c},
// and B_j spans only the ~78 MHz comb, so it is smooth in D (the band
// stitching of Chronos). A SteeringPlan hoists all geometry out of the hot
// path once: per (cell, antenna) the base rotor e^{j 2 pi f0 D / c} and the
// cell's position on a fixed 5 cm D grid; per plan the step rotors that
// sample B_j on that grid. Each round then tabulates B_j once per antenna
// (the dispatched comb walk over a few hundred D-grid entries instead of
// every cell) as per-interval cubics through 4 samples, and every cell
// costs one cubic evaluation and one complex multiply per antenna: no
// distance sqrt, no sin/cos, no comb walk.
//
// Interpolated values differ from the reference kernel by under 1e-6 of the
// map peak; the full map and every cell window run the same span kernel,
// so they agree with each other bit for bit.
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

/// Spacing of the D grid the per-round band-sum tables sample B_j on. B_j
/// varies on a c / 78 MHz ~ 3.8 m scale, so 5 cm cubic interpolation stays
/// within 1e-6 of the map peak.
inline constexpr double kBandTableStep = 0.05;

/// One (cell, antenna) entry of a plan: everything the per-cell kernel needs
/// to evaluate e^{j 2 pi f0 D / c} B_j(D) from the antenna's band table.
struct PlanTerm {
  /// The base rotor e^{j 2 pi f0 D / c}.
  double base_re = 1.0;
  double base_im = 0.0;
  /// Position of D inside its table interval, in [0, 1).
  double frac = 0.0;
  /// The table interval holding D, counted antenna-major over the whole
  /// band table (so it already includes the antenna's offset). Interval i
  /// spans entries i .. i+1 and interpolates entries i-1 .. i+2.
  std::uint32_t interval = 0;
};
static_assert(sizeof(PlanTerm) == 32);

/// Immutable per-(anchor, grid, comb) precomputation: for every grid cell x
/// and active antenna j, the relative distance D_j(x) = |x-a_j| - |x-m00| -
/// d_i0, the base rotor and the band-table stencil of D_j(x); and, per
/// plan, the D grid of the band tables with its step rotors
/// e^{j 2 pi df D_t / c}. Cell index runs row-major, matching Grid2D
/// storage. Safe to share read-only across threads.
class SteeringPlan {
 public:
  /// Throws std::invalid_argument for an invalid grid, no antennas, or a
  /// non-finite relative distance (NaN/inf antenna or reference geometry).
  explicit SteeringPlan(SteeringPlanKey key);

  const SteeringPlanKey& key() const { return key_; }
  std::size_t num_cells() const { return cells_; }
  std::size_t num_antennas() const { return key_.antennas.size(); }

  /// The D_j(x) field of antenna `j` (hyperbolic level sets, Fig. 6b).
  const dsp::Grid2D& RelativeDistance(std::size_t j) const {
    return rel_d_[j];
  }

  /// The num_antennas() terms of `cell`, antenna-minor.
  const PlanTerm* terms(std::size_t cell) const {
    return terms_.data() + cell * num_antennas();
  }

  /// D-grid entries (and table intervals) per antenna, kBandTableStep
  /// apart; band tables hold num_antennas() runs of them back to back.
  std::size_t table_len() const { return table_step_.size(); }
  /// The comb walk's per-entry rotors that tabulate B_j: base 1 and step
  /// e^{j 2 pi df D_t / c}.
  const dsp::SplitComplexVec& table_base() const { return table_base_; }
  const dsp::SplitComplexVec& table_step() const { return table_step_; }

  /// Term + relative-distance + table-rotor storage of this plan, in bytes
  /// — what the cache's byte budget accounts.
  std::size_t MemoryBytes() const {
    // A 32-byte PlanTerm plus the D field per (cell, antenna): 40 bytes.
    return cells_ * num_antennas() * (sizeof(PlanTerm) + sizeof(double)) +
           table_len() * 4 * sizeof(double);
  }

 private:
  SteeringPlanKey key_;
  std::size_t cells_ = 0;
  std::vector<dsp::Grid2D> rel_d_;
  dsp::AlignedVec<PlanTerm> terms_;
  dsp::SplitComplexVec table_base_;  // (1, 0) per entry: the walk's start
  dsp::SplitComplexVec table_step_;
};

/// Capacity bounds of the steering-plan cache. Either limit alone evicts;
/// the most recently used plan is always retained even when it exceeds the
/// byte budget by itself (the pipeline needs at least one plan to run).
struct SteeringCacheLimits {
  /// Maximum resident plans. A deployment needs one plan per distinct
  /// (anchor geometry, grid, comb) — 64 comfortably covers the multi-
  /// scenario benches while bounding pathological sweeps.
  std::size_t max_plans = 64;
  /// Maximum resident plan storage (SteeringPlan::MemoryBytes sums).
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
  /// `bloc.steering_plan_cache.evictions` counter).
  std::size_t evictions() const;
  /// Resident plan bytes (also the `bloc.steering_plan_cache.bytes` gauge).
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

/// The per-round half of the factored kernel: samples B_j(D) of every
/// active antenna of `input` on the plan's D grid and turns the samples
/// into `table` (antenna-major, plan.table_len() intervals each). The
/// samples come from the dispatched comb walk, so the table is bit-
/// identical across ISAs. Throws std::invalid_argument when `plan` does not
/// match `input`.
void BuildBandTable(const SpectraInput& input, const SteeringPlan& plan,
                    BandTable& table, SpectraWorkspace& ws);

/// Steering-plan variant of JointLikelihoodMapInto (spectra.h): builds the
/// round's band table into ws.table, then interpolates every cell. Agrees
/// with the reference kernel to within 1e-6 of the map peak. `grid` must
/// already have the plan's spec. Throws std::invalid_argument when `plan`
/// does not match (input, grid).
void JointLikelihoodMapInto(const SpectraInput& input, const SteeringPlan& plan,
                            dsp::Grid2D& grid, SpectraWorkspace& ws);

/// Steering-plan variant of the Eq. 16 distance-only map (same contract).
void DistanceOnlyMapInto(const SpectraInput& input, const SteeringPlan& plan,
                         dsp::Grid2D& grid, SpectraWorkspace& ws);

/// A contiguous run of row-major fine cells: [begin, begin + length).
struct CellSpan {
  std::uint32_t begin = 0;
  std::uint32_t length = 0;
};

/// The one Eq. 17 plan kernel: evaluates the cells of `spans` from a band
/// table BuildBandTable made for this plan, reading the plan's terms as one
/// sequential stream per span. out[i] covers the spans concatenated in
/// order. The full map is the single span over every cell; a cell window is
/// one span per window row. Every value is bit-identical to the
/// corresponding cell of the full-grid map (one per-cell expression, no FMA
/// contraction). Throws std::invalid_argument when `table` does not fit
/// `plan` or a span runs past the grid.
void JointLikelihoodSpansInto(const SteeringPlan& plan, const BandTable& table,
                              std::span<const CellSpan> spans, double* out);

}  // namespace bloc::core
