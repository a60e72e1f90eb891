// The full BLoc pipeline (paper §5): corrected channels -> per-anchor joint
// likelihood -> cross-anchor fusion -> multipath-rejecting peak selection.
//
// The pipeline is split into explicit stages (filter -> correct -> per-anchor
// spectra -> fuse -> score) that operate on a caller-owned
// LocalizerWorkspace, so steady-state localization reuses every buffer
// instead of reallocating per round. Locate is the one pipeline: given a
// thread pool it fans the per-anchor maps out on it, which is how
// LocalizationEngine (bloc/engine.h) runs it, with bit-identical results.
// The map stage is one code path too: every anchor's Eq. 17 map runs over a
// cell window, the whole grid unless the caller sets a gate (SearchGate,
// DESIGN.md §5e), and the maps fuse in anchor-id order.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "bloc/calibration.h"
#include "bloc/corrected_channel.h"
#include "bloc/multipath.h"
#include "bloc/spectra.h"
#include "bloc/steering_plan.h"
#include "dsp/grid2d.h"
#include "net/collector.h"

namespace bloc::dsp {
class ThreadPool;
}  // namespace bloc::dsp

namespace bloc::core {

struct LocalizerConfig {
  /// Search region; typically the room plus a small margin.
  dsp::GridSpec grid{0.0, 0.0, 6.0, 5.0, 0.075};
  ScoringConfig scoring;
  /// Eq. 17 kernel selection (steering-plan vs reference).
  SpectraConfig spectra;
  /// Use only the first N antennas of each anchor (0 = all) — §8.4.
  std::size_t max_antennas = 0;
  /// Restrict to these data channels (empty = all present) — §8.5/8.6.
  std::vector<std::uint8_t> allowed_channels;
  /// Restrict to these anchors (empty = all; must include the master) — §8.3.
  std::vector<std::uint32_t> allowed_anchors;
  /// Retain the fused likelihood map in the result (costs memory).
  bool keep_map = false;
};

struct LocationResult {
  geom::Vec2 position;
  double score = 0.0;
  std::vector<ScoredPeak> peaks;
  std::size_t bands_used = 0;
  std::size_t anchors_used = 0;
  /// Present when LocalizerConfig::keep_map is set.
  std::shared_ptr<const dsp::Grid2D> fused_map;
};

/// A rectangle of grid cells: columns [col0, col1) of rows [row0, row1).
struct CellWindow {
  std::size_t col0 = 0;
  std::size_t col1 = 0;
  std::size_t row0 = 0;
  std::size_t row1 = 0;

  /// The window covering every cell of `spec`.
  static CellWindow Full(const dsp::GridSpec& spec) {
    return {0, spec.Cols(), 0, spec.Rows()};
  }
  std::size_t cells() const { return (col1 - col0) * (row1 - row0); }
  bool operator==(const CellWindow&) const = default;
};

/// Optional per-round gate (track-while-localize, DESIGN.md §5g): the
/// square of half-width `radius_m` around `center`, typically the Kalman
/// prediction sized by its covariance. When active, the map stage evaluates
/// every anchor map over the gate's cells dilated by the scoring halo,
/// normalizes each by its maximum over that window and leaves the fused
/// map zero outside it. A gate whose window covers the whole grid runs the
/// ungated path. A miss — a non-finite center, a non-finite or non-positive
/// radius, a window entirely off the grid, or an anchor with no positive
/// value inside the window — re-runs the round over the whole grid and is
/// recorded in SearchStats::gate_missed.
struct SearchGate {
  bool active = false;
  geom::Vec2 center;
  double radius_m = 0.0;
};

/// Per-round outcome of the map stage, read by the tracker, the tests and
/// the obs counters.
struct SearchStats {
  /// The maps ran over a gate window smaller than the grid.
  bool gated = false;
  /// An active gate missed and the round ran over the whole grid.
  bool gate_missed = false;
  /// (cell, anchor) kernel evaluations, a missed gate's included.
  std::size_t cells_evaluated = 0;
};

/// Map-stage scratch: each fuse-order slot's pre-normalization maximum, the
/// window the round's maps ran over and the round's stats.
struct SearchScratch {
  std::vector<double> anchor_peaks;
  CellWindow window;
  SearchStats stats;
};

/// All per-round scratch of the staged pipeline. Owned by the caller (one
/// per engine worker); every buffer is reused round after round, so the
/// steady state performs no heap allocations for a fixed deployment shape.
struct LocalizerWorkspace {
  RoundView view;
  CorrectedChannels corrected;
  /// Anchor indices into `corrected.anchors` in fusion order (ascending
  /// anchor id) — fixed so threaded and serial runs fuse identically.
  std::vector<std::size_t> fuse_order;
  /// One map per anchor in fuse order, so maps can be computed concurrently
  /// and then fused in a fixed order.
  std::vector<dsp::Grid2D> anchor_maps;
  /// Kernel scratch per executing slot (ThreadPool::ParallelFor slot id;
  /// the serial path uses slot 0).
  std::vector<SpectraWorkspace> spectra;
  /// Fused map, shared-ptr-owned so keep_map hands the round's map to the
  /// result without a deep copy; the next round allocates a fresh grid only
  /// if the previous one is still referenced by a result.
  std::shared_ptr<dsp::Grid2D> fused;
  /// Map-stage scratch and per-round stats.
  SearchScratch search;
  /// Caller-set per-round gate (see SearchGate). The map stage never
  /// mutates it; callers that gate one round must clear `active` after.
  SearchGate gate;

  /// Ensures `fused` exists and is not aliased by an outstanding result.
  dsp::Grid2D& EnsureFused() {
    if (!fused || fused.use_count() != 1) {
      fused = std::make_shared<dsp::Grid2D>();
    }
    return *fused;
  }
};

class Localizer {
 public:
  Localizer(Deployment deployment, LocalizerConfig config);

  /// Localizes the tag from one complete measurement round. Returns a
  /// sentinel result (score = 0, anchors_used = 0) when the round is empty
  /// or filtering removed every usable report.
  LocationResult Locate(const net::MeasurementRound& round) const;

  /// Allocation-free variant: all scratch lives in the caller's workspace.
  /// `map_pool` is the anchor-map executor: nullptr computes the round's
  /// per-anchor maps serially on the caller; a pool fans them out with
  /// ParallelFor (the caller takes part, so this is safe from inside a
  /// task of that same pool). Bit-identical to Locate(round) either way.
  LocationResult Locate(const net::MeasurementRound& round,
                        LocalizerWorkspace& ws,
                        const dsp::ThreadPool* map_pool = nullptr) const;

  /// The corrected channels after anchor/band filtering — exposed for
  /// diagnostics and the microbenchmarks.
  CorrectedChannels CorrectedFor(const net::MeasurementRound& round) const;

  /// Builds the fused (cross-anchor) likelihood map of the whole grid
  /// without peak selection.
  dsp::Grid2D FusedMap(const CorrectedChannels& corrected) const;

  /// The map stage of Locate over an already-corrected round: (re)derives
  /// ws.fuse_order from ws.corrected and builds the fused map into
  /// ws.EnsureFused(), over ws.gate's window when it is active. `map_pool`
  /// fans the per-anchor maps out as in Locate (bit-identical either way).
  void FusedMapInto(LocalizerWorkspace& ws,
                    const dsp::ThreadPool* map_pool = nullptr) const;

  // --- Pipeline stages of Locate, in execution order ---

  /// Filter: selects the allowed reports/bands of `round` into `view`
  /// (index lists, no copies). Returns false when nothing usable survives —
  /// no reports kept, or the master's report was filtered away — in which
  /// case the caller should emit the sentinel LocationResult.
  bool FilterInto(const net::MeasurementRound& round, RoundView& view) const;

  /// Correct: phase-offset-cancelled channels for the filtered view.
  void CorrectInto(const RoundView& view, CorrectedChannels& out) const;

  /// Fusion order over `corrected.anchors`: ascending anchor id.
  void FuseOrder(const CorrectedChannels& corrected,
                 std::vector<std::size_t>& order) const;

  /// Per-anchor spectra: the joint likelihood map of
  /// `corrected.anchors[anchor_index]` over `window` (nullptr: the whole
  /// grid), written into `map` (reshaped to the configured grid, zero
  /// outside the window) and divided by its maximum. Returns that maximum;
  /// when it is not positive the map is left unnormalized. Safe to call
  /// concurrently for distinct anchors with distinct `map`/`ws`.
  double AnchorMapInto(const CorrectedChannels& corrected,
                       std::size_t anchor_index, dsp::Grid2D& map,
                       SpectraWorkspace& ws,
                       const CellWindow* window = nullptr) const;

  /// The Eq. 17 evaluation inputs of `corrected.anchors[anchor_index]`
  /// under this deployment/config — what AnchorMapInto evaluates.
  SpectraInput SpectraInputFor(const CorrectedChannels& corrected,
                               std::size_t anchor_index) const;

  /// Score: multipath-rejecting peak selection over the fused map. When
  /// keep_map is configured the result shares `fused` (no deep copy), so
  /// callers that reuse the grid must re-acquire it via
  /// LocalizerWorkspace::EnsureFused before the next round.
  LocationResult ScoreFused(std::shared_ptr<const dsp::Grid2D> fused,
                            const CorrectedChannels& corrected) const;

  const Deployment& deployment() const { return deployment_; }
  const LocalizerConfig& config() const { return config_; }

  /// The steering-plan cache behind AnchorMapInto: created per Localizer,
  /// shared read-only by every thread that localizes through this instance
  /// (the engine's workers all hit this one cache).
  SteeringPlanCache& plan_cache() const { return *plan_cache_; }

 private:
  Deployment deployment_;
  LocalizerConfig config_;
  /// allowed_anchors, sorted for binary-search lookup in FilterInto.
  std::vector<std::uint32_t> allowed_anchors_sorted_;
  /// Direct-indexed allowed_channels membership (data channels are uint8).
  std::array<bool, 256> channel_allowed_{};
  bool filter_channels_ = false;
  std::shared_ptr<SteeringPlanCache> plan_cache_;
};

}  // namespace bloc::core
