#include "bloc/localizer.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "dsp/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bloc::core {

namespace {

/// Registry handles for the localization stages, resolved once per process
/// (DESIGN.md §5d).
struct LocalizerMetrics {
  obs::Counter& rounds = obs::GetCounter("bloc.localizer.rounds");
  obs::Counter& empty_rounds = obs::GetCounter("bloc.localizer.empty_rounds");
  obs::Histogram& filter_us = obs::GetHistogram("bloc.localizer.filter_us");
  obs::Histogram& correct_us = obs::GetHistogram("bloc.localizer.correct_us");
  obs::Histogram& anchor_map_us =
      obs::GetHistogram("bloc.localizer.anchor_map_us");
  obs::Histogram& fuse_us = obs::GetHistogram("bloc.localizer.fuse_us");
  obs::Histogram& score_us = obs::GetHistogram("bloc.localizer.score_us");
  // The windowed map stage (DESIGN.md §5e).
  obs::Counter& search_cells_evaluated =
      obs::GetCounter("bloc.search.cells_evaluated");
  obs::Counter& search_gated_rounds =
      obs::GetCounter("bloc.search.gated_rounds");
  obs::Counter& search_gate_misses =
      obs::GetCounter("bloc.search.gate_misses");

  static const LocalizerMetrics& Get() {
    static const LocalizerMetrics metrics;
    return metrics;
  }
};

/// The window of `gate` on `grid`: the cells of the gate square dilated by
/// `halo` cells and clipped to the grid. False on a miss: a non-finite
/// center or radius, a non-positive radius, or a square entirely off the
/// grid. Finiteness is checked before anything is cast to an index.
bool GateWindow(const SearchGate& gate, const dsp::GridSpec& grid,
                std::size_t halo, CellWindow& out) {
  if (!std::isfinite(gate.center.x) || !std::isfinite(gate.center.y) ||
      !std::isfinite(gate.radius_m) || !(gate.radius_m > 0.0)) {
    return false;
  }
  const double x0 = gate.center.x - gate.radius_m;
  const double x1 = gate.center.x + gate.radius_m;
  const double y0 = gate.center.y - gate.radius_m;
  const double y1 = gate.center.y + gate.radius_m;
  if (x1 < grid.x_min || x0 > grid.x_max || y1 < grid.y_min ||
      y0 > grid.y_max) {
    return false;
  }
  // [lo, hi): the cells whose interval [c, c + 1) x resolution meets
  // [v0, v1], plus the halo, within [0, n).
  const auto range = [&](double v0, double v1, double origin, std::size_t n,
                         std::size_t& lo, std::size_t& hi) {
    const double last = static_cast<double>(n - 1);
    const double h = static_cast<double>(halo);
    lo = static_cast<std::size_t>(std::clamp(
        std::floor((v0 - origin) / grid.resolution) - h, 0.0, last));
    hi = static_cast<std::size_t>(std::clamp(
             std::floor((v1 - origin) / grid.resolution) + h, 0.0, last)) +
         1;
  };
  range(x0, x1, grid.x_min, grid.Cols(), out.col0, out.col1);
  range(y0, y1, grid.y_min, grid.Rows(), out.row0, out.row1);
  return true;
}

}  // namespace

Localizer::Localizer(Deployment deployment, LocalizerConfig config)
    : deployment_(std::move(deployment)),
      config_(std::move(config)),
      plan_cache_(std::make_shared<SteeringPlanCache>()) {
  if (deployment_.Master() == nullptr) {
    throw std::invalid_argument("Localizer: deployment has no master anchor");
  }
  if (!config_.grid.Valid()) {
    throw std::invalid_argument("Localizer: invalid grid spec");
  }
  // Build the sorted/direct-indexed filter tables once so FilterInto never
  // linear-scans the allow-lists per report or per band.
  allowed_anchors_sorted_ = config_.allowed_anchors;
  std::sort(allowed_anchors_sorted_.begin(), allowed_anchors_sorted_.end());
  filter_channels_ = !config_.allowed_channels.empty();
  for (const std::uint8_t ch : config_.allowed_channels) {
    channel_allowed_[ch] = true;
  }
  if (!allowed_anchors_sorted_.empty() &&
      !std::binary_search(allowed_anchors_sorted_.begin(),
                          allowed_anchors_sorted_.end(),
                          deployment_.Master()->id)) {
    throw std::invalid_argument(
        "Localizer: allowed_anchors must include the master anchor");
  }
}

bool Localizer::FilterInto(const net::MeasurementRound& round,
                           RoundView& view) const {
  view.Begin(round);
  bool has_master = false;
  const bool filter_anchors = !allowed_anchors_sorted_.empty();
  for (std::size_t i = 0; i < round.reports.size(); ++i) {
    const anchor::CsiReport& r = round.reports[i];
    if (filter_anchors &&
        !std::binary_search(allowed_anchors_sorted_.begin(),
                            allowed_anchors_sorted_.end(), r.anchor_id)) {
      continue;
    }
    RoundView::ReportView& rv = view.Append(i);
    for (std::size_t k = 0; k < r.bands.size(); ++k) {
      if (filter_channels_ && !channel_allowed_[r.bands[k].data_channel]) {
        continue;
      }
      rv.bands.push_back(k);
    }
    if (rv.bands.empty()) {
      view.RemoveLast();
    } else if (r.is_master) {
      has_master = true;
    }
  }
  return view.num_reports() > 0 && has_master;
}

void Localizer::CorrectInto(const RoundView& view,
                            CorrectedChannels& out) const {
  ComputeCorrectedChannelsInto(view, out);
}

void Localizer::FuseOrder(const CorrectedChannels& corrected,
                          std::vector<std::size_t>& order) const {
  order.resize(corrected.anchors.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return corrected.anchors[a].anchor_id <
                            corrected.anchors[b].anchor_id;
                   });
}

SpectraInput Localizer::SpectraInputFor(const CorrectedChannels& corrected,
                                        std::size_t anchor_index) const {
  const AnchorCorrected& ac = corrected.anchors[anchor_index];
  const AnchorPose* pose = deployment_.Find(ac.anchor_id);
  if (pose == nullptr) {
    throw std::invalid_argument("Localizer: report from unknown anchor");
  }
  SpectraInput input;
  input.channels = &ac;
  input.geometry = pose->geometry;
  input.master_ref_antenna =
      deployment_.Master()->geometry.AntennaPosition(0);
  input.master_ref_distance =
      deployment_.MasterReferenceDistance(ac.anchor_id);
  input.band_freqs_hz = corrected.band_freqs_hz;
  input.max_antennas = config_.max_antennas;
  return input;
}

double Localizer::AnchorMapInto(const CorrectedChannels& corrected,
                                std::size_t anchor_index, dsp::Grid2D& map,
                                SpectraWorkspace& ws,
                                const CellWindow* window) const {
  const SpectraInput input = SpectraInputFor(corrected, anchor_index);
  map.Reset(config_.grid);
  const auto plan = plan_cache_->GetOrBuild(input, config_.grid, ws.comb_step);
  if (window == nullptr) {
    JointLikelihoodMapInto(input, *plan, map, ws);
  } else {
    // One kernel call over all window rows: the chunk pass runs once per
    // antenna, and each value lands at its own cell of `map`.
    BuildBandTable(input, *plan, ws.table, ws);
    const std::size_t cols = map.cols();
    ws.spans.clear();
    for (std::size_t row = window->row0; row < window->row1; ++row) {
      ws.spans.push_back(
          {static_cast<std::uint32_t>(row * cols + window->col0),
           static_cast<std::uint32_t>(window->col1 - window->col0)});
    }
    JointLikelihoodSpansInto(*plan, ws.table, ws.spans, map.data().data(), ws);
  }
  // Peak-normalize so one near anchor cannot drown the others. Cells
  // outside the window are zero, so the grid maximum is the window's.
  return map.NormalizePeak();
}

LocationResult Localizer::ScoreFused(std::shared_ptr<const dsp::Grid2D> fused,
                                     const CorrectedChannels& corrected) const {
  const Selection sel = SelectLocation(*fused, deployment_, config_.scoring);
  // Degenerate or non-finite map (e.g. a NaN CSI sample): sentinel.
  if (sel.peaks.empty() || !std::isfinite(sel.peaks.front().score)) {
    return LocationResult{};
  }

  LocationResult result;
  result.position = sel.position;
  result.score = sel.peaks.front().score;
  result.peaks = sel.peaks;
  result.bands_used = corrected.num_bands();
  result.anchors_used = corrected.anchors.size();
  if (config_.keep_map) {
    result.fused_map = std::move(fused);
  }
  return result;
}

CorrectedChannels Localizer::CorrectedFor(
    const net::MeasurementRound& round) const {
  RoundView view;
  FilterInto(round, view);
  CorrectedChannels out;
  ComputeCorrectedChannelsInto(view, out);
  return out;
}

void Localizer::FusedMapInto(LocalizerWorkspace& ws,
                             const dsp::ThreadPool* map_pool) const {
  const LocalizerMetrics& metrics = LocalizerMetrics::Get();
  FuseOrder(ws.corrected, ws.fuse_order);
  SearchStats& stats = ws.search.stats;
  stats = SearchStats{};
  const std::size_t n = ws.fuse_order.size();
  // The map stage's scratch belongs to the executing thread, not to `ws`
  // (DESIGN.md §5), so it stays warm across every tag the thread serves. A
  // thread runs at most one map stage at a time: ParallelFor's caller
  // blocks without running other tasks. The anchor maps are the calling
  // thread's, bound to a reference here so that pool helpers write into
  // them (inside the lambda, `thread_maps` would name the helper's own).
  thread_local std::vector<dsp::Grid2D> thread_maps;
  std::vector<dsp::Grid2D>& maps = thread_maps;
  if (maps.size() < n) maps.resize(n);
  ws.search.anchor_peaks.resize(n);

  // The gate's window; one covering the whole grid is the ungated path.
  const CellWindow full = CellWindow::Full(config_.grid);
  CellWindow& window = ws.search.window;
  window = full;
  if (ws.gate.active) {
    // Peak neighborhoods and entropy windows of any peak inside the gate
    // must be exact, so the window reaches the larger radius beyond it.
    const std::size_t halo =
        std::max(config_.scoring.entropy_window_radius,
                 config_.scoring.peaks.neighborhood_radius);
    stats.gate_missed = !GateWindow(ws.gate, config_.grid, halo, window);
    stats.gated = !stats.gate_missed && window != full;
  }

  const auto run_maps = [&] {
    const auto anchor_map = [&](std::size_t i, std::size_t) {
      // The kernel scratch of the thread running this map.
      thread_local SpectraWorkspace spectra;
      const std::size_t idx = ws.fuse_order[i];
      obs::TraceSpan span("localize.anchor_map", "bloc",
                          ws.corrected.anchors[idx].anchor_id);
      obs::ScopedTimer timer(metrics.anchor_map_us);
      ws.search.anchor_peaks[i] =
          AnchorMapInto(ws.corrected, idx, maps[i], spectra,
                        stats.gated ? &window : nullptr);
    };
    if (map_pool == nullptr) {
      for (std::size_t i = 0; i < n; ++i) anchor_map(i, 0);
    } else {
      map_pool->ParallelFor(n, anchor_map);
    }
    stats.cells_evaluated += window.cells() * n;
  };
  run_maps();
  if (stats.gated &&
      std::any_of(ws.search.anchor_peaks.begin(),
                  ws.search.anchor_peaks.end(),
                  [](double peak) { return !(peak > 0.0); })) {
    // An anchor saw no likelihood inside the window: search the grid.
    stats.gated = false;
    stats.gate_missed = true;
    window = full;
    run_maps();
  }
  metrics.search_cells_evaluated.Inc(stats.cells_evaluated);
  if (stats.gated) metrics.search_gated_rounds.Inc();
  if (stats.gate_missed) metrics.search_gate_misses.Inc();

  // Fusion stays sequential in anchor-id order: floating-point addition is
  // not associative, so summing in completion order would make the result
  // depend on thread timing.
  dsp::Grid2D& fused = ws.EnsureFused();
  fused.Reset(config_.grid);
  obs::TraceSpan span("localize.fuse", "bloc");
  obs::ScopedTimer timer(metrics.fuse_us);
  for (std::size_t i = 0; i < n; ++i) fused.Add(maps[i]);
}

LocationResult Localizer::Locate(const net::MeasurementRound& round,
                                 LocalizerWorkspace& ws,
                                 const dsp::ThreadPool* map_pool) const {
  const LocalizerMetrics& metrics = LocalizerMetrics::Get();
  obs::TraceSpan round_span("localize.round", "bloc", round.round_id);
  metrics.rounds.Inc();
  {
    obs::TraceSpan span("localize.filter", "bloc");
    obs::ScopedTimer timer(metrics.filter_us);
    if (!FilterInto(round, ws.view)) {
      metrics.empty_rounds.Inc();
      return LocationResult{};
    }
  }
  {
    obs::TraceSpan span("localize.correct", "bloc");
    obs::ScopedTimer timer(metrics.correct_us);
    CorrectInto(ws.view, ws.corrected);
  }
  FusedMapInto(ws, map_pool);
  obs::TraceSpan span("localize.score", "bloc");
  obs::ScopedTimer timer(metrics.score_us);
  return ScoreFused(ws.fused, ws.corrected);
}

LocationResult Localizer::Locate(const net::MeasurementRound& round) const {
  LocalizerWorkspace ws;
  return Locate(round, ws);
}

}  // namespace bloc::core
