// Trajectory-error evaluation (track-while-localize, DESIGN.md §5g): a tag
// moves through the ray-traced room while every round is localized, and the
// per-round raw fixes are compared against the Kalman-smoothed track — the
// tracked estimate should beat the raw fixes on median trajectory error.
// With --search=coarse a third series runs the map stage gated by the
// track's prediction, reporting the evaluated-cell saving and gate misses.
// The anchor-handoff section follows the tag with its k nearest anchors and
// counts serving-subset changes across the room.
//
//   ./bench_traj [--locations=150] [--seed=1] [--motion=waypoint|walk|static]
//     [--speed=0.8] [--round-period=0.5] [--waypoints=8] [--search=coarse]
//     [--threads=N] [--csv=traj.csv] [--handoff-anchors=2] [--track-parity]
//
// --track-parity audits the gating-off contract: the TrackedLocalizer's raw
// fixes must be bit-identical to the plain engine pipeline (exit 1 on any
// mismatch) — tracking is a pure post-stage unless gating is asked for.
// With --search=coarse it also gates accuracy: gated windows cannot be bit-
// identical, so the gated tracked median may exceed the ungated one by at
// most kGatedMedianTolerance (exit 1 beyond).
#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "eval/trajectory.h"
#include "track/tracked_localizer.h"

namespace {

using namespace bloc;

/// Largest relative excess of the gated tracked median over the ungated
/// one that --track-parity accepts.
constexpr double kGatedMedianTolerance = 0.10;

struct TrajRun {
  std::vector<eval::TrajectoryPoint> points;
  std::size_t cells_evaluated = 0;
  std::size_t gated_rounds = 0;
  std::size_t gate_misses = 0;
  std::vector<geom::Vec2> raw_positions;
};

/// Runs the whole trajectory through one TrackedLocalizer session.
TrajRun RunTracked(const core::Localizer& localizer,
                   const sim::Dataset& dataset, bool gate_search,
                   double gate_sigmas = 0.0, double gate_margin = -1.0) {
  track::TrackedLocalizerConfig config;
  config.gate_search = gate_search;
  if (gate_sigmas > 0.0) config.gate_sigmas = gate_sigmas;
  if (gate_margin >= 0.0) config.gate_margin_m = gate_margin;
  track::TrackedLocalizer tracked(localizer, config);
  core::LocalizerWorkspace ws;
  TrajRun run;
  run.points.reserve(dataset.rounds.size());
  for (std::size_t i = 0; i < dataset.rounds.size(); ++i) {
    const track::TrackedFix fix =
        tracked.Locate(dataset.rounds[i], dataset.timestamps[i], ws);
    run.cells_evaluated += ws.search.stats.cells_evaluated;
    run.points.push_back({dataset.timestamps[i], dataset.truths[i],
                          fix.raw.position, fix.tracked_position,
                          fix.fix_accepted});
    run.raw_positions.push_back(fix.raw.position);
  }
  run.gated_rounds = tracked.gated_rounds();
  run.gate_misses = tracked.gate_misses();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ExperimentDriver driver(
      bench::ParseSetup(argc, argv, /*default_locations=*/150,
                        /*default_motion=*/"waypoint"));
  const bench::BenchSetup& setup = driver.setup();
  sim::CliArgs args(argc, argv);
  const bool track_parity = args.Flag("track-parity");
  const std::size_t handoff_k = args.SizeT("handoff-anchors", 2);
  const double gate_sigmas = args.Double("gate-sigmas", 0.0);
  const double gate_margin = args.Double("gate-margin", -1.0);

  std::cout << "=== Trajectory tracking: raw fixes vs Kalman track ("
            << setup.options.locations << " rounds, motion="
            << (setup.scenario.motion.model == sim::MotionModel::kStatic
                    ? "static"
                    : setup.scenario.motion.model ==
                              sim::MotionModel::kWaypoint
                          ? "waypoint"
                          : "walk")
            << ", " << setup.scenario.motion.speed_mps << " m/s) ===\n";

  const sim::Dataset& dataset = driver.dataset();
  const core::LocalizerConfig config = driver.LocalizerConfig(dataset);
  const core::Localizer localizer(dataset.deployment, config);

  // Reference raw fixes through the engine batch path (the pre-tracking
  // pipeline, threaded).
  core::LocalizationEngine engine(dataset.deployment, config,
                                  {.threads = setup.common.threads});
  const std::vector<core::LocationResult> reference =
      engine.LocateBatch(dataset.rounds);

  // Smoothing only: gating off, raw fixes bit-identical to the reference.
  const TrajRun smoothed = RunTracked(localizer, dataset, false);

  std::size_t parity_mismatches = 0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (reference[i].position.x != smoothed.raw_positions[i].x ||
        reference[i].position.y != smoothed.raw_positions[i].y) {
      ++parity_mismatches;
    }
  }

  const eval::TrajectorySummary summary =
      eval::SummarizeTrajectory(smoothed.points);

  std::vector<eval::NamedCdf> series;
  series.push_back({"raw fixes", dsp::MakeCdf(summary.raw_errors)});
  series.push_back({"tracked", dsp::MakeCdf(summary.tracked_errors)});

  // Gated map windows (TrackedLocalizer gates only in kCoarseToFine).
  bool ran_gated = false;
  eval::TrajectorySummary gated_summary;
  TrajRun gated;
  if (config.spectra.search.mode == core::SearchMode::kCoarseToFine) {
    gated = RunTracked(localizer, dataset, true, gate_sigmas, gate_margin);
    gated_summary = eval::SummarizeTrajectory(gated.points);
    series.push_back(
        {"tracked+gated", dsp::MakeCdf(gated_summary.tracked_errors)});
    ran_gated = true;
  }

  eval::PrintCdfPlot(std::cout, series, 3.0);
  eval::PrintCdfSummary(std::cout, series);
  std::cout << "raw median " << bench::FmtCm(summary.raw.median)
            << "  tracked median " << bench::FmtCm(summary.tracked.median)
            << "  (" << summary.rejected_fixes << " fixes gated out)\n";
  if (ran_gated) {
    const double saving =
        smoothed.cells_evaluated > 0
            ? 1.0 - static_cast<double>(gated.cells_evaluated) /
                        static_cast<double>(smoothed.cells_evaluated)
            : 0.0;
    std::cout << "gated maps: " << gated.gated_rounds << "/"
              << dataset.rounds.size() << " rounds gated, "
              << gated.gate_misses << " gate misses, cells evaluated "
              << gated.cells_evaluated << " vs " << smoothed.cells_evaluated
              << " ungated (" << eval::Fmt(100.0 * saving, 1)
              << "% saved), gated median "
              << bench::FmtCm(gated_summary.tracked.median) << "\n";
  }

  // --- Anchor handoff across the room: serve the tag from its k nearest
  // anchors (by the tracked estimate) and count subset changes. ---
  std::vector<geom::Vec2> anchor_positions;
  for (const core::AnchorPose& pose : dataset.deployment.anchors) {
    anchor_positions.push_back(pose.geometry.origin);
  }
  std::vector<std::vector<std::size_t>> subsets;
  subsets.reserve(smoothed.points.size());
  for (const eval::TrajectoryPoint& p : smoothed.points) {
    subsets.push_back(
        eval::NearestAnchors(anchor_positions, p.tracked, handoff_k));
  }
  const eval::HandoffStats handoff = eval::CountHandoffs(subsets);
  std::cout << "anchor handoff (k=" << handoff_k << "): " << handoff.handoffs
            << " handoffs across " << handoff.distinct_subsets
            << " distinct serving subsets\n";

  if (!setup.csv_path.empty()) {
    std::vector<std::vector<std::string>> rows;
    for (std::size_t i = 0; i < smoothed.points.size(); ++i) {
      const eval::TrajectoryPoint& p = smoothed.points[i];
      rows.push_back({eval::Fmt(p.t_s), eval::Fmt(p.truth.x),
                      eval::Fmt(p.truth.y),
                      eval::Fmt(summary.raw_errors[i]),
                      eval::Fmt(summary.tracked_errors[i]),
                      ran_gated ? eval::Fmt(gated_summary.tracked_errors[i])
                                : std::string("")});
    }
    eval::WriteCsv(setup.csv_path,
                   {"t_s", "truth_x", "truth_y", "raw_err_m",
                    "tracked_err_m", "gated_err_m"},
                   rows);
    std::cout << "wrote " << setup.csv_path << "\n";
  }

  if (track_parity) {
    if (parity_mismatches > 0) {
      std::cerr << "TRACK-PARITY FAIL: " << parity_mismatches << "/"
                << reference.size()
                << " raw fixes differ from the engine pipeline with gating "
                   "off\n";
      return EXIT_FAILURE;
    }
    std::cout << "track-parity OK: " << reference.size()
              << " raw fixes bit-identical with gating off\n";
    const double gated_limit =
        summary.tracked.median * (1.0 + kGatedMedianTolerance);
    if (ran_gated && gated_summary.tracked.median > gated_limit) {
      std::cerr << "TRACK-PARITY FAIL: gated tracked median "
                << bench::FmtCm(gated_summary.tracked.median)
                << " exceeds the ungated "
                << bench::FmtCm(summary.tracked.median) << " by more than "
                << eval::Fmt(100.0 * kGatedMedianTolerance, 0) << "%\n";
      return EXIT_FAILURE;
    }
  }

  bench::FinishObservability(setup);
  return EXIT_SUCCESS;
}
