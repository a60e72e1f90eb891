// Figure 6 walk-through: for one tag position, render
//  (a) a single anchor's angle-only likelihood (a bearing wedge),
//  (b) a single anchor's relative-distance likelihood (hyperbolic bands),
//  (c) the joint angle x distance likelihood, and the all-anchor fusion.
//
//   ./likelihood_maps [--seed=1] [--threads=N]
#include <iostream>

#include "bloc/engine.h"
#include "bloc/spectra.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "sim/cli.h"
#include "sim/experiment.h"
#include "sim/measurement.h"

int main(int argc, char** argv) {
  using namespace bloc;
  sim::CliArgs args(argc, argv);

  sim::ScenarioConfig scenario = sim::PaperTestbed(args.U64("seed", 1));
  sim::Testbed testbed(scenario);
  sim::MeasurementSimulator simulator(testbed);
  const geom::Vec2 tag{1.8, 3.1};
  const net::MeasurementRound round = simulator.RunRound(tag, 0);
  const core::Deployment deployment = testbed.deployment();

  const core::CorrectedChannels corrected =
      core::ComputeCorrectedChannels(round);
  const dsp::GridSpec grid = sim::RoomGrid(scenario, 0.1);

  // Pick a slave anchor for the single-anchor panels.
  const core::AnchorCorrected* slave = nullptr;
  for (const auto& ac : corrected.anchors) {
    if (!ac.is_master) {
      slave = &ac;
      break;
    }
  }
  const core::AnchorPose* pose = deployment.Find(slave->anchor_id);
  const core::AnchorPose* master = deployment.Master();

  core::SpectraInput input;
  input.channels = slave;
  input.geometry = pose->geometry;
  input.master_ref_antenna = master->geometry.AntennaPosition(0);
  input.master_ref_distance =
      deployment.MasterReferenceDistance(slave->anchor_id);
  input.band_freqs_hz = corrected.band_freqs_hz;

  std::cout << "tag at (" << eval::Fmt(tag.x, 1) << ", " << eval::Fmt(tag.y, 1)
            << "); single-anchor panels use anchor " << slave->anchor_id
            << "\n";

  std::cout << "\n=== Fig. 6(a): angle-only likelihood (Eq. 15) ===\n\n";
  dsp::Grid2D angle_map = core::AngleOnlyMap(input, grid);
  eval::PrintHeatmap(std::cout, angle_map);

  std::cout << "\n=== Fig. 6(b): relative-distance likelihood (Eq. 16) — "
               "hyperbolic bands ===\n\n";
  dsp::Grid2D dist_map = core::DistanceOnlyMap(input, grid);
  eval::PrintHeatmap(std::cout, dist_map);

  std::cout << "\n=== Fig. 6(c): joint likelihood (Eq. 17), one anchor ===\n\n";
  dsp::Grid2D joint = core::JointLikelihoodMap(input, grid);
  eval::PrintHeatmap(std::cout, joint);

  std::cout << "\n=== all anchors fused ===\n\n";
  core::LocalizerConfig config;
  config.grid = grid;
  config.keep_map = true;
  // Engine path: a one-round batch recomputes the per-anchor maps above
  // concurrently.
  core::LocalizationEngine engine(deployment, config,
                                  {.threads = args.Threads()});
  const core::LocationResult result = engine.LocateBatch({&round, 1})[0];
  eval::PrintHeatmap(std::cout, *result.fused_map);
  std::cout << "\nBLoc estimate: (" << eval::Fmt(result.position.x, 2) << ", "
            << eval::Fmt(result.position.y, 2) << "), error "
            << eval::Fmt(geom::Distance(result.position, tag) * 100, 1)
            << " cm\n";
  return 0;
}
