#include "inputs.h"

#include "dsp/thread_pool.h"

namespace perfbench {

using namespace bloc;

Samples StaticInputs::ErrorsM() const {
  std::vector<geom::Vec2> positions;
  positions.reserve(reference.size());
  for (const core::LocationResult& r : reference) {
    positions.push_back(r.position);
  }
  return Errors(positions, dataset.truths);
}

StaticInputs MakeStaticInputs(std::uint64_t seed, const Scale& scale) {
  StaticInputs in;
  sim::DatasetOptions options;
  options.locations = scale.static_locations;
  options.measurement_threads = 0;
  const auto t0 = Clock::now();
  in.dataset = sim::GenerateDataset(sim::PaperTestbed(seed), options);
  in.synth_ms_per_round = MsBetween(t0, Clock::now()) /
                          static_cast<double>(in.dataset.rounds.size());
  in.config = sim::PaperLocalizerConfig(in.dataset);

  const core::Localizer localizer(in.dataset.deployment, in.config);
  in.reference.reserve(in.dataset.rounds.size());
  for (const net::MeasurementRound& round : in.dataset.rounds) {
    in.reference.push_back(localizer.Locate(round));
  }
  return in;
}

Samples MovingInputs::ErrorsM() const {
  Samples out;
  for (std::size_t t = 0; t < tags.size(); ++t) {
    out.Append(Errors(reference_tracked[t], tags[t].truths));
  }
  return out;
}

MovingInputs MakeMovingInputs(std::uint64_t seed, std::size_t tags,
                              std::size_t rounds) {
  MovingInputs in;
  // The room is the paper's testbed as PaperTestbed(1) builds it; the seed
  // draws the trajectories. The coarse-to-fine search's cost depends on the
  // room's multipath, and rebuilding the room per seed moves this
  // workload's timings by more than any run-to-run bound.
  sim::ScenarioConfig scenario = sim::PaperTestbed(kMovingRoomSeed);
  scenario.motion.model = sim::MotionModel::kWaypoint;
  // Tags are independent: synthesize and reference them on every core.
  const dsp::ThreadPool pool(0);
  in.tags.resize(tags);
  const auto t0 = Clock::now();
  pool.ParallelFor(tags, [&](std::size_t t, std::size_t) {
    sim::DatasetOptions options;
    options.locations = rounds;
    // One trajectory per tag in the same room (position_seed must be != 0).
    options.position_seed = seed * 1000 + t + 1;
    in.tags[t] = sim::GenerateDataset(scenario, options);
  });
  in.synth_ms_per_round = MsBetween(t0, Clock::now()) /
                          static_cast<double>(tags * rounds);
  in.config = sim::PaperLocalizerConfig(in.tags.front());
  in.config.spectra.search.mode = core::SearchMode::kCoarseToFine;

  const core::Localizer localizer(in.tags.front().deployment, in.config);
  in.reference_raw.resize(tags);
  in.reference_tracked.resize(tags);
  pool.ParallelFor(tags, [&](std::size_t t, std::size_t) {
    const sim::Dataset& tag = in.tags[t];
    track::TrackedLocalizer tracked(localizer, in.track_config);
    core::LocalizerWorkspace ws;
    for (std::size_t k = 0; k < tag.rounds.size(); ++k) {
      const track::TrackedFix fix =
          tracked.Locate(tag.rounds[k], tag.timestamps[k], ws);
      in.reference_raw[t].push_back(fix.raw.position);
      in.reference_tracked[t].push_back(fix.tracked_position);
    }
  });
  return in;
}

}  // namespace perfbench
