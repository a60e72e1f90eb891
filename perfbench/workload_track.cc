// track_moving: a closed loop on one thread. Waypoint-motion tags, each
// with its own TrackedLocalizer (coarse-to-fine search, Kalman gate on),
// localized round-major and re-run from a fresh track for the run length.
// Every pass must reproduce the serial reference pass bit for bit.
#include <memory>

#include "track/tracked_localizer.h"
#include "workloads.h"

namespace perfbench {

using namespace bloc;

WorkloadResult RunTrackMoving(const MovingInputs& in, const RunSpec& spec,
                              Oracle& oracle) {
  WorkloadResult res;
  const std::size_t tags = in.tags.size();
  const std::size_t rounds = in.rounds_per_tag();
  const core::Deployment& deployment = in.tags.front().deployment;

  std::unique_ptr<core::Localizer> localizer;
  res.setup_s = MedianOf(spec.setups, [&] {
    localizer.reset();
    const auto t0 = Clock::now();
    localizer = std::make_unique<core::Localizer>(deployment, in.config);
    track::TrackedLocalizer first(*localizer, in.track_config);
    core::LocalizerWorkspace ws;
    const track::TrackedFix fix =
        first.Locate(in.tags[0].rounds[0], in.tags[0].timestamps[0], ws);
    const double s = SecondsBetween(t0, Clock::now());
    oracle.Attempt();
    CheckFix(fix.raw.position, in.reference_raw[0][0], oracle);
    return s;
  });

  std::vector<core::LocalizerWorkspace> workspaces(tags);
  std::uint64_t gated = 0, gate_misses = 0, calls = 0;
  Samples locate_us;

  // One pass: fresh tracks, rounds round-major across the tags. Stops early
  // (mid-pass) at `until`.
  const auto pass = [&](Clock::time_point until, bool record) {
    std::vector<track::TrackedLocalizer> trackers;
    trackers.reserve(tags);
    for (std::size_t t = 0; t < tags; ++t) {
      trackers.emplace_back(*localizer, in.track_config);
    }
    // Gate counters cover whatever part of the pass ran.
    std::uint64_t pass_calls = 0;
    const auto finish = [&](bool complete) {
      if (record) {
        for (const track::TrackedLocalizer& tr : trackers) {
          gated += tr.gated_rounds();
          gate_misses += tr.gate_misses();
        }
        calls += pass_calls;
      }
      return complete;
    };
    auto prev_end = Clock::now();
    for (std::size_t k = 0; k < rounds; ++k) {
      for (std::size_t t = 0; t < tags; ++t) {
        const auto t0 = Clock::now();
        const track::TrackedFix fix = trackers[t].Locate(
            in.tags[t].rounds[k], in.tags[t].timestamps[k], workspaces[t]);
        const auto t1 = Clock::now();
        oracle.Attempt();
        CheckFix(fix.raw.position, in.reference_raw[t][k], oracle);
        if (!SamePosition(fix.tracked_position, in.reference_tracked[t][k])) {
          oracle.Fail("track_mismatch");
        }
        if (record) {
          res.gen_lag_ms.Add(MsBetween(prev_end, t0));
          res.latency_ms.Add(MsBetween(t0, t1));
          ++res.rounds_sent;
          if (spec.trace) locate_us.Add(UsBetween(t0, t1));
        }
        ++pass_calls;
        prev_end = Clock::now();
        if (prev_end >= until) return finish(false);
      }
    }
    return finish(true);
  };

  const auto warm_until =
      Clock::now() + Secs(spec.warmup_s);
  while (pass(warm_until, false)) {
  }
  const auto start = Clock::now();
  const auto until = start + Secs(spec.seconds);
  while (pass(until, true)) {
  }
  res.rounds_per_s = static_cast<double>(res.rounds_sent) /
                     SecondsBetween(start, Clock::now());

  if (spec.trace) {
    // Cells the same search evaluates with the gate off, over one pass.
    std::uint64_t cells_ungated = 0;
    std::uint64_t cells_gated_pass = 0;
    track::TrackedLocalizerConfig ungated_config = in.track_config;
    ungated_config.gate_search = false;
    for (int gate = 0; gate < 2; ++gate) {
      track::TrackedLocalizerConfig config =
          gate ? in.track_config : ungated_config;
      for (std::size_t t = 0; t < tags; ++t) {
        track::TrackedLocalizer tracker(*localizer, config);
        for (std::size_t k = 0; k < rounds; ++k) {
          tracker.Locate(in.tags[t].rounds[k], in.tags[t].timestamps[k],
                         workspaces[t]);
          (gate ? cells_gated_pass : cells_ungated) +=
              workspaces[t].search.stats.cells_evaluated;
        }
      }
    }
    const double denom = static_cast<double>(std::max<std::uint64_t>(calls, 1));
    res.layer["track.locate_us_p50"] = {locate_us.Median(), "us"};
    res.layer["track.gated_frac"] = {static_cast<double>(gated) / denom,
                                     "ratio"};
    res.layer["track.gate_miss_frac"] = {
        static_cast<double>(gate_misses) / denom, "ratio"};
    res.layer["track.cells_frac"] = {
        cells_ungated == 0 ? 0.0
                           : static_cast<double>(cells_gated_pass) /
                                 static_cast<double>(cells_ungated),
        "ratio"};
  }
  return res;
}

}  // namespace perfbench
