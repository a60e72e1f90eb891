// locate_batch: a closed loop of LocalizationEngine::LocateBatch over the
// static fig9 rounds with the engine's default thread count (nproc). No
// serve, net or track code runs.
#include <memory>
#include <span>

#include "bloc/engine.h"
#include "workloads.h"

namespace perfbench {

using namespace bloc;

void CheckFix(const geom::Vec2& got, const geom::Vec2& want, Oracle& oracle) {
  if (!Finite(got)) {
    oracle.Fail("non_finite");
  } else if (!SamePosition(got, want)) {
    oracle.Fail("mismatch");
  }
}

WorkloadResult RunLocateBatch(const StaticInputs& in, const RunSpec& spec,
                              Oracle& oracle) {
  WorkloadResult res;
  const std::span<const net::MeasurementRound> rounds(in.dataset.rounds);

  std::unique_ptr<core::LocalizationEngine> engine;
  res.setup_s = MedianOf(spec.setups, [&] {
    engine.reset();
    const auto t0 = Clock::now();
    engine = std::make_unique<core::LocalizationEngine>(
        in.dataset.deployment, in.config, core::EngineOptions{});
    const auto first = engine->LocateBatch(rounds.first(1));
    const double s = SecondsBetween(t0, Clock::now());
    oracle.Attempt();
    CheckFix(first[0].position, in.reference[0].position, oracle);
    return s;
  });

  const auto run_batches = [&](Clock::time_point until, bool record) {
    std::uint64_t done = 0;
    auto prev_end = Clock::now();
    do {
      const auto t0 = Clock::now();
      const std::vector<core::LocationResult> results =
          engine->LocateBatch(rounds);
      const auto t1 = Clock::now();
      oracle.Attempt(results.size());
      for (std::size_t i = 0; i < results.size(); ++i) {
        CheckFix(results[i].position, in.reference[i].position, oracle);
      }
      if (record) {
        res.gen_lag_ms.Add(MsBetween(prev_end, t0));
        res.latency_ms.Add(MsBetween(t0, t1));
      }
      done += results.size();
      prev_end = Clock::now();
    } while (prev_end < until);
    return done;
  };

  run_batches(Clock::now() + Secs(spec.warmup_s),
              false);
  const auto start = Clock::now();
  res.rounds_sent = run_batches(
      start + Secs(spec.seconds), true);
  res.rounds_per_s = static_cast<double>(res.rounds_sent) /
                     SecondsBetween(start, Clock::now());
  return res;
}

}  // namespace perfbench
