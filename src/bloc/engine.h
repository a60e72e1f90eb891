// LocalizationEngine: a Localizer and a fixed thread pool around the one
// locate pipeline, Localizer::Locate.
//
// Two axes of parallelism, both with deterministic, bit-identical output to
// the serial Localizer::Locate path:
//  - within one round, Localizer::Locate fans the per-anchor joint
//    likelihood maps out with the pool's ParallelFor and fuses them in a
//    fixed order (ascending anchor id). ParallelFor is caller-participating:
//    the thread running the round computes maps too, and idle workers take
//    the rest. A LocateAsync task therefore fans out on its own pool without
//    deadlock; when every worker is busy with other rounds it simply
//    computes all of its own anchors;
//  - across rounds, LocateBatch distributes rounds over the workers and
//    writes results into index-matched slots (ordering never depends on
//    completion order). Each round still offers its maps to the pool: a
//    batch with fewer rounds than threads fans them out over the idle
//    workers, and in a full batch every worker runs its own anchors.
//
// A round's LocalizerWorkspace belongs to the thread that executes it (a
// thread_local in engine.cc, like the map-stage scratch), so LocateBatch and
// LocateAsync may run on one engine at once, from any threads.
//
// The Localizer's SteeringPlanCache is shared read-only by every worker: the
// per-anchor plans are built once during the first round — concurrently for
// distinct anchors — and later rounds run allocation-free.
#pragma once

#include <exception>
#include <functional>
#include <span>
#include <vector>

#include "bloc/localizer.h"
#include "dsp/thread_pool.h"

namespace bloc::core {

struct EngineOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  std::size_t threads = 0;
};

class LocalizationEngine {
 public:
  LocalizationEngine(Deployment deployment, LocalizerConfig config,
                     EngineOptions options = {});

  /// Localizes many rounds, distributing them across the pool. results[i]
  /// always corresponds to rounds[i]. A one-round batch fans that round's
  /// maps out over the pool.
  std::vector<LocationResult> LocateBatch(
      std::span<const net::MeasurementRound> rounds);

  /// Localizes one round asynchronously on the pool — the streaming-pipeline
  /// primitive: a producer keeps generating rounds while earlier ones
  /// localize. The round's maps fan out on the pool as in LocateBatch, and
  /// results are bit-identical to it. `on_done` runs on the executing thread
  /// once `out` is written, with the exception Locate threw or nullptr;
  /// `round` and `out` must stay alive until then. With a one-thread pool
  /// the round runs, and `on_done` returns, before LocateAsync does.
  /// `on_done` must not throw: it runs inside a ThreadPool::Submit task.
  void LocateAsync(const net::MeasurementRound& round, LocationResult& out,
                   std::function<void(std::exception_ptr)> on_done);

  std::size_t threads() const { return pool_.size(); }
  const Localizer& localizer() const { return localizer_; }
  /// The steering-plan cache all workers share (stats: builds/lookups).
  SteeringPlanCache& plan_cache() const { return localizer_.plan_cache(); }

 private:
  Localizer localizer_;
  dsp::ThreadPool pool_;
};

}  // namespace bloc::core
