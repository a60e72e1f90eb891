// LocalizationEngine: a thin owner of a fixed thread pool and one
// LocalizerWorkspace per pool slot around the one locate pipeline,
// Localizer::Locate.
//
// Two axes of parallelism, both with deterministic, bit-identical output to
// the serial Localizer::Locate path:
//  - within one round (Locate, LocateAsync), Localizer::Locate fans the
//    per-anchor joint likelihood maps out with the pool's ParallelFor and
//    fuses them in a fixed order (ascending anchor id). ParallelFor is
//    caller-participating: the thread running the round computes maps too,
//    and idle workers take the rest. A LocateAsync task therefore fans out
//    on its own pool without deadlock; when every worker is busy with
//    other rounds it simply computes all of its own anchors;
//  - across rounds, LocateBatch distributes rounds over the workers, one
//    round per worker on its slot's workspace, and writes results into
//    index-matched slots (ordering never depends on completion order).
//    Each round still offers its maps to the pool: a batch with fewer
//    rounds than threads fans them out over the idle workers, and in a
//    full batch every worker runs its own anchors.
//
// The engine owns (via its Localizer) one SteeringPlanCache shared read-only
// by every worker: the per-anchor steering plans are built once during the
// first round — concurrently for distinct anchors — and all later rounds
// run the precomputed split-complex kernel allocation-free.
#pragma once

#include <functional>
#include <future>
#include <mutex>
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

  /// Localizes one round on the calling thread, fanning its per-anchor
  /// maps out on the pool. With SearchMode::kExhaustive the maps run in
  /// parallel; coarse-to-fine rounds run the serial search strategy
  /// (bit-identical selected positions either way).
  LocationResult Locate(const net::MeasurementRound& round);

  /// Localizes many rounds, distributing them across the pool. results[i]
  /// always corresponds to rounds[i].
  std::vector<LocationResult> LocateBatch(
      std::span<const net::MeasurementRound> rounds);

  /// Localizes one round asynchronously on the pool, writing `out` when
  /// done — the streaming-pipeline primitive: a producer keeps generating
  /// rounds while earlier ones localize. The round's maps fan out on the
  /// pool like Locate's. `round` and `out` must stay alive until the
  /// returned future resolves; results are bit-identical to
  /// Locate/LocateBatch, and an exception from Locate is rethrown by the
  /// future. `on_ready`, if set, runs on the worker right after the future
  /// became ready, so a consumer can sleep until then instead of polling.
  /// Must not be interleaved with LocateBatch/Locate calls (they address
  /// the per-slot workspaces directly).
  std::future<void> LocateAsync(const net::MeasurementRound& round,
                                LocationResult& out,
                                std::function<void()> on_ready = {});

  std::size_t threads() const { return pool_.size(); }
  const Localizer& localizer() const { return localizer_; }
  /// The steering-plan cache all workers share (stats: builds/lookups).
  SteeringPlanCache& plan_cache() const { return localizer_.plan_cache(); }

 private:
  LocalizerWorkspace* AcquireWorkspace();
  void ReleaseWorkspace(LocalizerWorkspace* ws);

  Localizer localizer_;
  dsp::ThreadPool pool_;
  std::vector<LocalizerWorkspace> workspaces_;  // one per pool slot
  // Free list for LocateAsync tasks: at most pool_.size() tasks execute
  // concurrently, so acquisition never fails.
  std::mutex workspace_mutex_;
  std::vector<LocalizerWorkspace*> free_workspaces_;
};

}  // namespace bloc::core
