#include "bloc/engine.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace bloc::core {

namespace {

/// The per-round state of the round the calling thread executes. A thread
/// runs one round at a time (ParallelFor's caller only runs indices of its
/// own call, and a round's map helpers run anchor maps, not rounds), so the
/// workspace is never shared, and it stays warm across every round and tag
/// the thread serves.
LocalizerWorkspace& ThreadWorkspace() {
  thread_local LocalizerWorkspace workspace;
  return workspace;
}

}  // namespace

LocalizationEngine::LocalizationEngine(Deployment deployment,
                                       LocalizerConfig config,
                                       EngineOptions options)
    : localizer_(std::move(deployment), std::move(config)),
      pool_(options.threads) {}

std::vector<LocationResult> LocalizationEngine::LocateBatch(
    std::span<const net::MeasurementRound> rounds) {
  static obs::Counter& batches = obs::GetCounter("bloc.engine.batches");
  static obs::Histogram& batch_us = obs::GetHistogram("bloc.engine.batch_us");
  obs::TraceSpan batch_span("localize.batch", "bloc", rounds.size());
  obs::ScopedTimer batch_timer(batch_us);
  batches.Inc();
  std::vector<LocationResult> results(rounds.size());
  // One round per worker. Each round offers its maps to the pool too: a
  // batch too small to occupy every worker fans them out over the idle
  // ones, and in a full batch each worker simply runs its own anchors.
  pool_.ParallelFor(rounds.size(), [&](std::size_t i, std::size_t) {
    results[i] = localizer_.Locate(rounds[i], ThreadWorkspace(), &pool_);
  });
  return results;
}

void LocalizationEngine::LocateAsync(
    const net::MeasurementRound& round, LocationResult& out,
    std::function<void(std::exception_ptr)> on_done) {
  pool_.Submit([this, &round, &out, on_done = std::move(on_done)] {
    std::exception_ptr error;
    try {
      out = localizer_.Locate(round, ThreadWorkspace(), &pool_);
    } catch (...) {
      error = std::current_exception();
    }
    on_done(error);
  });
}

}  // namespace bloc::core
