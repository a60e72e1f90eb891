#include "bloc/engine.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace bloc::core {

LocalizationEngine::LocalizationEngine(Deployment deployment,
                                       LocalizerConfig config,
                                       EngineOptions options)
    : localizer_(std::move(deployment), std::move(config)),
      pool_(options.threads),
      workspaces_(pool_.size()) {
  free_workspaces_.reserve(workspaces_.size());
  for (LocalizerWorkspace& ws : workspaces_) free_workspaces_.push_back(&ws);
}

LocationResult LocalizationEngine::Locate(const net::MeasurementRound& round) {
  return localizer_.Locate(round, workspaces_[0], &pool_);
}

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
  pool_.ParallelFor(rounds.size(), [&](std::size_t i, std::size_t slot) {
    results[i] = localizer_.Locate(rounds[i], workspaces_[slot], &pool_);
  });
  return results;
}

LocalizerWorkspace* LocalizationEngine::AcquireWorkspace() {
  std::lock_guard<std::mutex> lock(workspace_mutex_);
  LocalizerWorkspace* ws = free_workspaces_.back();
  free_workspaces_.pop_back();
  return ws;
}

void LocalizationEngine::ReleaseWorkspace(LocalizerWorkspace* ws) {
  std::lock_guard<std::mutex> lock(workspace_mutex_);
  free_workspaces_.push_back(ws);
}

std::future<void> LocalizationEngine::LocateAsync(
    const net::MeasurementRound& round, LocationResult& out,
    std::function<void()> on_ready) {
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> future = done->get_future();
  pool_.Submit([this, &round, &out, done, on_ready = std::move(on_ready)] {
    LocalizerWorkspace* ws = AcquireWorkspace();
    std::exception_ptr error;
    try {
      out = localizer_.Locate(round, *ws, &pool_);
    } catch (...) {
      error = std::current_exception();  // rethrown to the caller by the future
    }
    ReleaseWorkspace(ws);
    if (error) {
      done->set_exception(error);
    } else {
      done->set_value();
    }
    if (on_ready) on_ready();
  });
  return future;
}

}  // namespace bloc::core
