#include "serve/service.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace bloc::serve {

namespace {

constexpr std::size_t kDrainBatch = 64;

}  // namespace

/// Registry handles, resolved once per process (obs/metrics.h dedupes by
/// name, so every service instance feeds one set of serve.* metrics).
struct LocalizationService::Metrics {
  obs::Counter& admitted = obs::GetCounter("serve.admitted");
  obs::Counter& refused = obs::GetCounter("serve.refused");
  obs::Counter& shed = obs::GetCounter("serve.shed");
  obs::Counter& expired = obs::GetCounter("serve.expired");
  obs::Counter& duplicates = obs::GetCounter("serve.duplicates");
  obs::Counter& completed = obs::GetCounter("serve.completed_rounds");
  obs::Counter& localized = obs::GetCounter("serve.localized_rounds");
  obs::Counter& locate_errors = obs::GetCounter("serve.locate_errors");
  // Up/down gauges: paired Add/Sub stay exact even when metric recording is
  // toggled mid-run, and the built-in watermark keeps the old high-water
  // reading alongside (the _max series on /metrics).
  obs::UpDownGauge& ring_depth = obs::GetUpDownGauge("serve.ring_depth");
  obs::UpDownGauge& inflight = obs::GetUpDownGauge("serve.inflight_locates");
  obs::Histogram& e2e_latency_us =
      obs::GetHistogram("serve.e2e_latency_us");

  static const Metrics& Get() {
    static const Metrics metrics;
    return metrics;
  }
};

LocalizationService::LocalizationService(core::Deployment deployment,
                                         core::LocalizerConfig config,
                                         ServiceOptions options)
    : options_(std::move(options)),
      engine_(deployment, std::move(config),
              {.threads = options_.engine_threads}) {
  options_.shards = RingCapacityFor(std::max<std::size_t>(options_.shards, 1));
  options_.assembler_threads = std::clamp<std::size_t>(
      options_.assembler_threads, 1, options_.shards);
  if (options_.max_inflight_locates == 0) {
    options_.max_inflight_locates = 4 * engine_.threads();
  }
  options_.max_assembling_rounds =
      std::max<std::size_t>(options_.max_assembling_rounds, 1);
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(
        std::make_unique<TagSessionShard>(options_.ring_capacity));
  }
  auto ids = std::make_shared<std::vector<std::uint32_t>>(
      deployment.AnchorIds());
  std::sort(ids->begin(), ids->end());
  anchor_view_ = std::move(ids);
  accepting_.store(true, std::memory_order_release);
}

LocalizationService::~LocalizationService() { Stop(); }

void LocalizationService::SetUpdateCallback(
    std::function<void(const PositionUpdate&)> callback) {
  callback_ = std::move(callback);
}

void LocalizationService::Start() {
  if (running_.exchange(true)) return;
  assemblers_.reserve(options_.assembler_threads);
  for (std::size_t w = 0; w < options_.assembler_threads; ++w) {
    assemblers_.emplace_back([this, w] { AssemblerLoop(w); });
  }
}

void LocalizationService::Stop() {
  accepting_.store(false, std::memory_order_release);
  if (running_.load(std::memory_order_acquire)) {
    // Let the assemblers finish the admitted work before asking them out:
    // incomplete rounds awaiting more frames are not work (their frames can
    // no longer arrive), in-flight localizations and ring residue are.
    while (frames_in_rings_.load(std::memory_order_acquire) > 0 ||
           inflight_locates_.load(std::memory_order_acquire) > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  running_.store(false);
  WakeAssemblers();
  for (std::thread& t : assemblers_) t.join();
  assemblers_.clear();
}

bool LocalizationService::Drain(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (frames_in_rings_.load(std::memory_order_acquire) > 0 ||
         inflight_locates_.load(std::memory_order_acquire) > 0) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

bool LocalizationService::Ingest(std::uint64_t tag_id,
                                 anchor::CsiReport report) {
  const Metrics& metrics = Metrics::Get();
  if (!accepting_.load(std::memory_order_acquire)) {
    refused_frames_.fetch_add(1, std::memory_order_relaxed);
    metrics.refused.Inc();
    return false;
  }
  TagSessionShard& shard = *shards_[ShardOf(tag_id)];
  TagFrame frame{tag_id, obs::NowNs(), std::move(report)};
  if (!shard.ring.TryPush(std::move(frame))) {
    refused_frames_.fetch_add(1, std::memory_order_relaxed);
    metrics.refused.Inc();
    return false;
  }
  frames_in_rings_.fetch_add(1, std::memory_order_release);
  shard.depth.fetch_add(1, std::memory_order_relaxed);
  // Sequentially consistent with the sleepers_ load below (and with the
  // assembler's sleepers_ increment before its re-check in WaitForWork):
  // either this frame is seen before the assembler sleeps, or the
  // assembler is seen asleep here and woken.
  admitted_frames_.fetch_add(1);
  metrics.admitted.Inc();
  metrics.ring_depth.Add(1);
  if (sleepers_.load() > 0) WakeAssemblers();
  return true;
}

void LocalizationService::OnMessage(const net::Message& msg) {
  if (const auto* tagged = std::get_if<net::TagCsiReportMsg>(&msg)) {
    Ingest(tagged->tag_id, tagged->report);
    return;
  }
  if (const auto* report = std::get_if<net::CsiReportMsg>(&msg)) {
    // Single-tenant drop-in: untagged reports belong to tag 0.
    Ingest(0, report->report);
    return;
  }
  if (const auto* hello = std::get_if<net::AnchorHelloMsg>(&msg)) {
    std::lock_guard lock(anchors_mutex_);
    auto next = std::make_shared<std::vector<std::uint32_t>>(*anchor_view_);
    const auto it =
        std::lower_bound(next->begin(), next->end(), hello->anchor_id);
    if (it == next->end() || *it != hello->anchor_id) {
      next->insert(it, hello->anchor_id);
      anchor_view_ = std::move(next);  // new sessions see the new view
    }
    return;
  }
  // LocationEstimateMsg flows server -> clients; ignore on ingest.
}

std::optional<PositionUpdate> LocalizationService::Poll(std::uint64_t tag_id) {
  TagSessionShard& shard = *shards_[ShardOf(tag_id)];
  std::lock_guard lock(shard.mutex);
  const auto it = shard.sessions.find(tag_id);
  if (it == shard.sessions.end() || it->second.ready.empty()) {
    return std::nullopt;
  }
  PositionUpdate update = std::move(it->second.ready.front());
  it->second.ready.pop_front();
  return update;
}

ServiceCounters LocalizationService::Counters() const {
  ServiceCounters c;
  c.admitted_frames = admitted_frames_.load(std::memory_order_relaxed);
  c.refused_frames = refused_frames_.load(std::memory_order_relaxed);
  c.duplicate_frames = duplicate_frames_.load(std::memory_order_relaxed);
  c.shed_rounds = shed_rounds_.load(std::memory_order_relaxed);
  c.expired_rounds = expired_rounds_.load(std::memory_order_relaxed);
  c.expired_frames = expired_frames_.load(std::memory_order_relaxed);
  c.completed_rounds = completed_rounds_.load(std::memory_order_relaxed);
  c.localized_rounds = localized_rounds_.load(std::memory_order_relaxed);
  c.locate_errors = locate_errors_.load(std::memory_order_relaxed);
  c.dropped_updates = dropped_updates_.load(std::memory_order_relaxed);
  c.sessions_expired = sessions_expired_.load(std::memory_order_relaxed);
  return c;
}

std::size_t LocalizationService::RingDepth() const {
  return frames_in_rings_.load(std::memory_order_relaxed);
}

ServiceHealthStats LocalizationService::HealthStats() const {
  ServiceHealthStats stats;
  stats.counters = Counters();
  stats.inflight_locates = InflightLocates();
  stats.shards.reserve(shards_.size());
  std::vector<std::uint32_t> window;
  window.reserve(TagSessionShard::kLatencyWindow);
  for (const auto& shard_ptr : shards_) {
    TagSessionShard& shard = *shard_ptr;
    ShardHealth sh;
    sh.ring_depth = shard.depth.load(std::memory_order_relaxed);
    window.clear();
    {
      std::lock_guard lock(shard.mutex);
      sh.localized_rounds = shard.localized_rounds;
      const std::size_t valid =
          std::min<std::uint64_t>(shard.latency_recorded,
                                  TagSessionShard::kLatencyWindow);
      window.assign(shard.latency_window.begin(),
                    shard.latency_window.begin() + valid);
    }
    sh.window_samples = window.size();
    if (!window.empty()) {
      std::sort(window.begin(), window.end());
      const auto at = [&window](double q) {
        const std::size_t idx = static_cast<std::size_t>(
            q * static_cast<double>(window.size() - 1) + 0.5);
        return static_cast<double>(window[std::min(idx, window.size() - 1)]);
      };
      sh.window_p50_us = at(0.50);
      sh.window_p99_us = at(0.99);
    }
    stats.shards.push_back(sh);
  }
  // Cold path: resolving by name per scrape is fine, and returns zeros when
  // the gate counters have never been touched (or obs is compiled out).
  stats.search_gated_rounds =
      obs::GetCounter("bloc.search.gated_rounds").Value();
  stats.search_gate_misses =
      obs::GetCounter("bloc.search.gate_misses").Value();
  return stats;
}

void LocalizationService::AssemblerLoop(std::size_t worker) {
  std::uint64_t last_gc_ns = obs::NowNs();
  // GC cadence: a quarter of the round timeout, clamped to [5ms, 1s].
  const std::uint64_t gc_period_ns = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(options_.round_timeout.count()) / 4,
      5'000'000ull, 1'000'000'000ull);
  while (running_.load(std::memory_order_acquire)) {
    // Read before the pass: an event after this point changes a counter
    // and keeps the wait below from sleeping through it.
    const std::uint64_t frames_seen = admitted_frames_.load();
    const std::uint64_t locates_seen = locates_done_.load();
    std::size_t work = 0;
    for (std::size_t s = worker; s < shards_.size();
         s += options_.assembler_threads) {
      work += DrainShardRing(worker, *shards_[s]);
      work += SweepCompletions(*shards_[s]);
    }
    const std::uint64_t now = obs::NowNs();
    if (now - last_gc_ns >= gc_period_ns) {
      last_gc_ns = now;
      for (std::size_t s = worker; s < shards_.size();
           s += options_.assembler_threads) {
        CollectGarbage(*shards_[s], now);
      }
    }
    if (work == 0) {
      WaitForWork(frames_seen, locates_seen,
                  std::chrono::nanoseconds(gc_period_ns));
    }
  }
}

void LocalizationService::WaitForWork(std::uint64_t frames_seen,
                                      std::uint64_t locates_seen,
                                      std::chrono::nanoseconds timeout) {
  std::unique_lock lock(wake_mutex_);
  sleepers_.fetch_add(1);
  wake_cv_.wait_for(lock, timeout, [&] {
    return admitted_frames_.load() != frames_seen ||
           locates_done_.load() != locates_seen || !running_.load();
  });
  sleepers_.fetch_sub(1);
}

void LocalizationService::WakeAssemblers() {
  std::lock_guard lock(wake_mutex_);
  wake_cv_.notify_all();
}

std::size_t LocalizationService::DrainShardRing(std::size_t worker,
                                                TagSessionShard& shard) {
  const Metrics& metrics = Metrics::Get();
  std::size_t popped = 0;
  std::unique_lock lock(shard.mutex, std::defer_lock);
  TagFrame frame;
  while (popped < kDrainBatch && shard.ring.TryPop(frame)) {
    if (!lock.owns_lock()) lock.lock();
    Assemble(worker, shard, lock, std::move(frame));
    // Decrement only after assembly so Drain() never observes an
    // all-zero instant while a frame is between the ring and the engine
    // (AdmitRound raises inflight_locates_ before this drops to zero).
    frames_in_rings_.fetch_sub(1, std::memory_order_release);
    shard.depth.fetch_sub(1, std::memory_order_relaxed);
    metrics.ring_depth.Sub(1);
    ++popped;
  }
  return popped;
}

void LocalizationService::Assemble(std::size_t worker, TagSessionShard& shard,
                                   std::unique_lock<std::mutex>& lock,
                                   TagFrame&& frame) {
  const Metrics& metrics = Metrics::Get();
  auto [it, created] = shard.sessions.try_emplace(frame.tag_id);
  TagSession& session = it->second;
  if (created) {
    session.tracker = track::KalmanTracker(options_.kalman);
    std::lock_guard anchors_lock(anchors_mutex_);
    session.anchors = anchor_view_;
  }
  session.last_activity_ns = frame.ingest_ns;
  const std::vector<std::uint32_t>& anchors = *session.anchors;
  if (!std::binary_search(anchors.begin(), anchors.end(),
                          frame.report.anchor_id)) {
    refused_frames_.fetch_add(1, std::memory_order_relaxed);
    metrics.refused.Inc();
    return;  // not part of this session's registered-anchor view
  }

  const std::uint64_t round_id = frame.report.round_id;
  auto round_it = session.assembling.find(round_id);
  if (round_it == session.assembling.end()) {
    if (session.assembling.size() >= options_.max_assembling_rounds) {
      if (options_.shed_policy == ShedPolicy::kRefuseNew) {
        refused_frames_.fetch_add(1, std::memory_order_relaxed);
        metrics.refused.Inc();
        return;
      }
      // kShedOldest: evict the lowest round id — the longest-waiting
      // incomplete round — to admit fresh data.
      const auto oldest = session.assembling.begin();
      expired_frames_.fetch_add(oldest->second.reports.size(),
                                std::memory_order_relaxed);
      shed_rounds_.fetch_add(1, std::memory_order_relaxed);
      metrics.shed.Inc();
      session.assembling.erase(oldest);
    }
    round_it = session.assembling
                   .emplace(round_id,
                            AssemblingRound{frame.ingest_ns, obs::NowNs(), {}})
                   .first;
    round_it->second.reports.reserve(anchors.size());
  }

  AssemblingRound& round = round_it->second;
  for (const anchor::CsiReport& existing : round.reports) {
    if (existing.anchor_id == frame.report.anchor_id) {
      duplicate_frames_.fetch_add(1, std::memory_order_relaxed);
      metrics.duplicates.Inc();
      return;
    }
  }
  round.reports.push_back(std::move(frame.report));
  if (round.reports.size() == anchors.size()) {
    AssemblingRound completed = std::move(round);
    session.assembling.erase(round_it);
    session.inflight += 1;
    AdmitRound(worker, shard, lock, frame.tag_id, round_id,
               std::move(completed));
  }
}

void LocalizationService::AdmitRound(std::size_t worker,
                                     TagSessionShard& shard,
                                     std::unique_lock<std::mutex>& lock,
                                     std::uint64_t tag_id,
                                     std::uint64_t round_id,
                                     AssemblingRound&& round) {
  const Metrics& metrics = Metrics::Get();
  // Engine admission control: at the in-flight bound the assembler stalls
  // (sweeping its shards so completions retire) instead of queueing rounds
  // without limit. The stall propagates: rings fill, producers get refusals.
  while (inflight_locates_.load(std::memory_order_acquire) >=
         options_.max_inflight_locates) {
    lock.unlock();
    std::size_t retired = 0;
    for (std::size_t s = worker; s < shards_.size();
         s += options_.assembler_threads) {
      retired += SweepCompletions(*shards_[s]);
    }
    if (retired == 0) std::this_thread::yield();
    lock.lock();
  }

  std::unique_ptr<InflightLocate> node = AcquireNode();
  node->tag_id = tag_id;
  node->first_ingest_ns = round.first_ingest_ns;
  node->round.round_id = round_id;
  node->round.reports = std::move(round.reports);
  inflight_locates_.fetch_add(1, std::memory_order_release);
  metrics.inflight.Add(1);
  completed_rounds_.fetch_add(1, std::memory_order_relaxed);
  metrics.completed.Inc();
  // The engine pool localizes on the existing workspace free list, fanning
  // the round's anchor maps out across idle workers; with an inline pool
  // (engine_threads = 1) this runs right here on the assembler.
  node->done = engine_.LocateAsync(node->round, node->result, [this] {
    locates_done_.fetch_add(1);
    if (sleepers_.load() > 0) WakeAssemblers();
  });
  shard.inflight.push_back(std::move(node));
}

std::size_t LocalizationService::SweepCompletions(TagSessionShard& shard) {
  const Metrics& metrics = Metrics::Get();
  std::vector<PositionUpdate> callbacks;
  std::size_t retired = 0;
  {
    std::lock_guard lock(shard.mutex);
    // Front-first delivery keeps per-tag updates in round order even when
    // the pool finishes later rounds before earlier ones.
    while (!shard.inflight.empty() &&
           shard.inflight.front()->done.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      std::unique_ptr<InflightLocate> node = std::move(shard.inflight.front());
      shard.inflight.pop_front();
      ++retired;
      const std::uint64_t now = obs::NowNs();
      const auto it = shard.sessions.find(node->tag_id);
      TagSession* session = it == shard.sessions.end() ? nullptr : &it->second;
      if (session != nullptr) {
        session->inflight -= 1;
        session->last_activity_ns = now;
      }
      try {
        node->done.get();
      } catch (...) {
        // The round is lost, not the service: drop it, count it, and keep
        // delivering this tag's later rounds and every other tag's.
        locate_errors_.fetch_add(1, std::memory_order_relaxed);
        metrics.locate_errors.Inc();
        RecycleNode(std::move(node));
        continue;
      }
      const std::uint64_t latency_us =
          (now - node->first_ingest_ns) / 1000;
      metrics.e2e_latency_us.Record(latency_us);
      // Per-shard rolling window for /healthz: recent latency, not
      // since-start. Under the shard mutex like every session mutation.
      shard.latency_window[shard.latency_recorded %
                           TagSessionShard::kLatencyWindow] =
          latency_us > 0xffffffffull
              ? 0xffffffffu
              : static_cast<std::uint32_t>(latency_us);
      ++shard.latency_recorded;
      ++shard.localized_rounds;
      localized_rounds_.fetch_add(1, std::memory_order_relaxed);
      metrics.localized.Inc();

      PositionUpdate update;
      update.tag_id = node->tag_id;
      update.round_id = node->round.round_id;
      update.result = std::move(node->result);
      update.latency_us = latency_us;

      if (session != nullptr) {
        update.tracked_position = update.result.position;
        if (options_.track && update.result.anchors_used > 0) {
          // Round-ordered delivery (front-first FIFO) keeps the per-tag dt
          // sequence monotone; a duplicate or reordered round id yields
          // dt <= 0, which the tracker rejects rather than corrupting the
          // covariance.
          const double dt =
              session->has_tracked_round
                  ? static_cast<double>(static_cast<std::int64_t>(
                        update.round_id - session->last_tracked_round)) *
                        options_.round_period_s
                  : 0.0;
          update.fix_accepted =
              session->tracker.Update(update.result.position, dt);
          if (!session->has_tracked_round ||
              update.fix_accepted || dt > 0.0) {
            session->last_tracked_round = update.round_id;
            session->has_tracked_round = true;
          }
          update.tracked_position = session->tracker.position();
          update.velocity = session->tracker.velocity();
        } else if (options_.track && session->tracker.initialized()) {
          // Empty round: report the last known track without advancing it.
          update.tracked_position = session->tracker.position();
          update.velocity = session->tracker.velocity();
        }
        if (!callback_) {
          if (session->ready.size() >= options_.max_ready_updates) {
            session->ready.pop_front();
            dropped_updates_.fetch_add(1, std::memory_order_relaxed);
          }
          session->ready.push_back(std::move(update));
        } else {
          callbacks.push_back(std::move(update));
        }
      } else if (callback_) {
        callbacks.push_back(std::move(update));
      }
      RecycleNode(std::move(node));
    }
  }
  // Callbacks run outside the shard mutex: user code must be free to call
  // Poll()/Ingest() without deadlocking.
  for (PositionUpdate& update : callbacks) callback_(update);
  // The in-flight level drops only after the callbacks ran, so Drain()
  // never reads zero while an update is still being delivered.
  if (retired > 0) {
    metrics.inflight.Sub(static_cast<std::int64_t>(retired));
    inflight_locates_.fetch_sub(retired, std::memory_order_release);
  }
  return retired;
}

void LocalizationService::CollectGarbage(TagSessionShard& shard,
                                         std::uint64_t now_ns) {
  const Metrics& metrics = Metrics::Get();
  const auto timeout_ns =
      static_cast<std::uint64_t>(options_.round_timeout.count());
  const auto idle_ns =
      static_cast<std::uint64_t>(options_.session_idle_timeout.count());
  std::lock_guard lock(shard.mutex);
  for (auto it = shard.sessions.begin(); it != shard.sessions.end();) {
    TagSession& session = it->second;
    for (auto round = session.assembling.begin();
         round != session.assembling.end();) {
      if (now_ns - round->second.first_assembled_ns > timeout_ns) {
        expired_frames_.fetch_add(round->second.reports.size(),
                                  std::memory_order_relaxed);
        expired_rounds_.fetch_add(1, std::memory_order_relaxed);
        metrics.expired.Inc();
        round = session.assembling.erase(round);
      } else {
        ++round;
      }
    }
    const bool idle = session.assembling.empty() && session.ready.empty() &&
                      session.inflight == 0 &&
                      now_ns - session.last_activity_ns > idle_ns;
    it = idle ? (sessions_expired_.fetch_add(1, std::memory_order_relaxed),
                 shard.sessions.erase(it))
              : std::next(it);
  }
}

std::unique_ptr<InflightLocate> LocalizationService::AcquireNode() {
  {
    std::lock_guard lock(node_pool_mutex_);
    if (!node_pool_.empty()) {
      std::unique_ptr<InflightLocate> node = std::move(node_pool_.back());
      node_pool_.pop_back();
      return node;
    }
  }
  return std::make_unique<InflightLocate>();
}

void LocalizationService::RecycleNode(std::unique_ptr<InflightLocate> node) {
  node->result = core::LocationResult{};
  node->round.reports.clear();  // keeps capacity; bands free their memory
  node->done = std::future<void>{};
  std::lock_guard lock(node_pool_mutex_);
  if (node_pool_.size() < 2 * options_.max_inflight_locates) {
    node_pool_.push_back(std::move(node));
  }
}

}  // namespace bloc::serve
