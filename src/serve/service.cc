#include "serve/service.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace bloc::serve {

namespace {

constexpr std::size_t kDrainBatch = 64;

std::vector<std::uint32_t> SortedAnchorIds(const core::Deployment& deployment) {
  std::vector<std::uint32_t> ids = deployment.AnchorIds();
  std::sort(ids.begin(), ids.end());
  return ids;
}

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
              {.threads = options_.engine_threads}),
      anchor_ids_(SortedAnchorIds(deployment)),
      ring_(options_.ring_capacity) {
  if (options_.max_inflight_locates == 0) {
    options_.max_inflight_locates = 4 * engine_.threads();
  }
  options_.max_assembling_rounds =
      std::max<std::size_t>(options_.max_assembling_rounds, 1);
  accepting_.store(true, std::memory_order_release);
}

LocalizationService::~LocalizationService() { Stop(); }

void LocalizationService::SetUpdateCallback(
    std::function<void(const PositionUpdate&)> callback) {
  callback_ = std::move(callback);
}

void LocalizationService::Start() {
  if (running_.exchange(true)) return;
  assembler_ = std::thread([this] { AssemblerLoop(); });
}

void LocalizationService::Stop() {
  accepting_.store(false, std::memory_order_release);
  if (running_.load(std::memory_order_acquire)) {
    // Let the assembler finish the admitted work before asking it out:
    // incomplete rounds awaiting more frames are not work (their frames can
    // no longer arrive), in-flight localizations and ring residue are.
    while (frames_in_ring_.load(std::memory_order_acquire) > 0 ||
           inflight_locates_.load(std::memory_order_acquire) > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  running_.store(false);
  WakeAssembler();
  if (assembler_.joinable()) assembler_.join();
}

bool LocalizationService::Drain(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (frames_in_ring_.load(std::memory_order_acquire) > 0 ||
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
  TagFrame frame{tag_id, obs::NowNs(), std::move(report)};
  if (!ring_.TryPush(std::move(frame))) {
    refused_frames_.fetch_add(1, std::memory_order_relaxed);
    metrics.refused.Inc();
    return false;
  }
  frames_in_ring_.fetch_add(1, std::memory_order_release);
  // Sequentially consistent with the sleepers_ load below (and with the
  // assembler's sleepers_ increment before its re-check in WaitForWork):
  // either this frame is seen before the assembler sleeps, or the
  // assembler is seen asleep here and woken.
  admitted_frames_.fetch_add(1);
  metrics.admitted.Inc();
  metrics.ring_depth.Add(1);
  if (sleepers_.load() > 0) WakeAssembler();
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
  // AnchorHelloMsg is ignored: the anchor set is the deployment's, whose
  // positions and arrays the localizer was built from. A hello cannot give
  // the localizer an anchor it has no geometry for, and a hello from a
  // deployed anchor changes nothing. LocationEstimateMsg flows server ->
  // clients; ignore it on ingest too.
}

std::optional<PositionUpdate> LocalizationService::Poll(std::uint64_t tag_id) {
  std::lock_guard lock(mutex_);
  const auto it = sessions_.find(tag_id);
  if (it == sessions_.end() || it->second.ready.empty()) {
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
  return frames_in_ring_.load(std::memory_order_relaxed);
}

ServiceHealthStats LocalizationService::HealthStats() const {
  ServiceHealthStats stats;
  stats.counters = Counters();
  stats.ring_depth = RingDepth();
  stats.inflight_locates = InflightLocates();
  std::vector<std::uint32_t> window;
  {
    std::lock_guard lock(mutex_);
    const std::size_t valid =
        std::min<std::uint64_t>(latency_recorded_, kLatencyWindow);
    window.assign(latency_window_.begin(), latency_window_.begin() + valid);
  }
  if (!window.empty()) {
    std::sort(window.begin(), window.end());
    const auto at = [&window](double q) {
      const std::size_t idx = static_cast<std::size_t>(
          q * static_cast<double>(window.size() - 1) + 0.5);
      return static_cast<double>(window[std::min(idx, window.size() - 1)]);
    };
    stats.window_p50_us = at(0.50);
    stats.window_p99_us = at(0.99);
  }
  return stats;
}

void LocalizationService::AssemblerLoop() {
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
    const std::size_t work = DrainRing() + SweepCompletions();
    const std::uint64_t now = obs::NowNs();
    if (now - last_gc_ns >= gc_period_ns) {
      last_gc_ns = now;
      CollectGarbage(now);
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

void LocalizationService::WakeAssembler() {
  std::lock_guard lock(wake_mutex_);
  wake_cv_.notify_all();
}

std::size_t LocalizationService::DrainRing() {
  const Metrics& metrics = Metrics::Get();
  std::size_t popped = 0;
  std::unique_lock lock(mutex_, std::defer_lock);
  TagFrame frame;
  while (popped < kDrainBatch && ring_.TryPop(frame)) {
    if (!lock.owns_lock()) lock.lock();
    Assemble(lock, std::move(frame));
    // Decrement only after assembly so Drain() never observes an
    // all-zero instant while a frame is between the ring and the engine
    // (AdmitRound raises inflight_locates_ before this drops to zero).
    frames_in_ring_.fetch_sub(1, std::memory_order_release);
    metrics.ring_depth.Sub(1);
    ++popped;
  }
  return popped;
}

void LocalizationService::Assemble(std::unique_lock<std::mutex>& lock,
                                   TagFrame&& frame) {
  const Metrics& metrics = Metrics::Get();
  auto [it, created] = sessions_.try_emplace(frame.tag_id);
  TagSession& session = it->second;
  if (created) session.tracker = track::KalmanTracker(options_.kalman);
  session.last_activity_ns = frame.ingest_ns;
  if (!std::binary_search(anchor_ids_.begin(), anchor_ids_.end(),
                          frame.report.anchor_id)) {
    refused_frames_.fetch_add(1, std::memory_order_relaxed);
    metrics.refused.Inc();
    return;  // not an anchor of the deployment
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
    round_it->second.reports.reserve(anchor_ids_.size());
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
  if (round.reports.size() == anchor_ids_.size()) {
    AssemblingRound completed = std::move(round);
    session.assembling.erase(round_it);
    session.inflight += 1;
    AdmitRound(lock, frame.tag_id, round_id, std::move(completed));
  }
}

void LocalizationService::AdmitRound(std::unique_lock<std::mutex>& lock,
                                     std::uint64_t tag_id,
                                     std::uint64_t round_id,
                                     AssemblingRound&& round) {
  const Metrics& metrics = Metrics::Get();
  // Engine admission control: at the in-flight bound the assembler stalls
  // (sweeping so completions retire, and sleeping until the next one when
  // none did) instead of queueing rounds without limit. The stall
  // propagates: the ring fills, producers get refusals.
  while (inflight_locates_.load(std::memory_order_acquire) >=
         options_.max_inflight_locates) {
    lock.unlock();
    const std::uint64_t frames_seen = admitted_frames_.load();
    const std::uint64_t locates_seen = locates_done_.load();
    if (SweepCompletions() == 0) {
      WaitForWork(frames_seen, locates_seen, options_.round_timeout);
    }
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
  // The engine pool localizes the round, fanning its anchor maps out across
  // idle workers; with an inline pool (engine_threads = 1) this runs right
  // here on the assembler.
  InflightLocate* inflight = node.get();
  inflight_.push_back(std::move(node));
  engine_.LocateAsync(inflight->round, inflight->result,
                      [this, inflight](std::exception_ptr error) {
                        inflight->error = std::move(error);
                        inflight->done.store(true, std::memory_order_release);
                        // The node may be recycled from here on.
                        locates_done_.fetch_add(1);
                        if (sleepers_.load() > 0) WakeAssembler();
                      });
}

std::size_t LocalizationService::SweepCompletions() {
  const Metrics& metrics = Metrics::Get();
  std::vector<PositionUpdate> callbacks;
  std::size_t retired = 0;
  {
    std::lock_guard lock(mutex_);
    // Front-first delivery keeps per-tag updates in round order even when
    // the pool finishes later rounds before earlier ones.
    while (!inflight_.empty() &&
           inflight_.front()->done.load(std::memory_order_acquire)) {
      std::unique_ptr<InflightLocate> node = std::move(inflight_.front());
      inflight_.pop_front();
      ++retired;
      const std::uint64_t now = obs::NowNs();
      const auto it = sessions_.find(node->tag_id);
      TagSession* session = it == sessions_.end() ? nullptr : &it->second;
      if (session != nullptr) {
        session->inflight -= 1;
        session->last_activity_ns = now;
      }
      if (node->error) {
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
      // Rolling window for /healthz: recent latency, not since-start.
      latency_window_[latency_recorded_ % kLatencyWindow] =
          latency_us > 0xffffffffull
              ? 0xffffffffu
              : static_cast<std::uint32_t>(latency_us);
      ++latency_recorded_;
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
  // Callbacks run outside the service mutex: user code must be free to call
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

void LocalizationService::CollectGarbage(std::uint64_t now_ns) {
  const Metrics& metrics = Metrics::Get();
  const auto timeout_ns =
      static_cast<std::uint64_t>(options_.round_timeout.count());
  const auto idle_ns =
      static_cast<std::uint64_t>(options_.session_idle_timeout.count());
  std::lock_guard lock(mutex_);
  for (auto it = sessions_.begin(); it != sessions_.end();) {
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
                 sessions_.erase(it))
              : std::next(it);
  }
}

std::unique_ptr<InflightLocate> LocalizationService::AcquireNode() {
  if (node_pool_.empty()) return std::make_unique<InflightLocate>();
  std::unique_ptr<InflightLocate> node = std::move(node_pool_.back());
  node_pool_.pop_back();
  return node;
}

void LocalizationService::RecycleNode(std::unique_ptr<InflightLocate> node) {
  node->result = core::LocationResult{};
  node->round.reports.clear();  // keeps capacity; bands free their memory
  node->error = nullptr;
  node->done.store(false, std::memory_order_relaxed);
  if (node_pool_.size() < 2 * options_.max_inflight_locates) {
    node_pool_.push_back(std::move(node));
  }
}

}  // namespace bloc::serve
