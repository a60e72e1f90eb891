// LocalizationService (DESIGN.md §5f): the multi-tenant, long-running layer
// of the system — many BLE tags reporting through anchors into one central
// server (paper §3), localized concurrently with admission control and an
// output position stream.
//
//   producers (transports / Ingest)          assembler thread
//   ─ lock-free TryPush into the one  ──►    drain the ring -> assemble
//     ingest ring; full ring = refusal       rounds in the session table;
//                                            complete rounds feed
//                                            LocateAsync; ready results flow
//                                            to the callback or the per-tag
//                                            Poll() backlog
//
// Guarantees:
//  - Per-tag FIFO: frames from one producer assemble in send order, and
//    position updates for one tag are delivered in round order.
//  - Positions are bit-identical to driving the same rounds through the
//    serial Localizer / EvaluateBloc path (the service adds no math).
//  - Bounded memory: the ring is fixed-capacity, round assembly is bounded by
//    max_assembling_rounds x shed policy, engine admission is bounded by
//    max_inflight_locates (saturation puts the assembler to sleep until a
//    round completes, the ring fills, producers are refused — backpressure
//    end to end), and
//    round-timeout GC expires partial rounds from lossy anchors.
//
// Per-round failures are contained: a round whose Locate throws (say, a
// malformed report from one anchor) is dropped and counted in
// serve.locate_errors; every other round, the same tag's included, is
// still delivered.
//
// Registry metrics (obs/metrics.h): serve.{admitted,refused,shed,expired,
// duplicate,completed,localized,locate_errors} counters, serve.ring_depth and
// serve.inflight_locates up/down gauges (exact levels + high watermarks),
// and the serve.e2e_latency_us histogram that the soak bench's p50/p99/p999
// SLO gates read. HealthStats() adds the rolling-latency window behind the
// /healthz verdict (serve/health.h, serve/admin.h).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bloc/engine.h"
#include "net/transport.h"
#include "serve/ingest_queue.h"
#include "serve/session.h"

namespace bloc::serve {

struct ServiceOptions {
  /// Ingest ring capacity (rounded up to a power of two). A full ring
  /// refuses the frame — the hard backpressure edge. The default holds one
  /// round from each of 500 four-anchor tags at once; a larger ring only
  /// queues longer under sustained overload.
  std::size_t ring_capacity = 2048;
  /// LocalizationEngine pool threads (0 = hardware_concurrency). Each
  /// round's per-anchor maps fan out across the pool, so below saturation
  /// a fix takes about one anchor map's time rather than all of them.
  std::size_t engine_threads = 0;
  /// Max rounds under assembly per tag before the shed policy applies.
  std::size_t max_assembling_rounds = 16;
  /// Max completed rounds in the engine at once (0 = 4x engine pool size).
  /// At the bound the assembler stalls instead of queueing unboundedly.
  std::size_t max_inflight_locates = 0;
  ShedPolicy shed_policy = ShedPolicy::kShedOldest;
  /// Partial rounds older than this are garbage-collected (lossy anchors
  /// must not grow the assembly maps without bound).
  std::chrono::nanoseconds round_timeout{std::chrono::seconds(2)};
  /// Sessions with no activity and nothing pending are erased after this.
  std::chrono::nanoseconds session_idle_timeout{std::chrono::minutes(1)};
  /// Per-tag Poll() backlog bound; beyond it the oldest update is dropped.
  std::size_t max_ready_updates = 256;
  /// Run a per-tag Kalman track over the fixes: every PositionUpdate then
  /// carries the smoothed position and velocity next to the raw fix. Off
  /// leaves tracked_position == result.position and velocity zero.
  bool track = true;
  /// Round cadence assumed by the tracker: dt between two fixes of one tag
  /// is the round-id delta times this (the wire carries no timestamps).
  double round_period_s = 0.5;
  track::KalmanConfig kalman;
};

/// Monotonic per-instance counters (the registry counters aggregate across
/// every service in the process; tests and the soak bench need this one's).
struct ServiceCounters {
  std::uint64_t admitted_frames = 0;   // accepted into the ring
  std::uint64_t refused_frames = 0;    // ring full, refuse-new policy, or
                                       // unknown anchor / stopped service
  std::uint64_t duplicate_frames = 0;  // same anchor twice in one round
  std::uint64_t shed_rounds = 0;       // evicted by ShedPolicy::kShedOldest
  std::uint64_t expired_rounds = 0;    // round-timeout GC evictions
  std::uint64_t expired_frames = 0;    // frames inside expired/shed rounds
  std::uint64_t completed_rounds = 0;  // assembled and admitted to the engine
  std::uint64_t localized_rounds = 0;  // results delivered downstream
  std::uint64_t locate_errors = 0;     // rounds dropped: Locate threw
  std::uint64_t dropped_updates = 0;   // Poll backlog overflow
  std::uint64_t sessions_expired = 0;  // idle sessions erased
};

/// Everything serve/health.h needs to render an SLO verdict, captured from
/// a live service in one call (the rolling window is copied under the
/// service mutex — a cold path, fine at scrape rates).
struct ServiceHealthStats {
  ServiceCounters counters;
  std::size_t ring_depth = 0;
  std::size_t inflight_locates = 0;
  /// Quantiles of the rolling e2e-latency window (0 before any delivery).
  double window_p50_us = 0.0;
  double window_p99_us = 0.0;
};

class LocalizationService : public net::MessageSink {
 public:
  LocalizationService(core::Deployment deployment, core::LocalizerConfig config,
                      ServiceOptions options = {});
  ~LocalizationService() override;

  LocalizationService(const LocalizationService&) = delete;
  LocalizationService& operator=(const LocalizationService&) = delete;

  /// Position-stream push mode: every localized round is delivered here
  /// (from the assembler thread, never under the service mutex). Set before
  /// Start(); when unset, updates accumulate in the per-tag Poll() backlog.
  void SetUpdateCallback(std::function<void(const PositionUpdate&)> callback);

  /// Spawns the assembler thread. Frames ingested before Start() wait in
  /// the ring. Idempotent.
  void Start();

  /// Stops accepting frames, drains the ring, waits for every in-flight
  /// localization, delivers its update, and joins. Idempotent; the
  /// destructor calls it.
  void Stop();

  /// Blocks until all admitted frames have flowed through (ring empty, no
  /// round in the engine) or `timeout` elapses. Partial rounds awaiting
  /// more frames do not count as work. Returns true when drained.
  bool Drain(std::chrono::milliseconds timeout);

  /// Lock-free producer entry point: stamps the frame and pushes it into
  /// the ingest ring. False = refused (ring full or service stopped); the
  /// frame is untouched, so the caller may retry under backpressure.
  bool Ingest(std::uint64_t tag_id, anchor::CsiReport report);

  /// Transport entry point. TagCsiReportMsg routes to its tag's session;
  /// a plain CsiReportMsg is adopted as tag 0 (single-tenant drop-in);
  /// AnchorHelloMsg is ignored (the deployment fixes the anchor set).
  void OnMessage(const net::Message& msg) override;

  /// Pull mode: the oldest undelivered update for `tag_id`, if any.
  std::optional<PositionUpdate> Poll(std::uint64_t tag_id);

  /// Consistent-enough snapshot of the per-instance counters.
  ServiceCounters Counters() const;

  /// Counters plus ring depth and rolling-latency quantiles — the input to
  /// serve/health.h's EvaluateHealth and the window series on the admin
  /// /metrics endpoint. Takes the service mutex briefly.
  ServiceHealthStats HealthStats() const;

  /// Frames resident in the ring right now (exact when producers quiesce).
  std::size_t RingDepth() const;
  std::size_t InflightLocates() const {
    return inflight_locates_.load(std::memory_order_relaxed);
  }
  core::LocalizationEngine& engine() { return engine_; }
  const ServiceOptions& options() const { return options_; }

 private:
  struct Metrics;  // registry handles (service.cc)

  void AssemblerLoop();
  /// Sleeps until a frame is admitted or a locate completes after the
  /// given counter readings, the service stops, or `timeout` passes.
  void WaitForWork(std::uint64_t frames_seen, std::uint64_t locates_seen,
                   std::chrono::nanoseconds timeout);
  /// Wakes the assembler if it sleeps.
  void WakeAssembler();
  /// Pops up to one batch from the ring and assembles. Returns the number
  /// of frames consumed.
  std::size_t DrainRing();
  /// One frame into its session, applying duplicate/shed/refuse rules;
  /// caller holds the service mutex via `lock`. May complete (and admit) a
  /// round.
  void Assemble(std::unique_lock<std::mutex>& lock, TagFrame&& frame);
  /// Hands a completed round to the engine, stalling while the in-flight
  /// bound is hit; caller holds the service mutex (released while stalled
  /// so the assembler can sweep completions and wait for the next).
  void AdmitRound(std::unique_lock<std::mutex>& lock, std::uint64_t tag_id,
                  std::uint64_t round_id, AssemblingRound&& round);
  /// Retires every done round at the front of the in-flight FIFO: delivers
  /// its update, or drops and counts the round when its Locate threw.
  /// Returns the number retired. Callbacks run outside the mutex.
  std::size_t SweepCompletions();
  /// Round-timeout and idle-session GC.
  void CollectGarbage(std::uint64_t now_ns);

  std::unique_ptr<InflightLocate> AcquireNode();
  void RecycleNode(std::unique_ptr<InflightLocate> node);

  ServiceOptions options_;

  /// The idle or stalled assembler sleeps on wake_cv_. Declared before
  /// engine_ so they outlive the pool, whose workers notify after each
  /// locate.
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::atomic<std::size_t> sleepers_{0};
  std::atomic<std::uint64_t> locates_done_{0};

  core::LocalizationEngine engine_;
  /// The deployment's anchor ids, sorted: a round is complete once each of
  /// them has reported, and a frame from any other id is refused.
  const std::vector<std::uint32_t> anchor_ids_;

  /// Producers touch only the ring (lock-free); the assembler, Poll() and
  /// HealthStats() serialize on `mutex_` for everything below it.
  BoundedMpscQueue<TagFrame> ring_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, TagSession> sessions_;
  /// Admission-order FIFO of rounds in the engine; completions are
  /// delivered front-first, so per-tag updates arrive in round order.
  std::deque<std::unique_ptr<InflightLocate>> inflight_;
  /// Rolling window of the most recent end-to-end latencies (us), written
  /// by SweepCompletions and copied out by HealthStats. A fixed tail, not
  /// a histogram: /healthz judges *recent* latency, not since-start
  /// aggregates.
  static constexpr std::size_t kLatencyWindow = 256;
  std::array<std::uint32_t, kLatencyWindow> latency_window_{};
  std::uint64_t latency_recorded_ = 0;  // total ever; window keeps the tail

  std::function<void(const PositionUpdate&)> callback_;

  std::thread assembler_;
  std::atomic<bool> running_{false};
  std::atomic<bool> accepting_{false};

  std::atomic<std::size_t> frames_in_ring_{0};
  std::atomic<std::size_t> inflight_locates_{0};

  // Per-instance counters (relaxed; exact once producers/assemblers stop).
  std::atomic<std::uint64_t> admitted_frames_{0};
  std::atomic<std::uint64_t> refused_frames_{0};
  std::atomic<std::uint64_t> duplicate_frames_{0};
  std::atomic<std::uint64_t> shed_rounds_{0};
  std::atomic<std::uint64_t> expired_rounds_{0};
  std::atomic<std::uint64_t> expired_frames_{0};
  std::atomic<std::uint64_t> completed_rounds_{0};
  std::atomic<std::uint64_t> localized_rounds_{0};
  std::atomic<std::uint64_t> locate_errors_{0};
  std::atomic<std::uint64_t> dropped_updates_{0};
  std::atomic<std::uint64_t> sessions_expired_{0};

  /// Recycled InflightLocate nodes, touched only by the assembler thread
  /// (AdmitRound takes, SweepCompletions returns), so no lock.
  std::vector<std::unique_ptr<InflightLocate>> node_pool_;
};

}  // namespace bloc::serve
