// Per-tag session state for the multi-tenant localization service
// (DESIGN.md §5f): tag id -> in-flight round assembly and the Poll()
// backlog. The service keeps every session in one table behind one mutex,
// fed by one bounded lock-free ingest ring (producers never take a lock).
// A round in the engine waits in the service's admission-order FIFO and
// completes by a done flag the engine's completion sets.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <map>
#include <vector>

#include "anchor/csi_report.h"
#include "bloc/localizer.h"
#include "net/messages.h"
#include "track/kalman.h"

namespace bloc::serve {

/// What to do when admitting a frame would exceed a session's in-flight
/// round-assembly bound (ServiceOptions::max_assembling_rounds).
enum class ShedPolicy : std::uint8_t {
  /// Evict the oldest incomplete round to make room for the new one —
  /// favors fresh data from live tags over stragglers from lossy anchors.
  kShedOldest,
  /// Drop the frame that would open a new round — favors completing what
  /// is already in flight.
  kRefuseNew,
};

/// One frame of one tag's measurement round, as it travels through the
/// ingest ring. `ingest_ns` is stamped when the producer's push is admitted and
/// anchors the end-to-end (ingest -> position) latency histogram.
struct TagFrame {
  std::uint64_t tag_id = 0;
  std::uint64_t ingest_ns = 0;
  anchor::CsiReport report;
};

/// A localized position delivered on the output stream, via the service
/// callback or Poll(). Carries both the raw per-round fix and the session
/// tracker's smoothed state (equal to the raw fix when tracking is off).
struct PositionUpdate {
  std::uint64_t tag_id = 0;
  std::uint64_t round_id = 0;
  core::LocationResult result;
  /// Kalman-smoothed position after this round (== result.position when
  /// ServiceOptions::track is off or the tag has a single fix).
  geom::Vec2 tracked_position;
  /// Estimated tag velocity (m/s; zero until two fixes are in).
  geom::Vec2 velocity;
  /// The raw fix updated the track (false when the round was empty, the
  /// fix failed the innovation gate, or tracking is off).
  bool fix_accepted = false;
  /// First-frame ring admission -> result available, microseconds.
  std::uint64_t latency_us = 0;
};

/// A round under assembly: reports accumulate in arrival order (per-tag
/// FIFO through the ring keeps this byte-identical to the sender's order).
struct AssemblingRound {
  std::uint64_t first_ingest_ns = 0;
  /// When the first frame was *assembled* (popped from the ring). The GC
  /// ages rounds from this clock, not first_ingest_ns: under backlog a
  /// frame can sit seconds in the ring, and a round must not time out
  /// waiting for frames that are merely queued rather than missing.
  std::uint64_t first_assembled_ns = 0;
  std::vector<anchor::CsiReport> reports;
};

/// Per-tag session: rounds under assembly, the Poll() backlog and the
/// track. Round-timeout GC and idle expiry keep both maps bounded.
struct TagSession {
  /// round_id -> partial round; std::map so the oldest (lowest) round id is
  /// O(1) to find for the shed-oldest policy.
  std::map<std::uint64_t, AssemblingRound> assembling;
  /// Delivered updates awaiting Poll() (unused when a callback is set).
  std::deque<PositionUpdate> ready;
  std::uint64_t last_activity_ns = 0;
  /// Rounds of this tag currently in the engine.
  std::size_t inflight = 0;
  /// Per-tag track over the delivered fixes (ServiceOptions::track). Only
  /// touched by SweepCompletions under the service mutex, in round order.
  track::KalmanTracker tracker;
  /// Round id of the last fix offered to the tracker; dt between rounds is
  /// (round_id - last) x ServiceOptions::round_period_s (the wire carries
  /// no capture timestamps, and round ids tick one per period).
  std::uint64_t last_tracked_round = 0;
  bool has_tracked_round = false;
};

/// A completed round riding through LocalizationEngine::LocateAsync. The
/// node is stable storage for the round and result (LocateAsync holds
/// references until its completion runs); nodes are recycled through the
/// service free list so the steady state allocates only inside reports.
struct InflightLocate {
  std::uint64_t tag_id = 0;
  std::uint64_t first_ingest_ns = 0;
  net::MeasurementRound round;
  core::LocationResult result;
  /// What Locate threw, or nullptr; written before `done`.
  std::exception_ptr error;
  /// Set (release) by the engine's completion once `result` and `error`
  /// are written; the assembler reads it (acquire) and may then recycle the
  /// node, so the completion touches nothing of the node after the store.
  std::atomic<bool> done{false};
};

}  // namespace bloc::serve
