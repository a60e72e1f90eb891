// Tests for the multi-tenant localization service (serve/): the lock-free
// ingest ring, session assembly in one table, backpressure/shed policies,
// round-timeout GC, the position stream, and bit-identical parity with the
// serial engine path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <thread>
#include <vector>

#include "bloc/engine.h"
#include "net/messages.h"
#include "net/transport.h"
#include "serve/ingest_queue.h"
#include "serve/service.h"
#include "sim/experiment.h"

namespace bloc::serve {
namespace {

// ---------------------------------------------------------------------------
// BoundedMpscQueue

TEST(BoundedMpscQueue, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(RingCapacityFor(1), 2u);
  EXPECT_EQ(RingCapacityFor(4), 4u);
  EXPECT_EQ(RingCapacityFor(5), 8u);
  EXPECT_EQ(BoundedMpscQueue<int>(5).capacity(), 8u);
}

TEST(BoundedMpscQueue, FifoAndFullRefusal) {
  BoundedMpscQueue<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.TryPush(int{i}));
  int overflow = 99;
  EXPECT_FALSE(q.TryPush(std::move(overflow)));
  EXPECT_EQ(overflow, 99);  // refused push leaves the value untouched

  int out = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.TryPop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(q.TryPop(out));
  EXPECT_TRUE(q.TryPush(7));  // slot freed by the pops
  ASSERT_TRUE(q.TryPop(out));
  EXPECT_EQ(out, 7);
}

TEST(BoundedMpscQueue, MultiProducerNoLossPerProducerFifo) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 2000;
  BoundedMpscQueue<std::uint64_t> q(64);
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (std::size_t i = 1; i <= kPerProducer; ++i) {
        std::uint64_t v = p * 1'000'000 + i;
        while (!q.TryPush(std::move(v))) std::this_thread::yield();
      }
    });
  }
  std::vector<std::uint64_t> last_seen(kProducers, 0);
  std::size_t popped = 0;
  while (popped < kProducers * kPerProducer) {
    std::uint64_t v = 0;
    if (!q.TryPop(v)) {
      std::this_thread::yield();
      continue;
    }
    ++popped;
    const std::size_t p = v / 1'000'000;
    const std::uint64_t seq = v % 1'000'000;
    ASSERT_LT(p, kProducers);
    EXPECT_GT(seq, last_seen[p]) << "per-producer FIFO violated";
    last_seen[p] = seq;
  }
  for (std::thread& t : producers) t.join();
  for (std::size_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(last_seen[p], kPerProducer);
  }
  std::uint64_t v = 0;
  EXPECT_FALSE(q.TryPop(v));
}

// ---------------------------------------------------------------------------
// LocalizationService fixtures

/// 10 seeded measurement rounds on the paper testbed, generated once.
const sim::Dataset& Rounds() {
  static const sim::Dataset dataset = [] {
    sim::DatasetOptions options;
    options.locations = 10;
    return sim::GenerateDataset(sim::PaperTestbed(7), options);
  }();
  return dataset;
}

core::LocalizerConfig Config() { return sim::PaperLocalizerConfig(Rounds()); }

/// Serial-path reference positions (LocateBatch, the EvaluateBloc path, is
/// tested bit-identical to Localizer::Locate).
const std::vector<core::LocationResult>& Reference() {
  static const std::vector<core::LocationResult> results = [] {
    core::LocalizationEngine engine(Rounds().deployment, Config(),
                                    {.threads = 1});
    return engine.LocateBatch(Rounds().rounds);
  }();
  return results;
}

/// Bit-identical comparison: no tolerances anywhere.
void ExpectIdentical(const core::LocationResult& a,
                     const core::LocationResult& b) {
  EXPECT_EQ(a.position.x, b.position.x);
  EXPECT_EQ(a.position.y, b.position.y);
  EXPECT_EQ(a.score, b.score);
  EXPECT_EQ(a.bands_used, b.bands_used);
  EXPECT_EQ(a.anchors_used, b.anchors_used);
}

anchor::CsiReport FrameFor(std::size_t dataset_round, std::size_t report_idx,
                           std::uint64_t round_id) {
  anchor::CsiReport report = Rounds().rounds[dataset_round].reports[report_idx];
  report.round_id = round_id;
  return report;
}

std::size_t MasterReportIndex(std::size_t dataset_round) {
  const auto& reports = Rounds().rounds[dataset_round].reports;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (reports[i].is_master) return i;
  }
  return 0;
}

/// Pushes every report of one dataset round as tag `tag_id` round
/// `round_id`, retrying refused pushes (backpressure, never loss).
void SendRound(LocalizationService& service, std::uint64_t tag_id,
               std::size_t dataset_round, std::uint64_t round_id) {
  const auto& reports = Rounds().rounds[dataset_round].reports;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    while (!service.Ingest(tag_id, FrameFor(dataset_round, i, round_id))) {
      std::this_thread::yield();
    }
  }
}

bool WaitFor(const std::function<bool()>& pred, int timeout_ms = 30000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

constexpr std::chrono::milliseconds kDrain{120000};

// ---------------------------------------------------------------------------
// Core behavior

TEST(LocalizationService, PositionsBitIdenticalToSerialEngineViaPoll) {
  // One engine thread runs each round inline on the assembler; four fan
  // every round's maps out.
  for (const std::size_t engine_threads : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "engine_threads=" << engine_threads);
    ServiceOptions options;
    options.engine_threads = engine_threads;
    LocalizationService service(Rounds().deployment, Config(), options);
    service.Start();

    constexpr std::size_t kTags = 6;
    constexpr std::size_t kRoundsPerTag = 3;
    const std::size_t n = Rounds().rounds.size();
    for (std::uint64_t k = 0; k < kRoundsPerTag; ++k) {
      for (std::uint64_t t = 0; t < kTags; ++t) {
        SendRound(service, t, (t + k) % n, k);
      }
    }
    ASSERT_TRUE(service.Drain(kDrain));

    for (std::uint64_t t = 0; t < kTags; ++t) {
      for (std::uint64_t k = 0; k < kRoundsPerTag; ++k) {
        const auto update = service.Poll(t);
        ASSERT_TRUE(update.has_value()) << "tag " << t << " round " << k;
        EXPECT_EQ(update->tag_id, t);
        EXPECT_EQ(update->round_id, k) << "per-tag round order violated";
        ExpectIdentical(update->result, Reference()[(t + k) % n]);
      }
      EXPECT_FALSE(service.Poll(t).has_value());
    }

    const ServiceCounters counters = service.Counters();
    EXPECT_EQ(counters.localized_rounds, kTags * kRoundsPerTag);
    EXPECT_EQ(counters.duplicate_frames, 0u);
    EXPECT_EQ(counters.shed_rounds, 0u);
    EXPECT_EQ(counters.expired_rounds, 0u);
    service.Stop();
  }
}

TEST(LocalizationService, PositionStreamCarriesTheTrack) {
  ServiceOptions options;
  options.track = true;
  options.round_period_s = 0.5;
  LocalizationService service(Rounds().deployment, Config(), options);

  // The callback runs on the single assembler thread; no lock needed.
  std::vector<PositionUpdate> updates;
  service.SetUpdateCallback(
      [&](const PositionUpdate& u) { updates.push_back(u); });
  service.Start();

  // A stationary tag: the same dataset round five times. Identical fixes
  // give zero innovation, so the Kalman state converges onto the fix — the
  // smoothed track must sit exactly on the raw position with ~zero
  // velocity, and every fix passes the innovation gate.
  constexpr std::uint64_t kTag = 2;
  for (std::uint64_t k = 0; k < 5; ++k) SendRound(service, kTag, 0, k);
  ASSERT_TRUE(service.Drain(kDrain));
  service.Stop();

  ASSERT_EQ(updates.size(), 5u);
  for (std::uint64_t k = 0; k < updates.size(); ++k) {
    const PositionUpdate& u = updates[k];
    EXPECT_EQ(u.round_id, k);
    EXPECT_TRUE(u.fix_accepted);
    ExpectIdentical(u.result, Reference()[0]);
    EXPECT_NEAR(u.tracked_position.x, u.result.position.x, 1e-9);
    EXPECT_NEAR(u.tracked_position.y, u.result.position.y, 1e-9);
    EXPECT_NEAR(u.velocity.Norm(), 0.0, 1e-9);
  }
}

TEST(LocalizationService, TrackingOffLeavesRawPositions) {
  ServiceOptions options;
  options.track = false;
  LocalizationService service(Rounds().deployment, Config(), options);
  service.Start();
  SendRound(service, 1, 3, 0);
  ASSERT_TRUE(service.Drain(kDrain));
  service.Stop();

  const auto update = service.Poll(1);
  ASSERT_TRUE(update.has_value());
  EXPECT_FALSE(update->fix_accepted);
  EXPECT_EQ(update->tracked_position.x, update->result.position.x);
  EXPECT_EQ(update->tracked_position.y, update->result.position.y);
  EXPECT_EQ(update->velocity.x, 0.0);
  EXPECT_EQ(update->velocity.y, 0.0);
}

TEST(LocalizationService, ConcurrentIngestIntoOneRingLosesNothing) {
  // Every producer and tag contends on the service's one ring and mutex.
  ServiceOptions options;
  options.ring_capacity = 64;  // small: producers must ride backpressure
  LocalizationService service(Rounds().deployment, Config(), options);

  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kTagsPerProducer = 2;
  constexpr std::size_t kTags = kProducers * kTagsPerProducer;
  constexpr std::size_t kRoundsPerTag = 4;
  const std::size_t n = Rounds().rounds.size();

  // The callback runs on the single assembler thread; per-tag sequences
  // need no lock.
  std::vector<std::vector<PositionUpdate>> delivered(kTags);
  service.SetUpdateCallback([&](const PositionUpdate& u) {
    delivered[u.tag_id].push_back(u);
  });
  service.Start();

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t k = 0; k < kRoundsPerTag; ++k) {
        for (std::size_t i = 0; i < kTagsPerProducer; ++i) {
          const std::uint64_t t = p * kTagsPerProducer + i;
          SendRound(service, t, (t * 31 + k) % n, k);
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  ASSERT_TRUE(service.Drain(kDrain));
  service.Stop();

  for (std::uint64_t t = 0; t < kTags; ++t) {
    ASSERT_EQ(delivered[t].size(), kRoundsPerTag) << "tag " << t;
    for (std::uint64_t k = 0; k < kRoundsPerTag; ++k) {
      EXPECT_EQ(delivered[t][k].round_id, k) << "per-tag order violated";
      ExpectIdentical(delivered[t][k].result, Reference()[(t * 31 + k) % n]);
    }
  }
  const ServiceCounters counters = service.Counters();
  const std::size_t frames_per_round = Rounds().rounds[0].reports.size();
  EXPECT_EQ(counters.admitted_frames,
            kTags * kRoundsPerTag * frames_per_round);
  EXPECT_EQ(counters.localized_rounds, kTags * kRoundsPerTag);
  EXPECT_EQ(counters.duplicate_frames, 0u);
  EXPECT_EQ(counters.shed_rounds, 0u);
}

TEST(LocalizationService, FullRingRefusesAndDrainFreesIt) {
  ServiceOptions options;
  options.ring_capacity = 4;
  LocalizationService service(Rounds().deployment, Config(), options);
  // Not started: frames stay in the ring, making capacity observable.

  for (std::uint64_t k = 0; k < 4; ++k) {
    EXPECT_TRUE(service.Ingest(k % 2, FrameFor(0, 0, k)));
  }
  EXPECT_EQ(service.RingDepth(), 4u);
  // The ring is full: any tag's next frame is refused, and left untouched
  // for the producer to retry.
  EXPECT_FALSE(service.Ingest(0, FrameFor(0, 0, 4)));
  EXPECT_FALSE(service.Ingest(7, FrameFor(0, 0, 0)));
  EXPECT_EQ(service.Counters().refused_frames, 2u);
  EXPECT_EQ(service.Counters().admitted_frames, 4u);

  // Draining the ring must release its slots.
  service.Start();
  ASSERT_TRUE(service.Drain(kDrain));
  EXPECT_EQ(service.RingDepth(), 0u);
  for (std::uint64_t k = 0; k < 4; ++k) {
    EXPECT_TRUE(service.Ingest(7, FrameFor(0, 0, k)));
  }
  service.Stop();
}

TEST(LocalizationService, ShedOldestEvictsTheLowestRoundId) {
  ServiceOptions options;
  options.max_assembling_rounds = 2;
  options.shed_policy = ShedPolicy::kShedOldest;
  LocalizationService service(Rounds().deployment, Config(), options);
  service.Start();

  const std::uint64_t tag = 7;
  const std::size_t master = MasterReportIndex(0);
  // Three incomplete rounds against a bound of two: round 0 must be shed.
  for (std::uint64_t k = 0; k < 3; ++k) {
    ASSERT_TRUE(service.Ingest(tag, FrameFor(0, master, k)));
  }
  ASSERT_TRUE(WaitFor([&] { return service.Counters().shed_rounds == 1; }));

  // Rounds 1 and 2 survived: completing them must localize both.
  const auto& reports = Rounds().rounds[0].reports;
  for (std::uint64_t k = 1; k < 3; ++k) {
    for (std::size_t i = 0; i < reports.size(); ++i) {
      if (i == master) continue;
      while (!service.Ingest(tag, FrameFor(0, i, k))) {
        std::this_thread::yield();
      }
    }
  }
  ASSERT_TRUE(service.Drain(kDrain));
  ASSERT_TRUE(
      WaitFor([&] { return service.Counters().localized_rounds == 2; }));
  EXPECT_EQ(service.Poll(tag)->round_id, 1u);
  EXPECT_EQ(service.Poll(tag)->round_id, 2u);
  service.Stop();
}

TEST(LocalizationService, RefuseNewKeepsInFlightRounds) {
  ServiceOptions options;
  options.max_assembling_rounds = 2;
  options.shed_policy = ShedPolicy::kRefuseNew;
  LocalizationService service(Rounds().deployment, Config(), options);
  service.Start();

  const std::uint64_t tag = 9;
  const std::size_t master = MasterReportIndex(0);
  for (std::uint64_t k = 0; k < 3; ++k) {
    ASSERT_TRUE(service.Ingest(tag, FrameFor(0, master, k)));
  }
  // Round 2's opening frame is refused at the assembly stage.
  ASSERT_TRUE(
      WaitFor([&] { return service.Counters().refused_frames == 1; }));
  EXPECT_EQ(service.Counters().shed_rounds, 0u);

  // Rounds 0 and 1 are intact: completing them localizes both, in order.
  const auto& reports = Rounds().rounds[0].reports;
  for (std::uint64_t k = 0; k < 2; ++k) {
    for (std::size_t i = 0; i < reports.size(); ++i) {
      if (i == master) continue;
      while (!service.Ingest(tag, FrameFor(0, i, k))) {
        std::this_thread::yield();
      }
    }
  }
  ASSERT_TRUE(service.Drain(kDrain));
  ASSERT_TRUE(
      WaitFor([&] { return service.Counters().localized_rounds == 2; }));
  EXPECT_EQ(service.Poll(tag)->round_id, 0u);
  EXPECT_EQ(service.Poll(tag)->round_id, 1u);
  service.Stop();
}

TEST(LocalizationService, RoundTimeoutGcExpiresPartialRounds) {
  ServiceOptions options;
  options.round_timeout = std::chrono::milliseconds(50);
  LocalizationService service(Rounds().deployment, Config(), options);
  service.Start();

  // A lossy anchor: only the master's frame ever arrives.
  ASSERT_TRUE(service.Ingest(3, FrameFor(0, MasterReportIndex(0), 0)));
  ASSERT_TRUE(WaitFor([&] {
    const ServiceCounters c = service.Counters();
    return c.expired_rounds == 1 && c.expired_frames == 1;
  }));

  // The tag is healthy afterwards: a complete round still localizes.
  SendRound(service, 3, 0, 1);
  ASSERT_TRUE(service.Drain(kDrain));
  ASSERT_TRUE(
      WaitFor([&] { return service.Counters().localized_rounds == 1; }));
  const auto update = service.Poll(3);
  ASSERT_TRUE(update.has_value());
  ExpectIdentical(update->result, Reference()[0]);
  service.Stop();
}

TEST(LocalizationService, DuplicateFramesAreDroppedNotAssembled) {
  LocalizationService service(Rounds().deployment, Config(), {});
  service.Start();

  const std::size_t master = MasterReportIndex(0);
  ASSERT_TRUE(service.Ingest(5, FrameFor(0, master, 0)));
  ASSERT_TRUE(service.Ingest(5, FrameFor(0, master, 0)));  // duplicate
  const auto& reports = Rounds().rounds[0].reports;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (i == master) continue;
    ASSERT_TRUE(service.Ingest(5, FrameFor(0, i, 0)));
  }
  ASSERT_TRUE(service.Drain(kDrain));
  ASSERT_TRUE(WaitFor([&] {
    const ServiceCounters c = service.Counters();
    return c.duplicate_frames == 1 && c.localized_rounds == 1;
  }));
  ExpectIdentical(service.Poll(5)->result, Reference()[0]);
  service.Stop();
}

TEST(LocalizationService, UnknownAnchorAndStoppedServiceRefuse) {
  LocalizationService service(Rounds().deployment, Config(), {});
  service.Start();
  anchor::CsiReport rogue = FrameFor(0, 0, 0);
  rogue.anchor_id = 9999;
  ASSERT_TRUE(service.Ingest(1, rogue));  // admitted to the ring...
  ASSERT_TRUE(WaitFor(  // ...but refused by the registered-anchor view
      [&] { return service.Counters().refused_frames == 1; }));
  service.Stop();
  EXPECT_FALSE(service.Ingest(1, FrameFor(0, 0, 0)));
}

TEST(LocalizationService, ForeignAnchorHelloLeavesTheAnchorSetAlone) {
  // The deployment fixes the anchor set. A hello from an anchor outside it
  // must not become a fifth anchor that every new tag's round waits for.
  LocalizationService service(Rounds().deployment, Config(), {});
  service.Start();
  net::AnchorHelloMsg hello;
  hello.anchor_id = 999;
  service.OnMessage(hello);

  SendRound(service, 1, 0, 0);  // a tag first seen after the hello
  ASSERT_TRUE(service.Drain(kDrain));
  std::optional<PositionUpdate> update;
  ASSERT_TRUE(WaitFor([&] { return (update = service.Poll(1)).has_value(); }));
  ExpectIdentical(update->result, Reference()[0]);
  // A frame from the foreign anchor is still refused.
  anchor::CsiReport rogue = FrameFor(0, 0, 1);
  rogue.anchor_id = 999;
  ASSERT_TRUE(service.Ingest(1, rogue));
  ASSERT_TRUE(
      WaitFor([&] { return service.Counters().refused_frames == 1; }));
  service.Stop();
  EXPECT_EQ(service.Counters().expired_rounds, 0u);
}

TEST(LocalizationService, EngineAdmissionBoundStallsWithoutDeadlock) {
  constexpr std::uint64_t kTags = 6;
  constexpr std::uint64_t kRounds = 2;
  constexpr std::uint64_t kBadTag = 2;  // its round 0 has a truncated tag_csi
  const std::size_t n = Rounds().rounds.size();
  const auto dataset_round = [n](std::uint64_t tag, std::uint64_t round) {
    return static_cast<std::size_t>((tag + round) % n);
  };
  // An inline pool completes each round on the assembler; a real pool
  // completes it on a worker while the assembler waits.
  for (const std::size_t engine_threads : {1u, 2u}) {
    SCOPED_TRACE(engine_threads);
    ServiceOptions options;
    options.engine_threads = engine_threads;
    options.max_inflight_locates = 1;  // assembler must stall and sweep
    LocalizationService service(Rounds().deployment, Config(), options);
    // The whole burst waits in the rings before Start(), so the assembler
    // meets the bound from its second round on.
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      for (std::uint64_t t = 0; t < kTags; ++t) {
        const std::size_t d = dataset_round(t, r);
        const auto& reports = Rounds().rounds[d].reports;
        const std::size_t victim = (MasterReportIndex(d) + 1) % reports.size();
        for (std::size_t i = 0; i < reports.size(); ++i) {
          anchor::CsiReport frame = FrameFor(d, i, r);
          if (t == kBadTag && r == 0 && i == victim) {
            frame.bands.back().tag_csi.pop_back();
          }
          ASSERT_TRUE(service.Ingest(t, std::move(frame)));
        }
      }
    }
    service.Start();
    ASSERT_TRUE(service.Drain(kDrain));

    const ServiceCounters counters = service.Counters();
    EXPECT_EQ(counters.completed_rounds, kTags * kRounds);
    EXPECT_EQ(counters.locate_errors, 1u);
    EXPECT_EQ(counters.localized_rounds, kTags * kRounds - 1);
    EXPECT_EQ(service.InflightLocates(), 0u);
    for (std::uint64_t t = 0; t < kTags; ++t) {
      for (std::uint64_t r = 0; r < kRounds; ++r) {
        if (t == kBadTag && r == 0) continue;  // dropped, not delivered
        const auto update = service.Poll(t);
        ASSERT_TRUE(update.has_value());
        EXPECT_EQ(update->round_id, r);
        ExpectIdentical(update->result, Reference()[dataset_round(t, r)]);
      }
      EXPECT_FALSE(service.Poll(t).has_value());
    }
    service.Stop();
  }
}

TEST(LocalizationService, DefaultEngineUsesEveryCore) {
  LocalizationService service(Rounds().deployment, Config(), {});
  EXPECT_EQ(service.engine().threads(),
            std::max<std::size_t>(1, std::thread::hardware_concurrency()));
}

TEST(LocalizationService, LocateErrorDropsTheRoundAndKeepsServing) {
  ServiceOptions options;
  options.engine_threads = 4;
  LocalizationService service(Rounds().deployment, Config(), options);
  service.Start();

  // Tag 50's round 0 carries one truncated tag_csi vector, so its Locate
  // throws on an engine worker. The round must be dropped and counted; the
  // process, the tag's next round and every other tag carry on.
  constexpr std::uint64_t kBadTag = 50;
  const auto& reports = Rounds().rounds[0].reports;
  const std::size_t victim = (MasterReportIndex(0) + 1) % reports.size();
  for (std::size_t i = 0; i < reports.size(); ++i) {
    anchor::CsiReport frame = FrameFor(0, i, 0);
    if (i == victim) frame.bands.back().tag_csi.pop_back();
    ASSERT_TRUE(service.Ingest(kBadTag, std::move(frame)));
  }
  SendRound(service, kBadTag, 1, 1);
  for (std::uint64_t t = 0; t < 4; ++t) SendRound(service, t, t, 0);
  ASSERT_TRUE(service.Drain(kDrain));

  const ServiceCounters counters = service.Counters();
  EXPECT_EQ(counters.locate_errors, 1u);
  EXPECT_EQ(counters.completed_rounds, 6u);
  EXPECT_EQ(counters.localized_rounds, 5u);
  EXPECT_EQ(service.InflightLocates(), 0u);
  const auto next = service.Poll(kBadTag);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->round_id, 1u);
  ExpectIdentical(next->result, Reference()[1]);
  EXPECT_FALSE(service.Poll(kBadTag).has_value());
  for (std::uint64_t t = 0; t < 4; ++t) {
    const auto update = service.Poll(t);
    ASSERT_TRUE(update.has_value());
    ExpectIdentical(update->result, Reference()[t]);
  }
  service.Stop();
}

TEST(LocalizationService, IdleAssemblerWakesOnIngestNotOnTheGcTimer) {
  ServiceOptions options;
  options.round_timeout = std::chrono::seconds(8);  // GC period: 1 s
  LocalizationService service(Rounds().deployment, Config(), options);
  std::atomic<std::uint64_t> delivered{0};
  service.SetUpdateCallback([&](const PositionUpdate&) { ++delivered; });
  service.Start();
  SendRound(service, 1, 0, 0);  // warm-up: builds the steering plans
  ASSERT_TRUE(WaitFor([&] { return delivered.load() == 1; }));

  // Idle long enough for the assembler to go to sleep, then one round: it
  // must be picked up by the ingest wake, not by the 1 s GC timeout.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto start = std::chrono::steady_clock::now();
  SendRound(service, 1, 1, 1);
  ASSERT_TRUE(WaitFor([&] { return delivered.load() == 2; }));
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(500));
  service.Stop();
}

// ---------------------------------------------------------------------------
// Transport integration

TEST(LocalizationService, TagReportsRouteThroughTheWireCodec) {
  LocalizationService service(Rounds().deployment, Config(), {});
  service.Start();
  net::InProcTransport transport(service);

  for (const anchor::CsiReport& report : Rounds().rounds[2].reports) {
    anchor::CsiReport frame = report;
    frame.round_id = 0;
    transport.Send(net::TagCsiReportMsg{42, std::move(frame)});
  }
  // A plain (untagged) CsiReport is adopted as tag 0.
  for (const anchor::CsiReport& report : Rounds().rounds[1].reports) {
    anchor::CsiReport frame = report;
    frame.round_id = 0;
    transport.Send(net::CsiReportMsg{std::move(frame)});
  }
  ASSERT_TRUE(service.Drain(kDrain));
  ASSERT_TRUE(
      WaitFor([&] { return service.Counters().localized_rounds == 2; }));

  const auto tagged = service.Poll(42);
  ASSERT_TRUE(tagged.has_value());
  ExpectIdentical(tagged->result, Reference()[2]);
  const auto untagged = service.Poll(0);
  ASSERT_TRUE(untagged.has_value());
  ExpectIdentical(untagged->result, Reference()[1]);
  service.Stop();
}

TEST(LocalizationService, ReportsSurviveTcpTransport) {
  // One round's reports travel as untagged CsiReportMsg frames over real
  // loopback TCP into the service: its fix equals the serial Localizer's.
  const net::MeasurementRound& round = Rounds().rounds[0];
  LocalizationService service(Rounds().deployment, Config());
  service.Start();
  net::TcpServer server(service);
  {
    net::TcpTransport client("127.0.0.1", server.port());
    for (const anchor::CsiReport& report : round.reports) {
      client.Send(net::CsiReportMsg{report});
    }
  }
  std::optional<PositionUpdate> update;
  ASSERT_TRUE(WaitFor([&] { return (update = service.Poll(0)).has_value(); }));
  server.Stop();
  service.Stop();

  EXPECT_EQ(update->round_id, round.round_id);
  const core::Localizer localizer(Rounds().deployment, Config());
  const core::LocationResult direct = localizer.Locate(round);
  EXPECT_EQ(update->result.position.x, direct.position.x);
  EXPECT_EQ(update->result.position.y, direct.position.y);
}

TEST(TagCsiReportMsg, FrameRoundTrip) {
  const net::TagCsiReportMsg msg{0x1234567890ull,
                                 Rounds().rounds[0].reports[1]};
  const net::Buffer frame = net::EncodeFrame(msg);
  std::optional<net::Message> decoded;
  ASSERT_EQ(net::DecodeFrame(frame, decoded), frame.size());
  const auto* out = std::get_if<net::TagCsiReportMsg>(&*decoded);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->tag_id, msg.tag_id);
  EXPECT_EQ(out->report.anchor_id, msg.report.anchor_id);
  EXPECT_EQ(out->report.round_id, msg.report.round_id);
  ASSERT_EQ(out->report.bands.size(), msg.report.bands.size());
  EXPECT_EQ(out->report.bands[0].tag_csi, msg.report.bands[0].tag_csi);
}

}  // namespace
}  // namespace bloc::serve
