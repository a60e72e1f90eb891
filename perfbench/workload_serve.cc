// serve_paced and serve_flood: 1000 static tags through one
// serve::LocalizationService built with the shipped ServiceOptions.
//
//  - serve_paced is an open loop below saturation: one generator thread
//    sends each round's frames at its due time over one loopback
//    TcpTransport per anchor into a TcpServer, whose sink is a benchmark
//    shim in front of LocalizationService::OnMessage. Latency runs from the
//    round's due time to its PositionUpdate callback.
//  - serve_flood is a closed loop at capacity: the generator pushes frames
//    round-major through in-process Ingest, retrying refused frames.
//    Latency runs from the first push attempt of the round to its callback.
#include <atomic>
#include <memory>
#include <thread>

#include "net/transport.h"
#include "obs/snapshot.h"
#include "serve/service.h"
#include "workloads.h"

namespace perfbench {

using namespace bloc;

namespace {

/// Tag id of the set-up round: outside every workload tag range.
constexpr std::uint64_t kWarmupTag = std::uint64_t{1} << 40;

std::int64_t Ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// Receives every PositionUpdate (from any assembler thread) and checks it:
/// per-tag round order, finite position, bit-identical to the serial
/// reference. Rounds are numbered round-major, seq = round * tags + tag;
/// `start_ns[seq]` is when the round was due (paced) or first pushed
/// (flood), and anchors its latency.
class UpdateChecker {
 public:
  UpdateChecker(const StaticInputs& in, std::size_t tags,
                std::size_t capacity, Oracle& oracle)
      : in_(in),
        tags_(tags),
        oracle_(oracle),
        next_round_(tags),
        start_ns_(capacity) {}

  void SetStart(std::uint64_t seq, Clock::time_point t) {
    start_ns_[seq].store(Ns(t), std::memory_order_release);
  }
  /// Latency and throughput count only inside [begin, end) of issue time
  /// and delivery time respectively.
  void SetWindow(Clock::time_point begin, Clock::time_point end) {
    window_begin_ns_.store(Ns(begin));
    window_end_ns_.store(Ns(end));
  }
  void set_trace(bool on) { trace_.store(on); }

  void OnUpdate(const serve::PositionUpdate& u) {
    const auto now = Clock::now();
    if (u.tag_id == kWarmupTag) {
      CheckFix(u.result.position, in_.reference[0].position, oracle_);
      warm_.store(true, std::memory_order_release);
      return;
    }
    if (u.tag_id >= tags_) {
      oracle_.Fail("unknown_tag");
      return;
    }
    delivered_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t expected =
        next_round_[u.tag_id].fetch_add(1, std::memory_order_relaxed);
    if (u.round_id != expected) {
      oracle_.Fail("out_of_order");
    } else {
      CheckFix(u.result.position,
               in_.reference[in_.LocationOf(u.tag_id)].position, oracle_);
    }
    const std::uint64_t seq = u.round_id * tags_ + u.tag_id;
    const std::int64_t now_ns = Ns(now);
    const std::int64_t begin = window_begin_ns_.load();
    const std::int64_t end = window_end_ns_.load();
    if (now_ns >= begin && now_ns < end) {
      std::lock_guard lock(window_mutex_);
      if (in_window_ == 0) first_in_window_ns_ = now_ns;
      last_in_window_ns_ = now_ns;
      ++in_window_;
    }
    if (seq < start_ns_.size()) {
      const std::int64_t start = start_ns_[seq].load(std::memory_order_acquire);
      if (start >= begin && start < end) {
        latency_ms_.Add(static_cast<double>(now_ns - start) / 1e6);
        if (trace_.load(std::memory_order_relaxed)) {
          update_latency_ms_.Add(u.latency_us / 1e3);
        }
      }
    }
  }

  bool WaitWarm(std::chrono::seconds timeout) {
    const auto deadline = Clock::now() + timeout;
    while (!warm_.load(std::memory_order_acquire)) {
      if (Clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    warm_.store(false);
    return true;
  }
  /// Waits until `issued` updates arrived (or the timeout passes).
  bool WaitDelivered(std::uint64_t issued, std::chrono::seconds timeout) {
    const auto deadline = Clock::now() + timeout;
    while (delivered_.load(std::memory_order_relaxed) < issued) {
      if (Clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }
  std::uint64_t delivered() const { return delivered_.load(); }
  /// Delivery rate inside the window: deliveries between the first and
  /// the last one, over the time between them.
  double WindowRate() {
    std::lock_guard lock(window_mutex_);
    if (in_window_ < 2) return 0.0;
    return static_cast<double>(in_window_ - 1) /
           (static_cast<double>(last_in_window_ns_ - first_in_window_ns_) /
            1e9);
  }
  Samples latency_ms() { return latency_ms_.Take(); }
  Samples update_latency_ms() { return update_latency_ms_.Take(); }

 private:
  const StaticInputs& in_;
  const std::size_t tags_;
  Oracle& oracle_;
  std::atomic<bool> trace_{false};
  std::vector<std::atomic<std::uint64_t>> next_round_;
  std::vector<std::atomic<std::int64_t>> start_ns_;
  std::atomic<std::int64_t> window_begin_ns_{0};
  std::atomic<std::int64_t> window_end_ns_{0};
  std::atomic<bool> warm_{false};
  std::atomic<std::uint64_t> delivered_{0};
  std::mutex window_mutex_;
  std::uint64_t in_window_ = 0;
  std::int64_t first_in_window_ns_ = 0;
  std::int64_t last_in_window_ns_ = 0;
  SharedSamples latency_ms_;
  SharedSamples update_latency_ms_;
};

/// The TcpServer's sink: forwards to LocalizationService::OnMessage and,
/// traced, times the socket transit (send start -> here) and the call.
class Shim : public net::MessageSink {
 public:
  /// `anchor_ids[a]` is the anchor whose frames connection `a` carries.
  Shim(std::size_t tags, std::vector<std::uint32_t> anchor_ids,
       std::size_t capacity)
      : tags_(tags),
        anchor_ids_(std::move(anchor_ids)),
        send_start_ns_(capacity * anchor_ids_.size()) {}

  /// The service every message goes to; set before any traffic.
  void set_service(serve::LocalizationService* service) { service_ = service; }

  void set_trace(bool on) { trace_.store(on); }
  std::size_t Slot(std::uint64_t seq, std::size_t anchor) const {
    return static_cast<std::size_t>(seq) * anchor_ids_.size() + anchor;
  }
  void StampSend(std::size_t slot, Clock::time_point t) {
    if (slot < send_start_ns_.size()) {
      send_start_ns_[slot].store(Ns(t), std::memory_order_release);
    }
  }

  void OnMessage(const net::Message& msg) override {
    if (!trace_.load(std::memory_order_relaxed)) {
      service_->OnMessage(msg);
      return;
    }
    const auto entry = Clock::now();
    if (const auto* tagged = std::get_if<net::TagCsiReportMsg>(&msg);
        tagged != nullptr && tagged->tag_id < tags_) {
      const std::uint64_t seq =
          tagged->report.round_id * tags_ + tagged->tag_id;
      const std::size_t anchor = AnchorIndex(tagged->report.anchor_id);
      const std::size_t slot = Slot(seq, anchor);
      if (slot < send_start_ns_.size()) {
        const std::int64_t sent =
            send_start_ns_[slot].load(std::memory_order_acquire);
        if (sent != 0) transit_us_.Add((Ns(entry) - sent) / 1e3);
      }
    }
    service_->OnMessage(msg);
    ingest_us_.Add(UsBetween(entry, Clock::now()));
  }

  Samples transit_us() { return transit_us_.Take(); }
  Samples ingest_us() { return ingest_us_.Take(); }

 private:
  std::size_t AnchorIndex(std::uint32_t id) const {
    for (std::size_t i = 0; i < anchor_ids_.size(); ++i) {
      if (anchor_ids_[i] == id) return i;
    }
    return 0;
  }

  serve::LocalizationService* service_ = nullptr;
  const std::size_t tags_;
  const std::vector<std::uint32_t> anchor_ids_;
  std::atomic<bool> trace_{false};
  std::vector<std::atomic<std::int64_t>> send_start_ns_;
  SharedSamples transit_us_;
  SharedSamples ingest_us_;
};

/// Samples RingDepth()/InflightLocates() every 2 ms while alive (traced
/// runs only).
class DepthSampler {
 public:
  explicit DepthSampler(const serve::LocalizationService& service)
      : thread_([this, &service] {
          while (!stop_.load(std::memory_order_relaxed)) {
            ring_.Add(static_cast<double>(service.RingDepth()));
            inflight_.Add(static_cast<double>(service.InflightLocates()));
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
        }) {}
  ~DepthSampler() { Stop(); }
  DepthSampler(const DepthSampler&) = delete;
  DepthSampler& operator=(const DepthSampler&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  double ring_mean() const { return ring_.Mean(); }
  double inflight_mean() const { return inflight_.Mean(); }

 private:
  std::atomic<bool> stop_{false};
  Samples ring_, inflight_;
  std::thread thread_;  // last: starts after the members it uses
};

/// Upper bound on rounds one run can issue: the generator stops there.
std::size_t RoundCapacity(const RunSpec& spec, double max_rate) {
  return static_cast<std::size_t>(max_rate *
                                  (spec.seconds + spec.warmup_s + 1.0));
}

/// Rounds the service lost, shed or expired count as failures; refused
/// frames do too unless the caller retried them.
void CheckServiceCounters(const serve::ServiceCounters& c, bool refusals_fail,
                          std::uint64_t issued, std::uint64_t delivered,
                          Oracle& oracle) {
  if (delivered < issued) oracle.Fail("lost", issued - delivered);
  if (c.shed_rounds > 0) oracle.Fail("shed", c.shed_rounds);
  if (c.expired_rounds > 0) oracle.Fail("expired", c.expired_rounds);
  if (c.duplicate_frames > 0) oracle.Fail("duplicate", c.duplicate_frames);
  if (refusals_fail && c.refused_frames > 0) {
    oracle.Fail("refused", c.refused_frames);
  }
}

void SetServeLayer(WorkloadResult& res, const Samples& ingest_us,
                   double refusals_per_round, const DepthSampler& sampler,
                   const Samples& update_latency_ms) {
  res.layer["serve.ingest_us_p50"] = {ingest_us.Quantile(0.50), "us"};
  res.layer["serve.ingest_us_p99"] = {ingest_us.Quantile(0.99), "us"};
  res.layer["serve.refusals_per_round"] = {refusals_per_round, "ratio"};
  res.layer["serve.ring_depth_mean"] = {sampler.ring_mean(), "frames"};
  res.layer["serve.inflight_mean"] = {sampler.inflight_mean(), "rounds"};
  res.layer["serve.update_latency_p50_ms"] = {update_latency_ms.Quantile(0.50),
                                              "ms"};
  res.layer["serve.update_latency_p99_ms"] = {update_latency_ms.Quantile(0.99),
                                              "ms"};
}

/// One set-up of the paced program: service, TcpServer, one connection per
/// anchor, and the first round through all of it. The shim is benchmark
/// code and is built before the set-up clock starts.
struct PacedRig {
  std::unique_ptr<serve::LocalizationService> service;
  std::unique_ptr<Shim> shim;
  std::unique_ptr<net::TcpServer> server;
  std::vector<std::unique_ptr<net::TcpTransport>> conns;

  void Stop() {
    conns.clear();
    if (server) server->Stop();
    if (service) service->Stop();
  }
  ~PacedRig() { Stop(); }
};

}  // namespace

WorkloadResult RunServePaced(const StaticInputs& in, const RunSpec& spec,
                             Oracle& oracle) {
  WorkloadResult res;
  const std::size_t tags = spec.serve_tags;
  const std::size_t anchors = in.dataset.rounds[0].reports.size();
  const std::size_t capacity = RoundCapacity(spec, spec.paced_rate);
  UpdateChecker checker(in, tags, capacity, oracle);
  std::vector<std::uint32_t> anchor_ids;
  for (const anchor::CsiReport& r : in.dataset.rounds[0].reports) {
    anchor_ids.push_back(r.anchor_id);
  }

  std::unique_ptr<PacedRig> rig;
  res.setup_s = MedianOf(spec.setups, [&] {
    rig.reset();
    rig = std::make_unique<PacedRig>();
    rig->shim = std::make_unique<Shim>(tags, anchor_ids, capacity);
    const auto t0 = Clock::now();
    rig->service = std::make_unique<serve::LocalizationService>(
        in.dataset.deployment, in.config, serve::ServiceOptions{});
    rig->service->SetUpdateCallback(
        [&checker](const serve::PositionUpdate& u) { checker.OnUpdate(u); });
    rig->service->Start();
    rig->shim->set_service(rig->service.get());
    rig->server = std::make_unique<net::TcpServer>(*rig->shim);
    for (std::size_t a = 0; a < anchors; ++a) {
      rig->conns.push_back(std::make_unique<net::TcpTransport>(
          "127.0.0.1", rig->server->port()));
    }
    for (std::size_t a = 0; a < anchors; ++a) {
      rig->conns[a]->Send(
          net::TagCsiReportMsg{kWarmupTag, in.dataset.rounds[0].reports[a]});
    }
    oracle.Attempt();
    if (!checker.WaitWarm(std::chrono::seconds(30))) oracle.Fail("lost");
    return SecondsBetween(t0, Clock::now());
  });

  serve::LocalizationService& service = *rig->service;
  rig->shim->set_trace(spec.trace);
  checker.set_trace(spec.trace);
  std::unique_ptr<DepthSampler> sampler;
  if (spec.trace) sampler = std::make_unique<DepthSampler>(service);
  const obs::Snapshot before = obs::Snapshot::Capture();

  // Round i (round-major: tag i % tags, that tag's round i / tags) is due
  // at t0 + i / rate; its frames go out on one connection per anchor.
  Samples send_us;
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  const auto window_begin = t0 + Secs(spec.warmup_s);
  const auto window_end =
      window_begin + Secs(spec.seconds);
  checker.SetWindow(window_begin, window_end);
  std::uint64_t i = 0;
  for (; i < capacity; ++i) {
    const auto due = t0 + Secs(static_cast<double>(i) / spec.paced_rate);
    if (due >= window_end) break;
    std::this_thread::sleep_until(due);
    const auto start = Clock::now();
    if (due >= window_begin) res.gen_lag_ms.Add(MsBetween(due, start));
    checker.SetStart(i, due);
    const std::uint64_t tag = i % tags;
    const std::uint64_t round = i / tags;
    const net::MeasurementRound& src = in.dataset.rounds[in.LocationOf(tag)];
    for (std::size_t a = 0; a < anchors; ++a) {
      net::TagCsiReportMsg msg{tag, src.reports[a]};
      msg.report.round_id = round;
      const auto s0 = Clock::now();
      if (spec.trace) rig->shim->StampSend(rig->shim->Slot(i, a), s0);
      rig->conns[a]->Send(msg);
      if (spec.trace) send_us.Add(UsBetween(s0, Clock::now()));
    }
    oracle.Attempt();
  }
  res.rounds_sent = i;
  const bool drained = checker.WaitDelivered(i, std::chrono::seconds(60));
  if (!drained) oracle.Fail("drain_timeout");
  if (sampler) sampler->Stop();
  rig->Stop();
  CheckServiceCounters(service.Counters(), /*refusals_fail=*/true, i,
                       checker.delivered(), oracle);

  res.rounds_per_s = checker.WindowRate();
  res.latency_ms = checker.latency_ms();
  // The open loop is honest only if the generator held its schedule.
  res.generator_behind = res.gen_lag_ms.Quantile(0.99) > 2.0;

  if (spec.trace) {
    const obs::Delta delta =
        obs::Delta::Between(before, obs::Snapshot::Capture());
    const obs::CounterDelta* frames =
        delta.FindCounter("net.transport.frames_sent");
    const obs::CounterDelta* bytes =
        delta.FindCounter("net.transport.bytes_sent");
    const Samples transit = rig->shim->transit_us();
    res.layer["net.send_us_p50"] = {send_us.Quantile(0.50), "us"};
    res.layer["net.send_us_p99"] = {send_us.Quantile(0.99), "us"};
    res.layer["net.transit_us_p50"] = {transit.Quantile(0.50), "us"};
    res.layer["net.transit_us_p99"] = {transit.Quantile(0.99), "us"};
    res.layer["net.bytes_per_frame"] = {
        frames != nullptr && frames->delta > 0
            ? static_cast<double>(bytes->delta) /
                  static_cast<double>(frames->delta)
            : 0.0,
        "bytes"};
    SetServeLayer(res, rig->shim->ingest_us(),
                  static_cast<double>(service.Counters().refused_frames) /
                      static_cast<double>(std::max<std::uint64_t>(i, 1)),
                  *sampler, checker.update_latency_ms());
  }
  return res;
}

WorkloadResult RunServeFlood(const StaticInputs& in, const RunSpec& spec,
                             Oracle& oracle) {
  WorkloadResult res;
  const std::size_t tags = spec.serve_tags;
  // Far above any service rate on a small host; the generator stops there.
  const std::size_t capacity = RoundCapacity(spec, 20000.0);
  UpdateChecker checker(in, tags, capacity, oracle);

  std::unique_ptr<serve::LocalizationService> service;
  res.setup_s = MedianOf(spec.setups, [&] {
    service.reset();
    const auto t0 = Clock::now();
    service = std::make_unique<serve::LocalizationService>(
        in.dataset.deployment, in.config, serve::ServiceOptions{});
    service->SetUpdateCallback(
        [&checker](const serve::PositionUpdate& u) { checker.OnUpdate(u); });
    service->Start();
    for (const anchor::CsiReport& report : in.dataset.rounds[0].reports) {
      while (!service->Ingest(kWarmupTag, report)) std::this_thread::yield();
    }
    oracle.Attempt();
    if (!checker.WaitWarm(std::chrono::seconds(30))) oracle.Fail("lost");
    return SecondsBetween(t0, Clock::now());
  });

  checker.set_trace(spec.trace);
  std::unique_ptr<DepthSampler> sampler;
  if (spec.trace) sampler = std::make_unique<DepthSampler>(*service);

  Samples ingest_us;
  std::uint64_t retries = 0;
  const auto t0 = Clock::now();
  const auto window_begin = t0 + Secs(spec.warmup_s);
  const auto window_end =
      window_begin + Secs(spec.seconds);
  checker.SetWindow(window_begin, window_end);
  std::uint64_t i = 0;
  auto prev_end = Clock::now();
  for (; i < capacity; ++i) {
    const auto start = Clock::now();
    if (start >= window_end) break;
    if (start >= window_begin) res.gen_lag_ms.Add(MsBetween(prev_end, start));
    checker.SetStart(i, start);
    const std::uint64_t tag = i % tags;
    const std::uint64_t round = i / tags;
    for (const anchor::CsiReport& report :
         in.dataset.rounds[in.LocationOf(tag)].reports) {
      anchor::CsiReport frame = report;
      frame.round_id = round;
      // A refused frame is retried. The rings hold seconds of work at
      // capacity, so backing off briefly never starves the service and keeps
      // the generator from competing with it for the CPU and the allocator.
      for (std::size_t attempt = 0;; ++attempt) {
        const auto s0 = Clock::now();
        const bool admitted = service->Ingest(tag, frame);
        if (spec.trace) ingest_us.Add(UsBetween(s0, Clock::now()));
        if (admitted) break;
        ++retries;
        if (attempt < 4) {
          std::this_thread::yield();
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
    }
    oracle.Attempt();
    prev_end = Clock::now();
  }
  res.rounds_sent = i;
  const bool drained = checker.WaitDelivered(i, std::chrono::seconds(120));
  if (!drained) oracle.Fail("drain_timeout");
  if (sampler) sampler->Stop();
  service->Stop();
  CheckServiceCounters(service->Counters(), /*refusals_fail=*/false, i,
                       checker.delivered(), oracle);

  res.rounds_per_s = checker.WindowRate();
  res.latency_ms = checker.latency_ms();
  if (spec.trace) {
    SetServeLayer(res, ingest_us,
                  static_cast<double>(retries) /
                      static_cast<double>(std::max<std::uint64_t>(i, 1)),
                  *sampler, checker.update_latency_ms());
  }
  return res;
}

}  // namespace perfbench
