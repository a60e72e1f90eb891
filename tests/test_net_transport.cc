#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <variant>
#include <vector>

#include "net/transport.h"

namespace bloc::net {
namespace {

anchor::CsiReport MakeReport(std::uint32_t anchor_id, std::uint64_t round,
                             bool master) {
  anchor::CsiReport report;
  report.anchor_id = anchor_id;
  report.is_master = master;
  report.round_id = round;
  anchor::BandMeasurement band;
  band.data_channel = 1;
  band.freq_hz = 2.406e9;
  band.tag_csi = {{1, 0}};
  if (!master) band.master_csi = {{0.5, 0.5}};
  report.bands.push_back(band);
  return report;
}

AnchorHelloMsg MakeHello(std::uint32_t id, bool master) {
  AnchorHelloMsg hello;
  hello.anchor_id = id;
  hello.is_master = master;
  return hello;
}

/// Records every delivered message in arrival order. TcpServer delivers
/// from its connection threads, so every access takes the mutex.
class RecordingSink : public MessageSink {
 public:
  void OnMessage(const Message& msg) override {
    std::lock_guard lock(mutex_);
    messages_.push_back(msg);
    cv_.notify_all();
  }

  /// Waits until at least `count` messages arrived (generous deadline:
  /// sanitized runs on a loaded machine can starve the server threads for
  /// seconds), then returns a snapshot of everything received.
  std::vector<Message> WaitFor(std::size_t count, int timeout_ms = 10000) {
    std::unique_lock lock(mutex_);
    cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                 [&] { return messages_.size() >= count; });
    return messages_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Message> messages_;
};

TEST(InProcTransport, DeliversThroughCodec) {
  RecordingSink sink;
  InProcTransport transport(sink);
  transport.Send(MakeHello(5, true));
  transport.Send(CsiReportMsg{MakeReport(5, 3, true)});
  const std::vector<Message> got = sink.WaitFor(2, 0);
  ASSERT_EQ(got.size(), 2u);
  const auto* hello = std::get_if<AnchorHelloMsg>(&got[0]);
  ASSERT_NE(hello, nullptr);
  EXPECT_EQ(hello->anchor_id, 5u);
  EXPECT_TRUE(hello->is_master);
  const auto* report = std::get_if<CsiReportMsg>(&got[1]);
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->report.round_id, 3u);
  EXPECT_EQ(report->report.anchor_id, 5u);
  EXPECT_EQ(report->report.bands[0].tag_csi[0], (dsp::cplx{1, 0}));
}

TEST(TcpTransport, EndToEndOverLoopback) {
  RecordingSink sink;
  TcpServer server(sink, 0);
  ASSERT_GT(server.port(), 0);

  // Two "anchors" connect and stream hello + report.
  TcpTransport anchor1("127.0.0.1", server.port());
  TcpTransport anchor2("127.0.0.1", server.port());
  anchor1.Send(MakeHello(1, true));
  anchor2.Send(MakeHello(2, false));
  anchor1.Send(CsiReportMsg{MakeReport(1, 0, true)});
  anchor2.Send(CsiReportMsg{MakeReport(2, 0, false)});

  const std::vector<Message> got = sink.WaitFor(4);
  ASSERT_EQ(got.size(), 4u);
  // The two connections interleave arbitrarily, but each one is FIFO: an
  // anchor's hello arrives before its report.
  std::vector<std::uint32_t> hellos, reports;
  for (const Message& msg : got) {
    if (const auto* hello = std::get_if<AnchorHelloMsg>(&msg)) {
      EXPECT_EQ(std::count(reports.begin(), reports.end(), hello->anchor_id),
                0)
          << "anchor " << hello->anchor_id << " report overtook its hello";
      hellos.push_back(hello->anchor_id);
    } else if (const auto* report = std::get_if<CsiReportMsg>(&msg)) {
      EXPECT_EQ(report->report.round_id, 0u);
      reports.push_back(report->report.anchor_id);
    }
  }
  std::sort(hellos.begin(), hellos.end());
  std::sort(reports.begin(), reports.end());
  EXPECT_EQ(hellos, (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(reports, (std::vector<std::uint32_t>{1, 2}));
  server.Stop();
}

TEST(TcpTransport, ManyMessagesOneConnection) {
  RecordingSink sink;
  TcpServer server(sink, 0);
  TcpTransport anchor("127.0.0.1", server.port());
  anchor.Send(MakeHello(1, true));
  for (std::uint64_t r = 0; r < 50; ++r) {
    anchor.Send(CsiReportMsg{MakeReport(1, r, true)});
  }
  const std::vector<Message> got = sink.WaitFor(51);
  ASSERT_EQ(got.size(), 51u);
  EXPECT_TRUE(std::holds_alternative<AnchorHelloMsg>(got[0]));
  for (std::uint64_t r = 0; r < 50; ++r) {
    const auto* report = std::get_if<CsiReportMsg>(&got[r + 1]);
    ASSERT_NE(report, nullptr) << "message " << r + 1;
    EXPECT_EQ(report->report.round_id, r) << "one connection is FIFO";
  }
  server.Stop();
}

TEST(TcpTransport, ConnectFailureThrows) {
  // Port 1 on loopback is almost certainly closed.
  EXPECT_THROW(TcpTransport("127.0.0.1", 1), std::system_error);
  EXPECT_THROW(TcpTransport("not-an-ip", 80), std::invalid_argument);
}

TEST(TcpServer, StopIsIdempotent) {
  RecordingSink sink;
  TcpServer server(sink, 0);
  server.Stop();
  EXPECT_NO_THROW(server.Stop());
}

TEST(TcpServer, SurvivesClientDisconnect) {
  RecordingSink sink;
  TcpServer server(sink, 0);
  {
    TcpTransport transient("127.0.0.1", server.port());
    transient.Send(MakeHello(9, false));
  }  // destructor closes the socket
  // Server keeps accepting.
  TcpTransport another("127.0.0.1", server.port());
  another.Send(MakeHello(10, true));
  const std::vector<Message> got = sink.WaitFor(2);
  std::vector<std::uint32_t> hellos;
  for (const Message& msg : got) {
    if (const auto* hello = std::get_if<AnchorHelloMsg>(&msg)) {
      hellos.push_back(hello->anchor_id);
    }
  }
  std::sort(hellos.begin(), hellos.end());
  EXPECT_EQ(hellos, (std::vector<std::uint32_t>{9, 10}));
  server.Stop();
}

}  // namespace
}  // namespace bloc::net
