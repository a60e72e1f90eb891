#include <gtest/gtest.h>

#include "net/messages.h"

namespace bloc::net {
namespace {

anchor::CsiReport SampleReport() {
  anchor::CsiReport report;
  report.anchor_id = 3;
  report.is_master = false;
  report.round_id = 99;
  for (int b = 0; b < 3; ++b) {
    anchor::BandMeasurement band;
    band.data_channel = static_cast<std::uint8_t>(b * 7);
    band.freq_hz = 2.404e9 + 2e6 * b;
    band.tag_csi = {{1.0, -0.5}, {0.2, 0.3}, {0, 0}, {-1, 1}};
    band.master_csi = {{0.1, 0.1}, {0.2, 0.2}, {0.3, 0.3}, {0.4, 0.4}};
    band.rssi_db = -42.5 + b;
    report.bands.push_back(band);
  }
  return report;
}

TEST(Messages, HelloRoundTrip) {
  AnchorHelloMsg hello;
  hello.anchor_id = 7;
  hello.is_master = true;
  hello.pos_x = 3.25;
  hello.pos_y = -1.5;
  hello.axis_radians = 0.7;
  hello.num_antennas = 4;
  const Buffer frame = EncodeFrame(hello);
  std::optional<Message> decoded;
  EXPECT_EQ(DecodeFrame(frame, decoded), frame.size());
  ASSERT_TRUE(decoded.has_value());
  const auto& out = std::get<AnchorHelloMsg>(*decoded);
  EXPECT_EQ(out.anchor_id, 7u);
  EXPECT_TRUE(out.is_master);
  EXPECT_DOUBLE_EQ(out.pos_x, 3.25);
  EXPECT_DOUBLE_EQ(out.axis_radians, 0.7);
}

TEST(Messages, CsiReportRoundTrip) {
  const anchor::CsiReport report = SampleReport();
  const Buffer frame = EncodeFrame(CsiReportMsg{report});
  std::optional<Message> decoded;
  EXPECT_EQ(DecodeFrame(frame, decoded), frame.size());
  const auto& out = std::get<CsiReportMsg>(*decoded).report;
  EXPECT_EQ(out.anchor_id, report.anchor_id);
  EXPECT_EQ(out.round_id, report.round_id);
  ASSERT_EQ(out.bands.size(), report.bands.size());
  for (std::size_t b = 0; b < out.bands.size(); ++b) {
    EXPECT_EQ(out.bands[b].data_channel, report.bands[b].data_channel);
    EXPECT_DOUBLE_EQ(out.bands[b].freq_hz, report.bands[b].freq_hz);
    EXPECT_EQ(out.bands[b].tag_csi, report.bands[b].tag_csi);
    EXPECT_EQ(out.bands[b].master_csi, report.bands[b].master_csi);
    EXPECT_DOUBLE_EQ(out.bands[b].rssi_db, report.bands[b].rssi_db);
  }
}

TEST(Messages, EstimateRoundTrip) {
  LocationEstimateMsg est;
  est.round_id = 5;
  est.x = 1.25;
  est.y = 3.5;
  est.score = 0.875;
  const Buffer frame = EncodeFrame(est);
  std::optional<Message> decoded;
  DecodeFrame(frame, decoded);
  const auto& out = std::get<LocationEstimateMsg>(*decoded);
  EXPECT_EQ(out.round_id, 5u);
  EXPECT_DOUBLE_EQ(out.x, 1.25);
  EXPECT_DOUBLE_EQ(out.score, 0.875);
}

TEST(Messages, IncompleteFrameReturnsZero) {
  const Buffer frame = EncodeFrame(LocationEstimateMsg{});
  std::optional<Message> decoded;
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    const auto partial = std::span(frame).subspan(0, cut);
    EXPECT_EQ(DecodeFrame(partial, decoded), 0u) << "cut=" << cut;
    EXPECT_FALSE(decoded.has_value());
  }
}

TEST(Messages, BadMagicThrows) {
  Buffer frame = EncodeFrame(LocationEstimateMsg{});
  frame[0] ^= 0xFF;
  std::optional<Message> decoded;
  EXPECT_THROW(DecodeFrame(frame, decoded), WireError);
}

TEST(Messages, CorruptPayloadFailsCrc) {
  Buffer frame = EncodeFrame(LocationEstimateMsg{});
  frame[12] ^= 0x01;  // inside the body
  std::optional<Message> decoded;
  EXPECT_THROW(DecodeFrame(frame, decoded), WireError);
}

TEST(Messages, ImplausibleLengthThrows) {
  Buffer frame = EncodeFrame(LocationEstimateMsg{});
  // Overwrite the length field with something enormous.
  frame[4] = 0xFF;
  frame[5] = 0xFF;
  frame[6] = 0xFF;
  frame[7] = 0x7F;
  std::optional<Message> decoded;
  EXPECT_THROW(DecodeFrame(frame, decoded), WireError);
}

MeasurementRound SampleRound() {
  MeasurementRound round;
  round.round_id = 42;
  round.reports.push_back(SampleReport());
  anchor::CsiReport master = SampleReport();
  master.anchor_id = 0;
  master.is_master = true;
  for (auto& band : master.bands) band.master_csi.clear();
  round.reports.push_back(master);
  return round;
}

TEST(MeasurementRoundCodec, RoundTrip) {
  const MeasurementRound round = SampleRound();
  WireWriter w;
  EncodeMeasurementRound(round, w);
  WireReader r(w.buffer());
  const MeasurementRound out = DecodeMeasurementRound(r);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(out.round_id, round.round_id);
  ASSERT_EQ(out.reports.size(), round.reports.size());
  for (std::size_t i = 0; i < out.reports.size(); ++i) {
    EXPECT_EQ(out.reports[i].anchor_id, round.reports[i].anchor_id);
    EXPECT_EQ(out.reports[i].is_master, round.reports[i].is_master);
    ASSERT_EQ(out.reports[i].bands.size(), round.reports[i].bands.size());
    for (std::size_t b = 0; b < out.reports[i].bands.size(); ++b) {
      EXPECT_EQ(out.reports[i].bands[b].tag_csi,
                round.reports[i].bands[b].tag_csi);
      EXPECT_EQ(out.reports[i].bands[b].master_csi,
                round.reports[i].bands[b].master_csi);
    }
  }
}

// Fuzz-style robustness (run under ASan/UBSan in CI): hostile bytes must
// produce WireError or a valid decode — never a crash, hang or huge
// allocation.

TEST(MeasurementRoundCodec, EveryTruncationThrowsWireError) {
  WireWriter w;
  EncodeMeasurementRound(SampleRound(), w);
  const Buffer& bytes = w.buffer();
  // The encoding is self-delimiting, so any strict prefix must run out of
  // bytes mid-field and throw.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    WireReader r{std::span(bytes).first(cut)};
    EXPECT_THROW(DecodeMeasurementRound(r), WireError) << "cut=" << cut;
  }
}

TEST(MeasurementRoundCodec, BitFlipsNeverCrash) {
  WireWriter w;
  EncodeMeasurementRound(SampleRound(), w);
  const Buffer original = w.buffer();
  for (std::size_t byte = 0; byte < original.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Buffer mutated = original;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      WireReader r(mutated);
      try {
        const MeasurementRound out = DecodeMeasurementRound(r);
        // A flip inside a CSI value decodes fine; sanity-bound the result
        // so a count corruption can't masquerade as success.
        EXPECT_LE(out.reports.size(), 1024u);
      } catch (const WireError&) {
        // Expected for flips in counts, lengths or structure.
      }
    }
  }
}

TEST(MeasurementRoundCodec, ImplausibleReportCountThrows) {
  WireWriter w;
  w.U64(1);          // round id
  w.U32(100000000);  // report count far beyond any deployment
  WireReader r(w.buffer());
  EXPECT_THROW(DecodeMeasurementRound(r), WireError);
}

TEST(FrameParser, ReassemblesSplitStream) {
  const Buffer f1 = EncodeFrame(LocationEstimateMsg{1, 1.0, 2.0, 0.5});
  const Buffer f2 = EncodeFrame(CsiReportMsg{SampleReport()});
  Buffer stream = f1;
  stream.insert(stream.end(), f2.begin(), f2.end());

  FrameParser parser;
  std::vector<Message> all;
  // Feed in 7-byte chunks to exercise reassembly.
  for (std::size_t off = 0; off < stream.size(); off += 7) {
    const auto chunk =
        std::span(stream).subspan(off, std::min<std::size_t>(
                                           7, stream.size() - off));
    for (auto& m : parser.Feed(chunk)) all.push_back(std::move(m));
  }
  ASSERT_EQ(all.size(), 2u);
  EXPECT_TRUE(std::holds_alternative<LocationEstimateMsg>(all[0]));
  EXPECT_TRUE(std::holds_alternative<CsiReportMsg>(all[1]));
}

TEST(FrameParser, MultipleFramesInOneFeed) {
  Buffer stream;
  for (int i = 0; i < 5; ++i) {
    const Buffer f = EncodeFrame(
        LocationEstimateMsg{static_cast<std::uint64_t>(i), 0, 0, 0});
    stream.insert(stream.end(), f.begin(), f.end());
  }
  FrameParser parser;
  const auto messages = parser.Feed(stream);
  ASSERT_EQ(messages.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(std::get<LocationEstimateMsg>(messages[static_cast<std::size_t>(
                                                i)])
                  .round_id,
              static_cast<std::uint64_t>(i));
  }
}

}  // namespace
}  // namespace bloc::net
