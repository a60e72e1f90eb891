#include "net/messages.h"

#include <cstring>

namespace bloc::net {

namespace {

void EncodeBody(const AnchorHelloMsg& m, WireWriter& w) {
  w.U32(m.anchor_id);
  w.Bool(m.is_master);
  w.F64(m.pos_x);
  w.F64(m.pos_y);
  w.F64(m.axis_radians);
  w.U8(m.num_antennas);
}

AnchorHelloMsg DecodeHello(WireReader& r) {
  AnchorHelloMsg m;
  m.anchor_id = r.U32();
  m.is_master = r.Bool();
  m.pos_x = r.F64();
  m.pos_y = r.F64();
  m.axis_radians = r.F64();
  m.num_antennas = r.U8();
  return m;
}

void EncodeBody(const CsiReportMsg& m, WireWriter& w) {
  EncodeCsiReport(m.report, w);
}

CsiReportMsg DecodeReport(WireReader& r) { return CsiReportMsg{DecodeCsiReport(r)}; }

void EncodeBody(const LocationEstimateMsg& m, WireWriter& w) {
  w.U64(m.round_id);
  w.F64(m.x);
  w.F64(m.y);
  w.F64(m.score);
}

LocationEstimateMsg DecodeEstimate(WireReader& r) {
  LocationEstimateMsg m;
  m.round_id = r.U64();
  m.x = r.F64();
  m.y = r.F64();
  m.score = r.F64();
  return m;
}

void EncodeBody(const TagCsiReportMsg& m, WireWriter& w) {
  w.U64(m.tag_id);
  EncodeCsiReport(m.report, w);
}

TagCsiReportMsg DecodeTagReport(WireReader& r) {
  TagCsiReportMsg m;
  m.tag_id = r.U64();
  m.report = DecodeCsiReport(r);
  return m;
}

MessageType TypeOf(const Message& msg) {
  if (std::holds_alternative<AnchorHelloMsg>(msg)) {
    return MessageType::kAnchorHello;
  }
  if (std::holds_alternative<CsiReportMsg>(msg)) return MessageType::kCsiReport;
  if (std::holds_alternative<TagCsiReportMsg>(msg)) {
    return MessageType::kTagCsiReport;
  }
  return MessageType::kLocationEstimate;
}

}  // namespace

void EncodeCsiReport(const anchor::CsiReport& report, WireWriter& w) {
  w.U32(report.anchor_id);
  w.Bool(report.is_master);
  w.U64(report.round_id);
  w.U32(static_cast<std::uint32_t>(report.bands.size()));
  for (const anchor::BandMeasurement& b : report.bands) {
    w.U8(b.data_channel);
    w.F64(b.freq_hz);
    w.ComplexVector(b.tag_csi);
    w.ComplexVector(b.master_csi);
    w.F64(b.rssi_db);
  }
}

anchor::CsiReport DecodeCsiReport(WireReader& r) {
  anchor::CsiReport report;
  report.anchor_id = r.U32();
  report.is_master = r.Bool();
  report.round_id = r.U64();
  const std::uint32_t n = r.U32();
  if (n > 4096) throw WireError("CsiReport: implausible band count");
  report.bands.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    anchor::BandMeasurement b;
    b.data_channel = r.U8();
    b.freq_hz = r.F64();
    b.tag_csi = r.ComplexVector();
    b.master_csi = r.ComplexVector();
    b.rssi_db = r.F64();
    report.bands.push_back(std::move(b));
  }
  return report;
}

void EncodeMeasurementRound(const MeasurementRound& round, WireWriter& w) {
  w.U64(round.round_id);
  w.U32(static_cast<std::uint32_t>(round.reports.size()));
  for (const anchor::CsiReport& report : round.reports) {
    EncodeCsiReport(report, w);
  }
}

MeasurementRound DecodeMeasurementRound(WireReader& r) {
  MeasurementRound round;
  round.round_id = r.U64();
  const std::uint32_t n = r.U32();
  if (n > 1024) throw WireError("MeasurementRound: implausible report count");
  round.reports.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    round.reports.push_back(DecodeCsiReport(r));
  }
  return round;
}

Buffer EncodeFrame(const Message& msg) {
  WireWriter body;
  body.U16(static_cast<std::uint16_t>(TypeOf(msg)));
  std::visit([&](const auto& m) { EncodeBody(m, body); }, msg);
  const Buffer& inner = body.buffer();

  WireWriter frame;
  frame.U32(kFrameMagic);
  frame.U32(static_cast<std::uint32_t>(inner.size()));
  Buffer out = frame.Take();
  out.insert(out.end(), inner.begin(), inner.end());
  WireWriter crc;
  crc.U32(Crc32(inner));
  const Buffer& crc_bytes = crc.buffer();
  out.insert(out.end(), crc_bytes.begin(), crc_bytes.end());
  return out;
}

std::size_t DecodeFrame(std::span<const std::uint8_t> data,
                        std::optional<Message>& out) {
  out.reset();
  constexpr std::size_t kHeader = 8;
  if (data.size() < kHeader) return 0;
  WireReader header(data.subspan(0, kHeader));
  if (header.U32() != kFrameMagic) throw WireError("frame: bad magic");
  const std::uint32_t len = header.U32();
  if (len < 2 || len > kMaxPayloadBytes) {
    throw WireError("frame: implausible length");
  }
  const std::size_t total = kHeader + len + 4;
  if (data.size() < total) return 0;

  const auto inner = data.subspan(kHeader, len);
  WireReader crc_reader(data.subspan(kHeader + len, 4));
  if (crc_reader.U32() != Crc32(inner)) throw WireError("frame: bad CRC");

  WireReader body(inner);
  const auto type = static_cast<MessageType>(body.U16());
  switch (type) {
    case MessageType::kAnchorHello:
      out = DecodeHello(body);
      break;
    case MessageType::kCsiReport:
      out = DecodeReport(body);
      break;
    case MessageType::kLocationEstimate:
      out = DecodeEstimate(body);
      break;
    case MessageType::kTagCsiReport:
      out = DecodeTagReport(body);
      break;
    default:
      throw WireError("frame: unknown message type");
  }
  return total;
}

std::vector<Message> FrameParser::Feed(std::span<const std::uint8_t> bytes) {
  pending_.insert(pending_.end(), bytes.begin(), bytes.end());
  std::vector<Message> out;
  std::size_t offset = 0;
  while (true) {
    std::optional<Message> msg;
    const std::size_t used =
        DecodeFrame(std::span(pending_).subspan(offset), msg);
    if (used == 0) break;
    out.push_back(std::move(*msg));
    offset += used;
  }
  if (offset > 0) {
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(offset));
  }
  return out;
}

}  // namespace bloc::net
