// Message types exchanged between anchors and the central server, with
// length-prefixed, CRC-protected framing.
//
// Frame layout:  [u32 magic][u32 payload_len][u16 type][payload][u32 crc32]
// where the CRC covers type+payload.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "anchor/csi_report.h"
#include "net/wire.h"

namespace bloc::net {

inline constexpr std::uint32_t kFrameMagic = 0xB10C0DE5u;
/// Guard against absurd allocations from corrupt length prefixes.
inline constexpr std::uint32_t kMaxPayloadBytes = 16u * 1024 * 1024;

enum class MessageType : std::uint16_t {
  kAnchorHello = 1,
  kCsiReport = 2,
  kLocationEstimate = 3,
  kTagCsiReport = 4,
};

struct AnchorHelloMsg {
  std::uint32_t anchor_id = 0;
  bool is_master = false;
  double pos_x = 0.0;  // antenna-0 position, for deployment calibration
  double pos_y = 0.0;
  double axis_radians = 0.0;
  std::uint8_t num_antennas = 4;
};

struct CsiReportMsg {
  anchor::CsiReport report;
};

struct LocationEstimateMsg {
  std::uint64_t round_id = 0;
  double x = 0.0;
  double y = 0.0;
  double score = 0.0;
};

/// Multi-tenant report: a CsiReport attributed to one of many tags sharing
/// the anchor infrastructure (serve/service.h routes it by tag id; the
/// report's own round_id scopes the round within that tag's session).
struct TagCsiReportMsg {
  std::uint64_t tag_id = 0;
  anchor::CsiReport report;
};

using Message = std::variant<AnchorHelloMsg, CsiReportMsg, LocationEstimateMsg,
                             TagCsiReportMsg>;

/// Body codec for one CsiReport, shared by the kCsiReport frame payload and
/// the dataset file format (sim/dataset_io.h). Decoding validates length
/// prefixes and throws WireError on truncated or implausible input.
void EncodeCsiReport(const anchor::CsiReport& report, WireWriter& w);
anchor::CsiReport DecodeCsiReport(WireReader& r);

/// One localization round: every anchor's report for one round id.
struct MeasurementRound {
  std::uint64_t round_id = 0;
  std::vector<anchor::CsiReport> reports;  // one per anchor, any order
};

/// Round codec for the dataset file format (sim/dataset_io.h): round id,
/// report count, then each report through the CsiReport body codec.
/// Decoding throws WireError on truncated or implausible input.
void EncodeMeasurementRound(const MeasurementRound& round, WireWriter& w);
MeasurementRound DecodeMeasurementRound(WireReader& r);

/// Serializes a message into a complete frame.
Buffer EncodeFrame(const Message& msg);

/// Attempts to decode one frame from the front of `data`. On success fills
/// `out` and returns the number of bytes consumed; returns 0 when more data
/// is needed. Throws WireError on a corrupt frame (bad magic or CRC).
std::size_t DecodeFrame(std::span<const std::uint8_t> data,
                        std::optional<Message>& out);

/// Incremental frame decoder for stream transports.
class FrameParser {
 public:
  /// Appends received bytes and returns every complete message.
  std::vector<Message> Feed(std::span<const std::uint8_t> bytes);

 private:
  Buffer pending_;
};

}  // namespace bloc::net
