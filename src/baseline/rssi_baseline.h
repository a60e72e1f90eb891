// The RSSI trilateration baseline the paper's introduction argues against:
// a log-distance path-loss model inverts mean received power per anchor
// into a range estimate, and a grid search finds the point minimizing the
// squared range residuals. Multipath fading corrupts the power readings,
// which is why this family of methods is inaccurate.
#pragma once

#include <cstdint>
#include <vector>

#include "bloc/calibration.h"
#include "dsp/grid2d.h"
#include "geom/vec2.h"
#include "net/messages.h"

namespace bloc::baseline {

struct RssiBaselineConfig {
  dsp::GridSpec grid{0.0, 0.0, 6.0, 5.0, 0.075};
  /// Log-distance model rssi(d) = rssi_at_1m - 10 * exponent * log10(d).
  double rssi_at_1m_db = 0.0;
  double path_loss_exponent = 2.0;
};

struct RssiResult {
  geom::Vec2 position;
  /// Per-anchor range estimates (metres), anchor order as in the round.
  std::vector<double> ranges;
};

class RssiBaseline {
 public:
  RssiBaseline(core::Deployment deployment, RssiBaselineConfig config);

  RssiResult Locate(const net::MeasurementRound& round) const;

  /// Inverts the path-loss model: range for a mean RSSI reading.
  double RangeFromRssi(double rssi_db) const;

 private:
  core::Deployment deployment_;
  RssiBaselineConfig config_;
};

}  // namespace bloc::baseline
