// RSSI fingerprinting baseline (paper §1/§9.2): the incumbent BLE
// localization approach. A site survey records per-anchor RSSI vectors at
// known positions; at query time the k nearest fingerprints in signal space
// vote for the location. Accurate enough when the environment is frozen —
// and exactly as fragile as the paper claims when furniture moves, which
// bench_ablation_fingerprint demonstrates against BLoc's training-free
// geometry.
#pragma once

#include <cstddef>
#include <vector>

#include "geom/vec2.h"
#include "net/messages.h"

namespace bloc::baseline {

struct FingerprintConfig {
  /// Neighbours used in the k-NN vote.
  std::size_t k = 3;
};

class RssiFingerprint {
 public:
  explicit RssiFingerprint(FingerprintConfig config = {});

  /// Records one survey point: the tag's known position and the measured
  /// round at that position. Feature = mean RSSI per anchor (sorted by
  /// anchor id), averaged over all bands.
  void Train(const geom::Vec2& position, const net::MeasurementRound& round);

  /// k-NN regression in RSSI space: inverse-distance-weighted average of
  /// the nearest surveyed positions. Throws if untrained.
  geom::Vec2 Locate(const net::MeasurementRound& round) const;

  std::size_t TrainingSize() const { return entries_.size(); }

  /// The RSSI feature vector for a round (exposed for tests).
  static std::vector<double> Feature(const net::MeasurementRound& round);

 private:
  struct Entry {
    geom::Vec2 position;
    std::vector<double> feature;
  };
  FingerprintConfig config_;
  std::vector<Entry> entries_;
};

}  // namespace bloc::baseline
