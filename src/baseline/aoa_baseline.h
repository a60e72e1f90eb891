// The state-of-the-art comparison scheme of the paper (§7): AoA-combining
// localization in the style of SpotFi/ArrayTrack.
//
// Each anchor computes an angle-of-arrival pseudospectrum from its antenna
// array (per band, summed incoherently across bands — the random per-band
// phase offsets are common to all antennas of an anchor, so AoA survives
// without BLoc's correction). The per-anchor *strongest bearing* is
// extracted and the bearing lines are triangulated by least squares
// (kPeakTriangulation, the paper-faithful baseline: one reflected bearing
// ruins the fix). A soft variant that fuses full angular likelihood maps on
// a grid (kMapFusion) is provided as a stronger-than-paper ablation.
// No wideband distance information is available to either variant, which is
// exactly why they suffer in multipath.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bloc/calibration.h"
#include "dsp/grid2d.h"
#include "geom/vec2.h"
#include "net/messages.h"

namespace bloc::baseline {

enum class AoaMethod {
  kBartlett,  // classic delay-and-sum (paper Eq. 3)
  kMusic,     // subspace method, covariance averaged across bands
};

enum class AoaCombining {
  kPeakTriangulation,  // discrete bearing per anchor + least squares
  kMapFusion,          // sum of per-anchor angular likelihood maps
};

struct AoaBaselineConfig {
  dsp::GridSpec grid{0.0, 0.0, 6.0, 5.0, 0.075};
  AoaMethod method = AoaMethod::kBartlett;
  AoaCombining combining = AoaCombining::kPeakTriangulation;
  /// Assumed signal-subspace dimension for MUSIC.
  std::size_t music_sources = 2;
  /// sin(theta) scan resolution for bearing extraction.
  std::size_t bearing_bins = 181;
  std::size_t max_antennas = 0;                  // 0 = all
  std::vector<std::uint8_t> allowed_channels;    // empty = all
  std::vector<std::uint32_t> allowed_anchors;    // empty = all
  bool keep_map = false;                         // kMapFusion only
};

struct AnchorBearing {
  std::uint32_t anchor_id = 0;
  /// sin(theta) of the strongest spectrum peak (theta from boresight).
  double sin_theta = 0.0;
  /// World-frame unit direction of the bearing (front side of the array).
  geom::Vec2 direction;
  /// Array reference point the bearing emanates from.
  geom::Vec2 origin;
  /// Peak spectrum value (used as the triangulation weight).
  double strength = 0.0;
};

struct AoaResult {
  geom::Vec2 position;
  std::vector<AnchorBearing> bearings;           // kPeakTriangulation
  std::shared_ptr<const dsp::Grid2D> fused_map;  // kMapFusion + keep_map
};

class AoaBaseline {
 public:
  AoaBaseline(core::Deployment deployment, AoaBaselineConfig config);

  AoaResult Locate(const net::MeasurementRound& round) const;

  /// The strongest bearing of one anchor (exposed for tests/examples).
  AnchorBearing Bearing(const anchor::CsiReport& report,
                        const core::AnchorPose& pose) const;

  /// Per-anchor bearing likelihood mapped over the grid (peak-normalized).
  dsp::Grid2D AnchorBearingMap(const anchor::CsiReport& report,
                               const core::AnchorPose& pose) const;

  /// The 1-D pseudospectrum over sin(theta) in [-1, 1] for one anchor.
  dsp::RVec BearingSpectrum(const anchor::CsiReport& report,
                            const core::AnchorPose& pose) const;

 private:
  core::Deployment deployment_;
  AoaBaselineConfig config_;
};

/// Least-squares intersection of weighted bearing lines; falls back to the
/// centroid of the anchor origins when the lines are near-parallel.
geom::Vec2 TriangulateBearings(const std::vector<AnchorBearing>& bearings);

}  // namespace bloc::baseline
