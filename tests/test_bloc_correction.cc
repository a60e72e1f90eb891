#include <gtest/gtest.h>

#include "bloc/corrected_channel.h"
#include "bloc/localizer.h"
#include "dsp/complex_ops.h"
#include "dsp/rng.h"

namespace bloc::core {
namespace {

using dsp::cplx;

/// Synthetic world: arbitrary true channels per (anchor, antenna, band),
/// garbled by per-band random LO phases at the tag and every anchor, as in
/// paper Eqs. 7-9.
struct SyntheticRound {
  net::MeasurementRound round;
  // True physical channels: tag->anchor [anchor][antenna][band] and
  // master->anchor [anchor][antenna][band].
  std::vector<std::vector<dsp::CVec>> h_tag;
  std::vector<std::vector<dsp::CVec>> h_master;
};

SyntheticRound MakeSynthetic(std::uint64_t seed, std::size_t anchors = 3,
                             std::size_t antennas = 4,
                             std::size_t bands = 5) {
  dsp::Rng rng(seed);
  SyntheticRound out;
  out.h_tag.assign(anchors,
                   std::vector<dsp::CVec>(antennas, dsp::CVec(bands)));
  out.h_master.assign(anchors,
                      std::vector<dsp::CVec>(antennas, dsp::CVec(bands)));
  for (auto& per_anchor : out.h_tag) {
    for (auto& per_ant : per_anchor) {
      for (auto& h : per_ant) {
        h = rng.ComplexGaussian(1.0) + cplx{1.5, 0};  // keep away from 0
      }
    }
  }
  for (auto& per_anchor : out.h_master) {
    for (auto& per_ant : per_anchor) {
      for (auto& h : per_ant) {
        h = rng.ComplexGaussian(1.0) + cplx{1.5, 0};
      }
    }
  }

  for (std::size_t k = 0; k < bands; ++k) {
    // Fresh LO phases per band (per frequency retune).
    const double phi_tag = rng.Uniform(0, dsp::kTwoPi);
    std::vector<double> phi_rx(anchors);
    for (auto& p : phi_rx) p = rng.Uniform(0, dsp::kTwoPi);

    for (std::size_t i = 0; i < anchors; ++i) {
      if (k == 0) {
        anchor::CsiReport report;
        report.anchor_id = static_cast<std::uint32_t>(i + 1);
        report.is_master = i == 0;
        report.round_id = 0;
        out.round.reports.push_back(report);
      }
      anchor::BandMeasurement band;
      band.data_channel = static_cast<std::uint8_t>(k);
      band.freq_hz = 2.404e9 + 2e6 * static_cast<double>(k);
      for (std::size_t j = 0; j < antennas; ++j) {
        band.tag_csi.push_back(out.h_tag[i][j][k] *
                               dsp::Rotor(phi_tag - phi_rx[i]));
        if (i != 0) {
          band.master_csi.push_back(out.h_master[i][j][k] *
                                    dsp::Rotor(phi_rx[0] - phi_rx[i]));
        }
      }
      out.round.reports[i].bands.push_back(std::move(band));
    }
  }
  return out;
}

TEST(CorrectedChannels, CancelsAllOffsetsForSlaves) {
  const SyntheticRound s = MakeSynthetic(1);
  const CorrectedChannels corrected = ComputeCorrectedChannels(s.round);
  ASSERT_EQ(corrected.anchors.size(), 3u);
  for (std::size_t i = 1; i < 3; ++i) {  // slave anchors
    const AnchorCorrected& ac = corrected.anchors[i];
    EXPECT_FALSE(ac.is_master);
    for (std::size_t j = 0; j < 4; ++j) {
      for (std::size_t k = 0; k < 5; ++k) {
        // Eq. 10: alpha = h_ij * conj(H_i0) * conj(h_00).
        const cplx expected = s.h_tag[i][j][k] *
                              std::conj(s.h_master[i][0][k]) *
                              std::conj(s.h_tag[0][0][k]);
        EXPECT_NEAR(std::abs(ac.alpha[j][k] - expected), 0.0, 1e-9)
            << "anchor " << i << " ant " << j << " band " << k;
      }
    }
  }
}

TEST(CorrectedChannels, MasterUsesOwnReference) {
  const SyntheticRound s = MakeSynthetic(2);
  const CorrectedChannels corrected = ComputeCorrectedChannels(s.round);
  const AnchorCorrected& master = corrected.anchors[0];
  ASSERT_TRUE(master.is_master);
  for (std::size_t j = 0; j < 4; ++j) {
    for (std::size_t k = 0; k < 5; ++k) {
      const cplx expected =
          s.h_tag[0][j][k] * std::conj(s.h_tag[0][0][k]);
      EXPECT_NEAR(std::abs(master.alpha[j][k] - expected), 0.0, 1e-9);
    }
  }
  // In particular alpha_00 is real positive (|h00|^2): phase zero.
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_NEAR(std::arg(master.alpha[0][k]), 0.0, 1e-9);
  }
}

TEST(CorrectedChannels, BandsSortedByFrequency) {
  const SyntheticRound s = MakeSynthetic(3);
  const CorrectedChannels corrected = ComputeCorrectedChannels(s.round);
  ASSERT_EQ(corrected.num_bands(), 5u);
  for (std::size_t k = 1; k < corrected.num_bands(); ++k) {
    EXPECT_LT(corrected.band_freqs_hz[k - 1], corrected.band_freqs_hz[k]);
  }
}

TEST(CorrectedChannels, UsesOnlyCommonBands) {
  SyntheticRound s = MakeSynthetic(4);
  // Drop band 2 from one slave: it must disappear from the output.
  auto& bands = s.round.reports[1].bands;
  bands.erase(bands.begin() + 2);
  const CorrectedChannels corrected = ComputeCorrectedChannels(s.round);
  EXPECT_EQ(corrected.num_bands(), 4u);
  for (std::uint8_t c : corrected.band_channels) {
    EXPECT_NE(c, 2);
  }
}

TEST(CorrectedChannels, RequiresMaster) {
  SyntheticRound s = MakeSynthetic(5);
  s.round.reports[0].is_master = false;
  EXPECT_THROW(ComputeCorrectedChannels(s.round), std::invalid_argument);
}

TEST(CorrectedChannels, RejectsTwoMasters) {
  SyntheticRound s = MakeSynthetic(6);
  s.round.reports[1].is_master = true;
  EXPECT_THROW(ComputeCorrectedChannels(s.round), std::invalid_argument);
}

TEST(CorrectedChannels, RejectsNoCommonBands) {
  SyntheticRound s = MakeSynthetic(7);
  s.round.reports[1].bands.clear();
  anchor::BandMeasurement stray;
  stray.data_channel = 99;
  stray.freq_hz = 2.48e9;
  stray.tag_csi.assign(4, cplx{1, 0});
  stray.master_csi.assign(4, cplx{1, 0});
  s.round.reports[1].bands.push_back(stray);
  EXPECT_THROW(ComputeCorrectedChannels(s.round), std::invalid_argument);
}

TEST(CorrectedChannels, FirstKeptBandWinsAndFilteredChannelDrops) {
  SyntheticRound s = MakeSynthetic(8);
  // The oracle: the same round without channel 3 and without the repeat.
  net::MeasurementRound clean = s.round;
  for (anchor::CsiReport& report : clean.reports) {
    std::erase_if(report.bands, [](const anchor::BandMeasurement& band) {
      return band.data_channel == 3;
    });
  }
  const CorrectedChannels want = ComputeCorrectedChannels(clean);

  // Slave 2 repeats channel 1 later in its report with other CSI: the first
  // kept entry is the one that counts.
  auto& bands = s.round.reports[2].bands;
  anchor::BandMeasurement repeat = bands[1];
  for (cplx& h : repeat.tag_csi) h *= cplx{0.0, 2.0};
  for (cplx& h : repeat.master_csi) h *= cplx{-1.0, 0.5};
  bands.insert(bands.begin() + 3, repeat);

  Deployment deployment;
  for (std::uint32_t id = 1; id <= 3; ++id) {
    AnchorPose pose;
    pose.id = id;
    pose.is_master = id == 1;
    pose.geometry.origin = {static_cast<double>(id), 0.0};
    deployment.anchors.push_back(pose);
  }
  LocalizerConfig config;
  config.allowed_channels = {0, 1, 2, 4};
  const Localizer localizer(deployment, config);
  RoundView view;
  ASSERT_TRUE(localizer.FilterInto(s.round, view));
  CorrectedChannels got;
  localizer.CorrectInto(view, got);

  EXPECT_EQ(got.band_channels, (std::vector<std::uint8_t>{0, 1, 2, 4}));
  EXPECT_EQ(got.band_channels, want.band_channels);
  EXPECT_EQ(got.band_freqs_hz, want.band_freqs_hz);
  ASSERT_EQ(got.anchors.size(), want.anchors.size());
  for (std::size_t i = 0; i < got.anchors.size(); ++i) {
    EXPECT_EQ(got.anchors[i].anchor_id, want.anchors[i].anchor_id);
    EXPECT_EQ(got.anchors[i].alpha, want.anchors[i].alpha) << "anchor " << i;
  }
}

// Property: the corrected channels are *invariant* to the LO phases — two
// different random offset draws over identical physics give identical alpha.
class OffsetInvarianceTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(OffsetInvarianceTest, AlphaIndependentOfOffsetDraw) {
  // Same seed => same true channels; the offsets inside MakeSynthetic are
  // drawn after the channels from the same stream, so instead we verify
  // against the closed-form expectation (already offset-free).
  const SyntheticRound s = MakeSynthetic(GetParam());
  const CorrectedChannels corrected = ComputeCorrectedChannels(s.round);
  for (std::size_t i = 1; i < 3; ++i) {
    for (std::size_t k = 0; k < 5; ++k) {
      const cplx expected = s.h_tag[i][1][k] *
                            std::conj(s.h_master[i][0][k]) *
                            std::conj(s.h_tag[0][0][k]);
      EXPECT_NEAR(std::abs(corrected.anchors[i].alpha[1][k] - expected), 0.0,
                  1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OffsetInvarianceTest,
                         ::testing::Range<std::uint64_t>(100, 112));

}  // namespace
}  // namespace bloc::core
