#include <gtest/gtest.h>

#include <limits>

#include "bloc/localizer.h"
#include "sim/experiment.h"
#include "sim/measurement.h"

namespace bloc::core {
namespace {

/// A shared LOS-clean testbed round (built once: full pipeline runs are the
/// expensive part of this suite).
struct LosFixture {
  sim::ScenarioConfig scenario = sim::LosClean(11);
  sim::Testbed testbed{scenario};
  Deployment deployment = testbed.deployment();
  geom::Vec2 tag{2.3, 1.7};
  net::MeasurementRound round;

  LosFixture() {
    sim::MeasurementSimulator simulator(testbed);
    round = simulator.RunRound(tag, 0);
  }
};

const LosFixture& Los() {
  static const LosFixture fixture;
  return fixture;
}

LocalizerConfig BaseConfig() {
  LocalizerConfig config;
  config.grid = sim::RoomGrid(sim::LosClean(11));
  return config;
}

TEST(Localizer, LocatesLosTagAccurately) {
  const Localizer localizer(Los().deployment, BaseConfig());
  const LocationResult result = localizer.Locate(Los().round);
  EXPECT_LT(geom::Distance(result.position, Los().tag), 0.15);
  EXPECT_EQ(result.anchors_used, 4u);
  EXPECT_EQ(result.bands_used, 37u);
}

TEST(Localizer, NanCsiSampleYieldsSentinel) {
  net::MeasurementRound round = Los().round;
  round.reports.back().bands.front().tag_csi.front() = {
      std::numeric_limits<double>::quiet_NaN(), 0.0};
  const Localizer localizer(Los().deployment, BaseConfig());
  const LocationResult result = localizer.Locate(round);
  EXPECT_EQ(result.score, 0.0);
  EXPECT_EQ(result.anchors_used, 0u);
  EXPECT_TRUE(result.peaks.empty());
}

TEST(Localizer, RequiresMasterInDeployment) {
  Deployment dep = Los().deployment;
  for (auto& a : dep.anchors) a.is_master = false;
  EXPECT_THROW(Localizer(dep, BaseConfig()), std::invalid_argument);
}

TEST(Localizer, RejectsInvalidGrid) {
  LocalizerConfig config = BaseConfig();
  config.grid.resolution = -1.0;
  EXPECT_THROW(Localizer(Los().deployment, config), std::invalid_argument);
}

TEST(Localizer, AllowedAnchorsMustIncludeMaster) {
  LocalizerConfig config = BaseConfig();
  config.allowed_anchors = {2, 3};  // master is anchor 1
  EXPECT_THROW(Localizer(Los().deployment, config), std::invalid_argument);
}

TEST(Localizer, AnchorSubsetStillLocates) {
  LocalizerConfig config = BaseConfig();
  config.allowed_anchors = {1, 2, 3};
  const Localizer localizer(Los().deployment, config);
  const LocationResult result = localizer.Locate(Los().round);
  EXPECT_EQ(result.anchors_used, 3u);
  EXPECT_LT(geom::Distance(result.position, Los().tag), 0.3);
}

TEST(Localizer, ChannelSubsetFilters) {
  LocalizerConfig config = BaseConfig();
  config.allowed_channels = {0, 4, 8, 12, 16, 20, 24, 28, 32, 36};
  const Localizer localizer(Los().deployment, config);
  const LocationResult result = localizer.Locate(Los().round);
  EXPECT_EQ(result.bands_used, 10u);
  EXPECT_LT(geom::Distance(result.position, Los().tag), 0.3);
}

TEST(Localizer, AntennaSubsetFilters) {
  LocalizerConfig config = BaseConfig();
  config.max_antennas = 3;
  const Localizer localizer(Los().deployment, config);
  const LocationResult result = localizer.Locate(Los().round);
  EXPECT_LT(geom::Distance(result.position, Los().tag), 0.3);
}

TEST(Localizer, KeepMapExposesFusedLikelihood) {
  LocalizerConfig config = BaseConfig();
  config.keep_map = true;
  const Localizer localizer(Los().deployment, config);
  const LocationResult result = localizer.Locate(Los().round);
  ASSERT_NE(result.fused_map, nullptr);
  // The estimated position must be (near) the map's maximum in LOS.
  const auto cell = result.fused_map->ArgMax();
  EXPECT_NEAR(result.fused_map->XOf(cell.col), result.position.x, 0.5);
  // Without keep_map the map is absent.
  const Localizer no_map(Los().deployment, BaseConfig());
  EXPECT_EQ(no_map.Locate(Los().round).fused_map, nullptr);
}

TEST(Localizer, CorrectedForExposesFilteredBands) {
  LocalizerConfig config = BaseConfig();
  config.allowed_channels = {1, 2, 3};
  const Localizer localizer(Los().deployment, config);
  const CorrectedChannels corrected = localizer.CorrectedFor(Los().round);
  EXPECT_EQ(corrected.num_bands(), 3u);
}

TEST(Localizer, UnknownAnchorInRoundThrows) {
  const Localizer localizer(Los().deployment, BaseConfig());
  net::MeasurementRound round = Los().round;
  round.reports[1].anchor_id = 77;
  EXPECT_THROW(localizer.Locate(round), std::invalid_argument);
}

TEST(Localizer, PeaksArePopulated) {
  const Localizer localizer(Los().deployment, BaseConfig());
  const LocationResult result = localizer.Locate(Los().round);
  ASSERT_FALSE(result.peaks.empty());
  EXPECT_DOUBLE_EQ(result.peaks.front().score, result.score);
}

TEST(Deployment, MasterReferenceDistances) {
  const Deployment& dep = Los().deployment;
  const AnchorPose* master = dep.Master();
  ASSERT_NE(master, nullptr);
  EXPECT_DOUBLE_EQ(dep.MasterReferenceDistance(master->id), 0.0);
  for (const AnchorPose& a : dep.anchors) {
    if (a.id == master->id) continue;
    EXPECT_NEAR(dep.MasterReferenceDistance(a.id),
                geom::Distance(a.geometry.AntennaPosition(0),
                               master->geometry.AntennaPosition(0)),
                1e-12);
  }
  EXPECT_THROW(dep.MasterReferenceDistance(99), std::invalid_argument);
}

TEST(Deployment, AnchorIdsMasterFirst) {
  const auto ids = Los().deployment.AnchorIds();
  ASSERT_EQ(ids.size(), 4u);
  EXPECT_EQ(ids[0], Los().deployment.Master()->id);
}

}  // namespace
}  // namespace bloc::core
