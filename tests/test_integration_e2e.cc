// End-to-end integration: the whole stack — link-layer hopping, GFSK/CSI
// measurement, LO impairments, the wire codec, corrected channels,
// likelihood fusion, multipath rejection — reproduced on a small dataset.
// Asserts the paper's *ordering* results hold (BLoc beats the
// naive shortest-distance selector and the AoA baseline), not absolute
// centimetres, so the suite stays robust to re-calibration.
#include <gtest/gtest.h>

#include "eval/metrics.h"
#include "sim/experiment.h"

namespace bloc {
namespace {

const sim::Dataset& PaperDataset() {
  static const sim::Dataset ds = [] {
    sim::DatasetOptions options;
    options.locations = 24;
    return sim::GenerateDataset(sim::PaperTestbed(17), options);
  }();
  return ds;
}

TEST(EndToEnd, BlocAchievesReasonableAccuracy) {
  const auto errors =
      sim::EvaluateBloc(PaperDataset(), sim::PaperLocalizerConfig(PaperDataset()));
  const auto stats = eval::ComputeStats(errors);
  // Paper band: 86 cm median in a multipath-rich room. Allow generous
  // slack for the small sample.
  EXPECT_LT(stats.median, 1.5);
  EXPECT_GT(stats.median, 0.05);  // not implausibly perfect
}

TEST(EndToEnd, BlocBeatsShortestDistanceSelector) {
  auto config = sim::PaperLocalizerConfig(PaperDataset());
  const auto bloc = sim::EvaluateBloc(PaperDataset(), config);
  config.scoring.mode = core::SelectionMode::kShortestDistance;
  const auto naive = sim::EvaluateBloc(PaperDataset(), config);
  EXPECT_LT(eval::ComputeStats(bloc).median,
            eval::ComputeStats(naive).median);
}

TEST(EndToEnd, BlocBeatsAoaBaseline) {
  const auto bloc =
      sim::EvaluateBloc(PaperDataset(), sim::PaperLocalizerConfig(PaperDataset()));
  baseline::AoaBaselineConfig aoa;
  aoa.grid = PaperDataset().room_grid;
  const auto base = sim::EvaluateAoa(PaperDataset(), aoa);
  EXPECT_LT(eval::ComputeStats(bloc).median,
            eval::ComputeStats(base).median);
}

TEST(EndToEnd, SubsamplingChannelsBarelyHurts) {
  auto config = sim::PaperLocalizerConfig(PaperDataset());
  const auto full = sim::EvaluateBloc(PaperDataset(), config);
  for (std::uint8_t c = 0; c < 37; c += 2) {
    config.allowed_channels.push_back(c);
  }
  const auto sub = sim::EvaluateBloc(PaperDataset(), config);
  EXPECT_LT(eval::ComputeStats(sub).median,
            eval::ComputeStats(full).median + 0.4);
}

TEST(EndToEnd, BandwidthReductionHurtsTail) {
  auto config = sim::PaperLocalizerConfig(PaperDataset());
  const auto full = sim::EvaluateBloc(PaperDataset(), config);
  config.allowed_channels = {18};  // single 2 MHz channel
  const auto narrow = sim::EvaluateBloc(PaperDataset(), config);
  EXPECT_LE(eval::ComputeStats(full).p90,
            eval::ComputeStats(narrow).p90 + 0.1);
}

TEST(EndToEnd, DeterministicAcrossRuns) {
  sim::DatasetOptions options;
  options.locations = 2;
  const sim::Dataset a = sim::GenerateDataset(sim::PaperTestbed(23), options);
  const sim::Dataset b = sim::GenerateDataset(sim::PaperTestbed(23), options);
  const auto ea = sim::EvaluateBloc(a, sim::PaperLocalizerConfig(a));
  const auto eb = sim::EvaluateBloc(b, sim::PaperLocalizerConfig(b));
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_DOUBLE_EQ(ea[i], eb[i]);
  }
}

TEST(EndToEnd, FullPhyPipelineLocalizes) {
  // Waveform-level end to end on a couple of locations (slow path).
  sim::ScenarioConfig cfg = sim::LosClean(29);
  cfg.mode = sim::MeasurementMode::kFullPhy;
  sim::DatasetOptions options;
  options.locations = 2;
  const sim::Dataset ds = sim::GenerateDataset(cfg, options);
  const auto errors = sim::EvaluateBloc(ds, sim::PaperLocalizerConfig(ds));
  for (double e : errors) {
    EXPECT_LT(e, 0.3);
  }
}

}  // namespace
}  // namespace bloc
