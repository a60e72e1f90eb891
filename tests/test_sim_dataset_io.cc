#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/dataset_io.h"
#include "sim/experiment.h"

namespace bloc::sim {
namespace {

namespace fs = std::filesystem;

/// Small but fully representative dataset: the paper testbed with a reduced
/// channel map and a coarse grid, so serialization + evaluation stay fast.
DatasetOptions SmallOptions() {
  DatasetOptions options;
  options.locations = 3;
  options.grid_resolution = 0.15;
  options.channel_map = link::ChannelMap::Subsampled(6);
  return options;
}

Dataset SmallDataset(std::uint64_t seed = 9) {
  return GenerateDataset(PaperTestbed(seed), SmallOptions());
}

void ExpectDatasetsBitIdentical(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.deployment.anchors.size(), b.deployment.anchors.size());
  for (std::size_t i = 0; i < a.deployment.anchors.size(); ++i) {
    const core::AnchorPose& pa = a.deployment.anchors[i];
    const core::AnchorPose& pb = b.deployment.anchors[i];
    EXPECT_EQ(pa.id, pb.id);
    EXPECT_EQ(pa.is_master, pb.is_master);
    EXPECT_EQ(pa.geometry.origin.x, pb.geometry.origin.x);
    EXPECT_EQ(pa.geometry.origin.y, pb.geometry.origin.y);
    EXPECT_EQ(pa.geometry.axis_radians, pb.geometry.axis_radians);
    EXPECT_EQ(pa.geometry.spacing_m, pb.geometry.spacing_m);
    EXPECT_EQ(pa.geometry.num_antennas, pb.geometry.num_antennas);
  }
  EXPECT_EQ(a.room_grid.x_min, b.room_grid.x_min);
  EXPECT_EQ(a.room_grid.y_min, b.room_grid.y_min);
  EXPECT_EQ(a.room_grid.x_max, b.room_grid.x_max);
  EXPECT_EQ(a.room_grid.y_max, b.room_grid.y_max);
  EXPECT_EQ(a.room_grid.resolution, b.room_grid.resolution);
  ASSERT_EQ(a.truths.size(), b.truths.size());
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.truths[i].x, b.truths[i].x);
    EXPECT_EQ(a.truths[i].y, b.truths[i].y);
    const net::MeasurementRound& ra = a.rounds[i];
    const net::MeasurementRound& rb = b.rounds[i];
    EXPECT_EQ(ra.round_id, rb.round_id);
    ASSERT_EQ(ra.reports.size(), rb.reports.size());
    for (std::size_t j = 0; j < ra.reports.size(); ++j) {
      EXPECT_EQ(ra.reports[j].anchor_id, rb.reports[j].anchor_id);
      EXPECT_EQ(ra.reports[j].is_master, rb.reports[j].is_master);
      EXPECT_EQ(ra.reports[j].round_id, rb.reports[j].round_id);
      ASSERT_EQ(ra.reports[j].bands.size(), rb.reports[j].bands.size());
      for (std::size_t k = 0; k < ra.reports[j].bands.size(); ++k) {
        const anchor::BandMeasurement& ba = ra.reports[j].bands[k];
        const anchor::BandMeasurement& bb = rb.reports[j].bands[k];
        EXPECT_EQ(ba.data_channel, bb.data_channel);
        EXPECT_EQ(ba.freq_hz, bb.freq_hz);
        EXPECT_EQ(ba.tag_csi, bb.tag_csi);
        EXPECT_EQ(ba.master_csi, bb.master_csi);
        EXPECT_EQ(ba.rssi_db, bb.rssi_db);
      }
    }
  }
}

/// Scoped temporary directory for the store tests.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("bloc-test-" + tag + "-" +
               std::to_string(::testing::UnitTest::GetInstance()->random_seed()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

// ---------------------------------------------------------------------------
// Round-trip losslessness
// ---------------------------------------------------------------------------

TEST(DatasetIo, EncodeDecodeRoundTripIsBitIdentical) {
  const Dataset dataset = SmallDataset();
  const std::uint64_t fp = Fingerprint(PaperTestbed(9), SmallOptions());
  const net::Buffer bytes = EncodeDataset(dataset, fp);
  const LoadedDataset loaded = DecodeDataset(bytes);
  EXPECT_EQ(loaded.fingerprint, fp);
  ExpectDatasetsBitIdentical(dataset, loaded.dataset);
}

TEST(DatasetIo, SaveLoadEvaluateIsBitIdentical) {
  // The acceptance bar for the format: replaying a saved dataset through
  // every evaluator yields the exact error vectors of the live dataset.
  const ScenarioConfig scenario = PaperTestbed(9);
  const DatasetOptions options = SmallOptions();
  const Dataset live = GenerateDataset(scenario, options);

  TempDir dir("roundtrip");
  const fs::path path = dir.path() / "ds.bin";
  SaveDataset(path, live, Fingerprint(scenario, options));
  const LoadedDataset loaded = LoadDataset(path);

  const core::LocalizerConfig config = PaperLocalizerConfig(live);
  EXPECT_EQ(EvaluateBloc(live, config, 2),
            EvaluateBloc(loaded.dataset, config, 2));
  baseline::AoaBaselineConfig aoa;
  aoa.grid = live.room_grid;
  baseline::AoaBaselineConfig aoa_loaded = aoa;
  aoa_loaded.grid = loaded.dataset.room_grid;
  EXPECT_EQ(EvaluateAoa(live, aoa), EvaluateAoa(loaded.dataset, aoa_loaded));
  baseline::RssiBaselineConfig rssi;
  rssi.grid = live.room_grid;
  baseline::RssiBaselineConfig rssi_loaded = rssi;
  rssi_loaded.grid = loaded.dataset.room_grid;
  EXPECT_EQ(EvaluateRssi(live, rssi),
            EvaluateRssi(loaded.dataset, rssi_loaded));
}

TEST(DatasetIo, EmptyDatasetRoundTrips) {
  Dataset empty;
  core::AnchorPose pose;
  pose.id = 0;
  pose.is_master = true;
  pose.geometry.num_antennas = 4;
  empty.deployment.anchors.push_back(pose);
  empty.room_grid = {0.0, 0.0, 6.0, 5.0, 0.075};
  const net::Buffer bytes = EncodeDataset(empty, 42);
  const LoadedDataset loaded = DecodeDataset(bytes);
  EXPECT_EQ(loaded.fingerprint, 42u);
  EXPECT_TRUE(loaded.dataset.rounds.empty());
  EXPECT_EQ(loaded.dataset.deployment.anchors.size(), 1u);
}

// ---------------------------------------------------------------------------
// Golden header bytes: the on-disk prefix is frozen by DESIGN.md §5c. If
// this test breaks, the format changed — bump kDatasetFormatVersion.
// ---------------------------------------------------------------------------

TEST(DatasetIo, GoldenHeaderBytes) {
  DatasetWriter writer(0x0123456789ABCDEFull);
  core::Deployment deployment;
  core::AnchorPose pose;
  pose.id = 7;
  pose.is_master = true;
  pose.geometry.origin = {1.0, 2.0};
  pose.geometry.axis_radians = 0.5;
  pose.geometry.spacing_m = 0.0589;
  pose.geometry.num_antennas = 4;
  deployment.anchors.push_back(pose);
  writer.Begin(deployment, {0.0, 0.0, 6.0, 5.0, 0.075});
  const net::Buffer bytes = writer.Finish();

  ASSERT_GE(bytes.size(), kDatasetHeaderBytes + 4);
  // Magic 0xB10CDA7A, little-endian.
  EXPECT_EQ(bytes[0], 0x7A);
  EXPECT_EQ(bytes[1], 0xDA);
  EXPECT_EQ(bytes[2], 0x0C);
  EXPECT_EQ(bytes[3], 0xB1);
  // Format version 2, little-endian u16.
  EXPECT_EQ(bytes[4], 0x02);
  EXPECT_EQ(bytes[5], 0x00);
  // Fingerprint, little-endian u64.
  const std::uint8_t fp_bytes[8] = {0xEF, 0xCD, 0xAB, 0x89,
                                    0x67, 0x45, 0x23, 0x01};
  for (int i = 0; i < 8; ++i) EXPECT_EQ(bytes[6 + i], fp_bytes[i]);
  // Round count: zero rounds appended.
  for (int i = 0; i < 8; ++i) EXPECT_EQ(bytes[14 + i], 0x00);
  // Payload length covers everything between header and CRC.
  std::uint64_t payload_len = 0;
  for (int i = 7; i >= 0; --i) payload_len = (payload_len << 8) | bytes[22 + i];
  EXPECT_EQ(payload_len, bytes.size() - kDatasetHeaderBytes - 4);
}

// ---------------------------------------------------------------------------
// Fingerprint sensitivity: every generation-relevant field must change the
// cache key; the two deliberately excluded fields must not.
// ---------------------------------------------------------------------------

struct Mutation {
  const char* name;
  std::function<void(ScenarioConfig&, DatasetOptions&)> apply;
};

TEST(DatasetFingerprint, EveryGenerationFieldChangesTheKey) {
  const ScenarioConfig base_scenario = PaperTestbed(1);
  const DatasetOptions base_options = SmallOptions();
  const std::uint64_t base = Fingerprint(base_scenario, base_options);

  const std::vector<Mutation> mutations = {
      {"room_width", [](ScenarioConfig& s, DatasetOptions&) {
         s.room_width += 0.5;
       }},
      {"room_height", [](ScenarioConfig& s, DatasetOptions&) {
         s.room_height += 0.5;
       }},
      {"wall_reflectivity", [](ScenarioConfig& s, DatasetOptions&) {
         s.wall_reflectivity += 0.01;
       }},
      {"wall_scattering", [](ScenarioConfig& s, DatasetOptions&) {
         s.wall_scattering += 0.01;
       }},
      {"obstacle_corner", [](ScenarioConfig& s, DatasetOptions&) {
         s.obstacles[0].min_corner.x += 0.1;
       }},
      {"obstacle_reflectivity", [](ScenarioConfig& s, DatasetOptions&) {
         s.obstacles[0].reflectivity += 0.05;
       }},
      {"obstacle_scattering", [](ScenarioConfig& s, DatasetOptions&) {
         s.obstacles[0].scattering += 0.05;
       }},
      {"obstacle_through_loss", [](ScenarioConfig& s, DatasetOptions&) {
         s.obstacles[0].through_loss_db += 1.0;
       }},
      {"obstacle_label", [](ScenarioConfig& s, DatasetOptions&) {
         s.obstacles[0].label += "-moved";
       }},
      {"obstacle_count", [](ScenarioConfig& s, DatasetOptions&) {
         s.obstacles.pop_back();
       }},
      {"anchor_center", [](ScenarioConfig& s, DatasetOptions&) {
         s.anchors[0].center.x += 0.1;
       }},
      {"anchor_facing", [](ScenarioConfig& s, DatasetOptions&) {
         s.anchors[0].facing.y += 0.1;
       }},
      {"anchor_antennas", [](ScenarioConfig& s, DatasetOptions&) {
         s.anchors[0].num_antennas = 8;
       }},
      {"anchor_count", [](ScenarioConfig& s, DatasetOptions&) {
         s.anchors.push_back(s.anchors[0]);
       }},
      {"master_index", [](ScenarioConfig& s, DatasetOptions&) {
         s.master_index = 1;
       }},
      {"include_direct", [](ScenarioConfig& s, DatasetOptions&) {
         s.propagation.include_direct = !s.propagation.include_direct;
       }},
      {"include_specular", [](ScenarioConfig& s, DatasetOptions&) {
         s.propagation.include_specular = !s.propagation.include_specular;
       }},
      {"include_second_order", [](ScenarioConfig& s, DatasetOptions&) {
         s.propagation.include_second_order =
             !s.propagation.include_second_order;
       }},
      {"include_diffuse", [](ScenarioConfig& s, DatasetOptions&) {
         s.propagation.include_diffuse = !s.propagation.include_diffuse;
       }},
      {"scatter_points", [](ScenarioConfig& s, DatasetOptions&) {
         s.propagation.scatter_points_per_face += 1;
       }},
      {"reflection_gain", [](ScenarioConfig& s, DatasetOptions&) {
         s.propagation.reflection_gain += 0.01;
       }},
      {"direct_excess_loss", [](ScenarioConfig& s, DatasetOptions&) {
         s.propagation.direct_excess_loss_db += 0.5;
       }},
      {"direct_shadowing_std", [](ScenarioConfig& s, DatasetOptions&) {
         s.propagation.direct_shadowing_std_db += 0.5;
       }},
      {"amplitude_floor", [](ScenarioConfig& s, DatasetOptions&) {
         s.propagation.amplitude_floor += 1e-4;
       }},
      {"snr_at_1m", [](ScenarioConfig& s, DatasetOptions&) {
         s.noise.snr_at_1m_db += 1.0;
       }},
      {"random_retune_phase", [](ScenarioConfig& s, DatasetOptions&) {
         s.impairments.random_retune_phase =
             !s.impairments.random_retune_phase;
       }},
      {"cfo_ppm_std", [](ScenarioConfig& s, DatasetOptions&) {
         s.impairments.cfo_ppm_std += 5.0;
       }},
      {"antenna_phase_error", [](ScenarioConfig& s, DatasetOptions&) {
         s.impairments.antenna_phase_error_std += 0.01;
       }},
      {"mode", [](ScenarioConfig& s, DatasetOptions&) {
         s.mode = MeasurementMode::kFullPhy;
       }},
      {"run_bits", [](ScenarioConfig& s, DatasetOptions&) {
         s.run_bits += 1;
       }},
      {"payload_len", [](ScenarioConfig& s, DatasetOptions&) {
         s.payload_len += 1;
       }},
      {"seed", [](ScenarioConfig& s, DatasetOptions&) { s.seed += 1; }},
      {"locations", [](ScenarioConfig&, DatasetOptions& o) {
         o.locations += 1;
       }},
      {"grid_resolution", [](ScenarioConfig&, DatasetOptions& o) {
         o.grid_resolution += 0.01;
       }},
      {"channel_map", [](ScenarioConfig&, DatasetOptions& o) {
         o.channel_map = link::ChannelMap::Subsampled(4);
       }},
      {"position_seed", [](ScenarioConfig&, DatasetOptions& o) {
         o.position_seed = 777;
       }},
  };

  for (const Mutation& m : mutations) {
    ScenarioConfig scenario = base_scenario;
    DatasetOptions options = base_options;
    m.apply(scenario, options);
    EXPECT_NE(Fingerprint(scenario, options), base)
        << "field '" << m.name << "' must be part of the fingerprint";
  }
}

TEST(DatasetFingerprint, ExecutionOnlyFieldsDoNotChangeTheKey) {
  // measurement_threads and progress shape *how* the dataset is computed,
  // not *what* it contains (synthesis is bit-identical across thread
  // counts), so equal fingerprints correctly share a cache entry.
  const ScenarioConfig scenario = PaperTestbed(1);
  const DatasetOptions base = SmallOptions();
  const std::uint64_t fp = Fingerprint(scenario, base);

  DatasetOptions threaded = base;
  threaded.measurement_threads = 8;
  EXPECT_EQ(Fingerprint(scenario, threaded), fp);

  DatasetOptions observed = base;
  observed.progress = [](std::size_t, std::size_t) {};
  EXPECT_EQ(Fingerprint(scenario, observed), fp);
}

TEST(DatasetFingerprint, IsStableAcrossProcesses) {
  // Same inputs, same hash — the store's file names must be reproducible
  // across runs and machines (FNV-1a over a canonical byte stream).
  EXPECT_EQ(Fingerprint(PaperTestbed(1), SmallOptions()),
            Fingerprint(PaperTestbed(1), SmallOptions()));
}

// ---------------------------------------------------------------------------
// Corruption: truncated, bit-flipped and mangled files must raise WireError,
// never UB. The trailing CRC covers header + payload, so *every* single-bit
// flip is detected deterministically.
// ---------------------------------------------------------------------------

TEST(DatasetCorruption, EveryTruncationThrowsWireError) {
  const Dataset dataset = SmallDataset();
  const net::Buffer bytes = EncodeDataset(dataset, 1);
  for (std::size_t cut = 0; cut < bytes.size();
       cut += (cut < 64 ? 1 : 257)) {
    EXPECT_THROW(DecodeDataset(std::span(bytes).first(cut)), net::WireError)
        << "cut=" << cut;
  }
}

TEST(DatasetCorruption, EverySingleBitFlipThrowsWireError) {
  const Dataset dataset = SmallDataset();
  const net::Buffer original = EncodeDataset(dataset, 1);
  // Dense sweep over the header and the structural prefix of the payload,
  // strided over the bulk CSI bytes and the trailing CRC.
  for (std::size_t byte = 0; byte < original.size();
       byte += (byte < 128 || byte + 8 >= original.size() ? 1 : 97)) {
    net::Buffer corrupt = original;
    corrupt[byte] ^= static_cast<std::uint8_t>(1u << (byte % 8));
    EXPECT_THROW(DecodeDataset(corrupt), net::WireError) << "byte=" << byte;
  }
}

TEST(DatasetCorruption, TrailingBytesThrow) {
  net::Buffer bytes = EncodeDataset(SmallDataset(), 1);
  bytes.push_back(0x00);
  EXPECT_THROW(DecodeDataset(bytes), net::WireError);
}

TEST(DatasetCorruption, ForeignFileThrowsBadMagic) {
  const net::Buffer junk(256, 0x5A);
  EXPECT_THROW(DecodeDataset(junk), net::WireError);
}

TEST(DatasetCorruption, FutureFormatVersionThrows) {
  net::Buffer bytes = EncodeDataset(SmallDataset(), 1);
  bytes[4] = kDatasetFormatVersion + 1;  // pretend a future version
  // Re-seal the CRC so the version check (not the CRC) is what fires.
  std::uint32_t crc = net::Crc32(std::span(bytes).first(bytes.size() - 4));
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  }
  try {
    DecodeDataset(bytes);
    FAIL() << "expected WireError";
  } catch (const net::WireError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(DatasetCorruption, MissingFileThrows) {
  EXPECT_THROW(LoadDataset("/nonexistent/bloc-dataset.bin"), net::WireError);
}

// ---------------------------------------------------------------------------
// DatasetStore: content addressing, hit/miss accounting, stale handling.
// ---------------------------------------------------------------------------

TEST(DatasetStore, MissGeneratesThenHitsServeTheSameBits) {
  TempDir dir("store");
  const ScenarioConfig scenario = PaperTestbed(9);
  const DatasetOptions options = SmallOptions();

  DatasetStore store(dir.path());
  const Dataset cold = store.GetOrGenerate(scenario, options);
  EXPECT_EQ(store.misses(), 1u);
  EXPECT_EQ(store.hits(), 0u);
  EXPECT_TRUE(fs::exists(store.PathFor(Fingerprint(scenario, options))));

  const Dataset warm = store.GetOrGenerate(scenario, options);
  EXPECT_EQ(store.misses(), 1u);
  EXPECT_EQ(store.hits(), 1u);
  ExpectDatasetsBitIdentical(cold, warm);

  // A second store over the same directory hits immediately — the cache is
  // shared across processes and across every bench binary.
  DatasetStore other(dir.path());
  other.GetOrGenerate(scenario, options);
  EXPECT_EQ(other.hits(), 1u);
  EXPECT_EQ(other.misses(), 0u);
}

TEST(DatasetStore, DifferentOptionsMissSeparately) {
  TempDir dir("store-keys");
  DatasetStore store(dir.path());
  const ScenarioConfig scenario = PaperTestbed(9);
  DatasetOptions a = SmallOptions();
  DatasetOptions b = SmallOptions();
  b.position_seed = 777;
  store.GetOrGenerate(scenario, a);
  store.GetOrGenerate(scenario, b);
  EXPECT_EQ(store.misses(), 2u);
  EXPECT_EQ(store.hits(), 0u);
}

TEST(DatasetStore, CorruptCacheEntryIsRegeneratedNotServed) {
  TempDir dir("store-corrupt");
  const ScenarioConfig scenario = PaperTestbed(9);
  const DatasetOptions options = SmallOptions();
  obs::Counter& hits = obs::GetCounter("sim.dataset_store.hits");
  obs::Counter& misses = obs::GetCounter("sim.dataset_store.misses");
  obs::Counter& stale = obs::GetCounter("sim.dataset_store.stale");
  const std::uint64_t hits0 = hits.Value();
  const std::uint64_t misses0 = misses.Value();
  const std::uint64_t stale0 = stale.Value();
  DatasetStore store(dir.path());
  const Dataset cold = store.GetOrGenerate(scenario, options);

  // Flip one bit in the cached file.
  const fs::path path = store.PathFor(Fingerprint(scenario, options));
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(100);
    char c;
    f.seekg(100);
    f.get(c);
    f.seekp(100);
    f.put(static_cast<char>(c ^ 0x01));
  }

  const Dataset regenerated = store.GetOrGenerate(scenario, options);
  EXPECT_EQ(store.misses(), 2u);  // corrupt entry counted as a miss
  EXPECT_EQ(store.stale(), 1u);
  EXPECT_EQ(store.hits(), 0u);
  ExpectDatasetsBitIdentical(cold, regenerated);
  // And the regenerated entry is healthy again.
  store.GetOrGenerate(scenario, options);
  EXPECT_EQ(store.hits(), 1u);
  // The registry counters count the same events process-wide.
  EXPECT_EQ(hits.Value() - hits0, store.hits());
  EXPECT_EQ(misses.Value() - misses0, store.misses());
  EXPECT_EQ(stale.Value() - stale0, store.stale());
}

TEST(DatasetStore, ForeignFingerprintInFileIsTreatedAsMiss) {
  TempDir dir("store-stale");
  const ScenarioConfig scenario = PaperTestbed(9);
  const DatasetOptions options = SmallOptions();

  // A valid dataset file whose *embedded* fingerprint belongs to different
  // flags, copied over this configuration's cache path (e.g. by hand).
  const Dataset other = SmallDataset(10);
  DatasetStore store(dir.path());
  const fs::path path = store.PathFor(Fingerprint(scenario, options));
  SaveDataset(path, other, /*fingerprint=*/0xDEADBEEFull);

  store.GetOrGenerate(scenario, options);
  EXPECT_EQ(store.misses(), 1u);
  EXPECT_EQ(store.hits(), 0u);
  // The stale file was replaced by the honest regeneration.
  EXPECT_EQ(LoadDataset(path).fingerprint, Fingerprint(scenario, options));
}

TEST(DatasetStore, PathEncodesFormatVersionAndFingerprint) {
  TempDir dir("store-path");
  DatasetStore store(dir.path());
  const std::string name = store.PathFor(0xABCDull).filename().string();
  EXPECT_EQ(name, "bloc-ds-v" + std::to_string(kDatasetFormatVersion) +
                      "-000000000000abcd.bin");
}

// ---------------------------------------------------------------------------
// Streaming writer: rounds serialized as GenerateDataset produces them
// ---------------------------------------------------------------------------

TEST(DatasetWriter, WriterSinkMatchesOneShotEncode) {
  const ScenarioConfig scenario = PaperTestbed(9);
  const DatasetOptions options = SmallOptions();
  const std::uint64_t fp = Fingerprint(scenario, options);

  DatasetWriter writer(fp);
  const Dataset dataset = GenerateDataset(scenario, options, &writer);
  const net::Buffer streamed_bytes = writer.Finish();

  EXPECT_EQ(streamed_bytes, EncodeDataset(dataset, fp));
}

TEST(DatasetWriter, WriterMisuseThrows) {
  DatasetWriter writer(1);
  EXPECT_THROW(writer.Append(0.0, {0, 0}, {}), std::logic_error);
  EXPECT_THROW(writer.Finish(), std::logic_error);
}

// ---------------------------------------------------------------------------
// Time dimension (format v2) and v1 backward compatibility
// ---------------------------------------------------------------------------

TEST(DatasetIo, TimestampsRoundTrip) {
  ScenarioConfig scenario = PaperTestbed(9);
  scenario.motion.model = MotionModel::kWaypoint;
  scenario.motion.round_period_s = 0.25;
  const Dataset dataset = GenerateDataset(scenario, SmallOptions());
  ASSERT_EQ(dataset.timestamps.size(), dataset.rounds.size());
  for (std::size_t i = 0; i < dataset.timestamps.size(); ++i) {
    EXPECT_EQ(dataset.timestamps[i], 0.25 * static_cast<double>(i));
  }
  const LoadedDataset loaded = DecodeDataset(EncodeDataset(dataset, 5));
  EXPECT_EQ(loaded.dataset.timestamps, dataset.timestamps);
}

/// Re-encodes a v2 file image as the v1 layout it evolved from: the same
/// header with version 1 and the same per-round bodies minus the leading
/// f64 timestamp, resealed with a fresh CRC. Exercises the real pre-v2
/// byte layout without keeping a generator for the dead format around.
net::Buffer AsV1FileImage(const Dataset& dataset, std::uint64_t fp) {
  net::WireWriter w;
  w.U32(kDatasetMagic);
  w.U16(1);
  w.U64(fp);
  w.U64(dataset.rounds.size());
  w.U64(0);  // payload length, patched below
  w.U32(static_cast<std::uint32_t>(dataset.deployment.anchors.size()));
  for (const core::AnchorPose& pose : dataset.deployment.anchors) {
    w.U32(pose.id);
    w.Bool(pose.is_master);
    w.F64(pose.geometry.origin.x);
    w.F64(pose.geometry.origin.y);
    w.F64(pose.geometry.axis_radians);
    w.F64(pose.geometry.spacing_m);
    w.U32(static_cast<std::uint32_t>(pose.geometry.num_antennas));
  }
  w.F64(dataset.room_grid.x_min);
  w.F64(dataset.room_grid.y_min);
  w.F64(dataset.room_grid.x_max);
  w.F64(dataset.room_grid.y_max);
  w.F64(dataset.room_grid.resolution);
  for (std::size_t i = 0; i < dataset.rounds.size(); ++i) {
    w.F64(dataset.truths[i].x);  // v1 rounds start at the truth pose
    w.F64(dataset.truths[i].y);
    net::EncodeMeasurementRound(dataset.rounds[i], w);
  }
  net::Buffer bytes = w.Take();
  const std::uint64_t payload_len = bytes.size() - kDatasetHeaderBytes;
  for (int i = 0; i < 8; ++i) {
    bytes[22 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(payload_len >> (8 * i));
  }
  const std::uint32_t crc = net::Crc32(bytes);
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }
  return bytes;
}

TEST(DatasetIo, V1FileLoadsAsSinglePoseTrajectory) {
  // The backward-compat contract: every pre-trajectory dataset still loads,
  // with measurements and truths bit-identical and timestamps synthesized
  // at 1 Hz.
  const Dataset dataset = SmallDataset();
  const LoadedDataset loaded = DecodeDataset(AsV1FileImage(dataset, 77));
  EXPECT_EQ(loaded.fingerprint, 77u);
  ExpectDatasetsBitIdentical(dataset, loaded.dataset);
  ASSERT_EQ(loaded.dataset.timestamps.size(), dataset.rounds.size());
  for (std::size_t i = 0; i < loaded.dataset.timestamps.size(); ++i) {
    EXPECT_EQ(loaded.dataset.timestamps[i], static_cast<double>(i));
  }
}

TEST(DatasetIo, V1SingleBitFlipsStillThrow) {
  // The CRC guarantee is format-wide, not v2-only.
  const net::Buffer original = AsV1FileImage(SmallDataset(), 1);
  for (std::size_t byte = 0; byte < original.size();
       byte += (byte < 64 || byte + 8 >= original.size() ? 1 : 499)) {
    net::Buffer corrupt = original;
    corrupt[byte] ^= static_cast<std::uint8_t>(1u << (byte % 8));
    EXPECT_THROW(DecodeDataset(corrupt), net::WireError) << "byte=" << byte;
  }
}

}  // namespace
}  // namespace bloc::sim
