#include "sim/dataset_io.h"

#include <bit>
#include <cstdio>
#include <fstream>
#include <string>

#include "net/messages.h"
#include "obs/metrics.h"

namespace bloc::sim {

namespace {

// Any new field in these structs (or the ones they aggregate) must be added
// to Fingerprint() below and to the dataset format documentation; these
// asserts make silently forgetting that a compile error on the reference
// toolchain.
#if defined(__x86_64__) && defined(__GLIBCXX__)
static_assert(sizeof(ScenarioConfig) == 248,
              "ScenarioConfig changed: extend Fingerprint() and update size");
static_assert(sizeof(MotionConfig) == 48,
              "MotionConfig changed: extend Fingerprint()");
static_assert(sizeof(DatasetOptions) == 72,
              "DatasetOptions changed: extend Fingerprint() and update size");
static_assert(sizeof(chan::PropagationConfig) == 48,
              "PropagationConfig changed: extend Fingerprint()");
static_assert(sizeof(chan::NoiseConfig) == 8,
              "NoiseConfig changed: extend Fingerprint()");
static_assert(sizeof(chan::ImpairmentConfig) == 24,
              "ImpairmentConfig changed: extend Fingerprint()");
static_assert(sizeof(geom::Obstacle) == 88,
              "Obstacle changed: extend Fingerprint()");
static_assert(sizeof(AnchorLayout) == 40,
              "AnchorLayout changed: extend Fingerprint()");
static_assert(sizeof(link::ChannelMap) == 8,
              "ChannelMap changed: extend Fingerprint()");
#endif

/// FNV-1a (64-bit) over a canonical little-endian byte stream.
class FingerprintHasher {
 public:
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xFFu)) * 1099511628211ull;
    }
  }
  void F64(double v) { U64(std::bit_cast<std::uint64_t>(v)); }
  void Bool(bool v) { U64(v ? 1 : 0); }
  void Size(std::size_t v) { U64(static_cast<std::uint64_t>(v)); }
  void Str(const std::string& v) {
    Size(v.size());
    for (const char c : v) U64(static_cast<std::uint8_t>(c));
  }
  void Vec2(const geom::Vec2& v) {
    F64(v.x);
    F64(v.y);
  }
  std::uint64_t Digest() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

void WriteGeometry(const anchor::ArrayGeometry& g, net::WireWriter& w) {
  w.F64(g.origin.x);
  w.F64(g.origin.y);
  w.F64(g.axis_radians);
  w.F64(g.spacing_m);
  w.U32(static_cast<std::uint32_t>(g.num_antennas));
}

void WriteDeployment(const core::Deployment& deployment, net::WireWriter& w) {
  w.U32(static_cast<std::uint32_t>(deployment.anchors.size()));
  for (const core::AnchorPose& pose : deployment.anchors) {
    w.U32(pose.id);
    w.Bool(pose.is_master);
    WriteGeometry(pose.geometry, w);
  }
}

core::Deployment ReadDeployment(net::WireReader& r) {
  core::Deployment deployment;
  const std::uint32_t n = r.U32();
  if (n > 4096) throw net::WireError("dataset: implausible anchor count");
  deployment.anchors.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    core::AnchorPose pose;
    pose.id = r.U32();
    pose.is_master = r.Bool();
    pose.geometry.origin.x = r.F64();
    pose.geometry.origin.y = r.F64();
    pose.geometry.axis_radians = r.F64();
    pose.geometry.spacing_m = r.F64();
    pose.geometry.num_antennas = r.U32();
    if (pose.geometry.num_antennas > 4096) {
      throw net::WireError("dataset: implausible antenna count");
    }
    deployment.anchors.push_back(pose);
  }
  return deployment;
}

void WriteGrid(const dsp::GridSpec& grid, net::WireWriter& w) {
  w.F64(grid.x_min);
  w.F64(grid.y_min);
  w.F64(grid.x_max);
  w.F64(grid.y_max);
  w.F64(grid.resolution);
}

dsp::GridSpec ReadGrid(net::WireReader& r) {
  dsp::GridSpec grid;
  grid.x_min = r.F64();
  grid.y_min = r.F64();
  grid.x_max = r.F64();
  grid.y_max = r.F64();
  grid.resolution = r.F64();
  return grid;
}

void PatchU64(net::Buffer& buf, std::size_t offset, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf[offset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
}

std::string HexFingerprint(std::uint64_t fingerprint) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return hex;
}

/// Temp file + rename: a crash never leaves a truncated dataset behind.
void WriteFileAtomic(const std::filesystem::path& path,
                     const net::Buffer& bytes) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      throw std::runtime_error("dataset: cannot write " + tmp.string());
    }
  }
  std::filesystem::rename(tmp, path);
}

}  // namespace

std::uint64_t Fingerprint(const ScenarioConfig& config,
                          const DatasetOptions& options) {
  FingerprintHasher h;
  // ScenarioConfig, in declaration order.
  h.F64(config.room_width);
  h.F64(config.room_height);
  h.F64(config.wall_reflectivity);
  h.F64(config.wall_scattering);
  h.Size(config.obstacles.size());
  for (const geom::Obstacle& o : config.obstacles) {
    h.Vec2(o.min_corner);
    h.Vec2(o.max_corner);
    h.F64(o.reflectivity);
    h.F64(o.scattering);
    h.F64(o.through_loss_db);
    h.Str(o.label);
  }
  h.Size(config.anchors.size());
  for (const AnchorLayout& a : config.anchors) {
    h.Vec2(a.center);
    h.Vec2(a.facing);
    h.Size(a.num_antennas);
  }
  h.Size(config.master_index);
  h.Bool(config.propagation.include_direct);
  h.Bool(config.propagation.include_specular);
  h.Bool(config.propagation.include_second_order);
  h.Bool(config.propagation.include_diffuse);
  h.Size(config.propagation.scatter_points_per_face);
  h.F64(config.propagation.reflection_gain);
  h.F64(config.propagation.direct_excess_loss_db);
  h.F64(config.propagation.direct_shadowing_std_db);
  h.F64(config.propagation.amplitude_floor);
  h.F64(config.noise.snr_at_1m_db);
  h.Bool(config.impairments.random_retune_phase);
  h.F64(config.impairments.cfo_ppm_std);
  h.F64(config.impairments.antenna_phase_error_std);
  h.U64(static_cast<std::uint64_t>(config.mode));
  h.Size(config.run_bits);
  h.Size(config.payload_len);
  h.U64(config.seed);
  h.U64(static_cast<std::uint64_t>(config.motion.model));
  h.F64(config.motion.speed_mps);
  h.F64(config.motion.round_period_s);
  h.F64(config.motion.wall_margin);
  h.Size(config.motion.waypoint_count);
  h.F64(config.motion.heading_std_rad);
  // DatasetOptions (measurement_threads and progress excluded: neither
  // affects the generated measurements — synthesis is bit-identical for
  // every thread count).
  h.Size(options.locations);
  h.F64(options.grid_resolution);
  const std::vector<std::uint8_t> used = options.channel_map.UsedChannels();
  h.Size(used.size());
  for (const std::uint8_t c : used) h.U64(c);
  h.U64(options.position_seed);
  return h.Digest();
}

DatasetWriter::DatasetWriter(std::uint64_t fingerprint)
    : fingerprint_(fingerprint) {}

void DatasetWriter::Begin(const core::Deployment& deployment,
                          const dsp::GridSpec& grid) {
  if (begun_) throw std::logic_error("DatasetWriter::Begin called twice");
  begun_ = true;
  w_.U32(kDatasetMagic);
  w_.U16(kDatasetFormatVersion);
  w_.U64(fingerprint_);
  w_.U64(0);  // round count, patched by Finish
  w_.U64(0);  // payload length, patched by Finish
  WriteDeployment(deployment, w_);
  WriteGrid(grid, w_);
}

void DatasetWriter::Append(double t_s, const geom::Vec2& truth,
                           const net::MeasurementRound& round) {
  if (!begun_ || finished_) {
    throw std::logic_error("DatasetWriter::Append outside Begin..Finish");
  }
  w_.F64(t_s);
  w_.F64(truth.x);
  w_.F64(truth.y);
  net::EncodeMeasurementRound(round, w_);
  ++rounds_;
}

net::Buffer DatasetWriter::Finish() {
  if (!begun_ || finished_) {
    throw std::logic_error("DatasetWriter::Finish outside Begin..Finish");
  }
  finished_ = true;
  net::Buffer out = w_.Take();
  PatchU64(out, 14, rounds_);
  PatchU64(out, 22, out.size() - kDatasetHeaderBytes);
  // The CRC covers header + payload, so every bit flip anywhere in the
  // file — including the fingerprint and counters — is detected.
  net::WireWriter crc;
  crc.U32(net::Crc32(out));
  const net::Buffer& crc_bytes = crc.buffer();
  out.insert(out.end(), crc_bytes.begin(), crc_bytes.end());
  return out;
}

net::Buffer EncodeDataset(const Dataset& dataset, std::uint64_t fingerprint) {
  if (dataset.truths.size() != dataset.rounds.size()) {
    throw std::logic_error("EncodeDataset: truths/rounds size mismatch");
  }
  if (!dataset.timestamps.empty() &&
      dataset.timestamps.size() != dataset.rounds.size()) {
    throw std::logic_error("EncodeDataset: timestamps/rounds size mismatch");
  }
  DatasetWriter writer(fingerprint);
  writer.Begin(dataset.deployment, dataset.room_grid);
  for (std::size_t i = 0; i < dataset.rounds.size(); ++i) {
    // Hand-built datasets without timestamps serialize at 1 Hz, matching
    // what a v1 file loads back as.
    const double t_s = dataset.timestamps.empty()
                           ? static_cast<double>(i)
                           : dataset.timestamps[i];
    writer.Append(t_s, dataset.truths[i], dataset.rounds[i]);
  }
  return writer.Finish();
}

LoadedDataset DecodeDataset(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kDatasetHeaderBytes + 4) {
    throw net::WireError("dataset: truncated header");
  }
  net::WireReader header(bytes.first(kDatasetHeaderBytes));
  if (header.U32() != kDatasetMagic) {
    throw net::WireError("dataset: bad magic (not a BLoc dataset file)");
  }
  const std::uint16_t version = header.U16();
  if (version < kDatasetMinFormatVersion || version > kDatasetFormatVersion) {
    throw net::WireError("dataset: unsupported format version " +
                         std::to_string(version) + " (supported " +
                         std::to_string(kDatasetMinFormatVersion) + ".." +
                         std::to_string(kDatasetFormatVersion) + ")");
  }
  LoadedDataset loaded;
  loaded.fingerprint = header.U64();
  const std::uint64_t rounds = header.U64();
  const std::uint64_t payload_len = header.U64();
  if (payload_len != bytes.size() - kDatasetHeaderBytes - 4) {
    throw net::WireError("dataset: truncated or oversized payload");
  }
  net::WireReader crc_reader(bytes.last(4));
  if (crc_reader.U32() != net::Crc32(bytes.first(bytes.size() - 4))) {
    throw net::WireError("dataset: CRC mismatch (corrupt file)");
  }

  net::WireReader r(bytes.subspan(kDatasetHeaderBytes, payload_len));
  loaded.dataset.deployment = ReadDeployment(r);
  loaded.dataset.room_grid = ReadGrid(r);
  if (rounds > payload_len) {  // each round occupies well over one byte
    throw net::WireError("dataset: implausible round count");
  }
  loaded.dataset.truths.reserve(rounds);
  loaded.dataset.timestamps.reserve(rounds);
  loaded.dataset.rounds.reserve(rounds);
  for (std::uint64_t i = 0; i < rounds; ++i) {
    // v1 files predate the time dimension: each round becomes a one-pose
    // trajectory sample at synthesized 1 Hz spacing.
    const double t_s =
        version >= 2 ? r.F64() : static_cast<double>(i);
    geom::Vec2 truth;
    truth.x = r.F64();
    truth.y = r.F64();
    loaded.dataset.timestamps.push_back(t_s);
    loaded.dataset.truths.push_back(truth);
    loaded.dataset.rounds.push_back(net::DecodeMeasurementRound(r));
  }
  if (!r.AtEnd()) throw net::WireError("dataset: trailing payload bytes");
  return loaded;
}

void SaveDataset(const std::filesystem::path& path, const Dataset& dataset,
                 std::uint64_t fingerprint) {
  WriteFileAtomic(path, EncodeDataset(dataset, fingerprint));
}

LoadedDataset LoadDataset(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw net::WireError("dataset: cannot open " + path.string());
  }
  net::Buffer bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (!in.eof() && in.fail()) {
    throw net::WireError("dataset: read error on " + path.string());
  }
  return DecodeDataset(bytes);
}

DatasetStore::DatasetStore(std::filesystem::path directory)
    : dir_(std::move(directory)) {
  std::filesystem::create_directories(dir_);
}

std::filesystem::path DatasetStore::PathFor(std::uint64_t fingerprint) const {
  return dir_ / ("bloc-ds-v" + std::to_string(kDatasetFormatVersion) + "-" +
                 HexFingerprint(fingerprint) + ".bin");
}

Dataset DatasetStore::GetOrGenerate(const ScenarioConfig& config,
                                    const DatasetOptions& options) {
  const std::uint64_t fingerprint = Fingerprint(config, options);
  const std::filesystem::path path = PathFor(fingerprint);
  bool entry_existed = false;
  if (std::filesystem::exists(path)) {
    entry_existed = true;
    try {
      LoadedDataset loaded = LoadDataset(path);
      if (loaded.fingerprint == fingerprint) {
        ++hits_;
        obs::GetCounter("sim.dataset_store.hits").Inc();
        return std::move(loaded.dataset);
      }
      // Embedded fingerprint disagrees with the requested configuration
      // (e.g. a foreign file copied over the cache entry): regenerate.
    } catch (const net::WireError&) {
      // Corrupt, truncated or version-mismatched cache entry: regenerate.
    }
  }
  ++misses_;
  obs::GetCounter("sim.dataset_store.misses").Inc();
  if (entry_existed) {
    ++stale_;
    obs::GetCounter("sim.dataset_store.stale").Inc();
  }
  DatasetWriter writer(fingerprint);
  Dataset dataset = GenerateDataset(config, options, &writer);
  WriteFileAtomic(path, writer.Finish());
  return dataset;
}

}  // namespace bloc::sim
