// Persistent dataset store and on-disk format (DESIGN.md §5c).
//
// The paper's methodology is measure-once/evaluate-many (§7): the same 1700
// recorded positions are replayed against BLoc, the baselines and every
// ablation. This layer makes the recorded dataset a first-class reusable
// artifact: a versioned binary file built on the net wire codec, and a
// content-addressed store keyed by a canonical fingerprint of
// (ScenarioConfig, DatasetOptions) so any bench or example transparently
// reuses a previous run's synthesis.
//
// File layout (all little-endian, doubles as IEEE-754 bit patterns):
//   [u32 magic][u16 version][u64 fingerprint][u64 rounds][u64 payload_len]
//   payload:
//     u32 anchor count; per anchor: u32 id, bool is_master,
//       f64 origin.x, f64 origin.y, f64 axis_radians, f64 spacing_m,
//       u32 num_antennas
//     f64 x_min, y_min, x_max, y_max, resolution        (room grid)
//     per round: f64 t_s, f64 truth.x, f64 truth.y, MeasurementRound body
//       (net::EncodeMeasurementRound)
//   [u32 crc32 over header + payload]
// Version history:
//   v1: rounds carried (truth, body) only — static snapshots. Still loads:
//       timestamps are synthesized at 1 Hz (a single-pose-per-round
//       trajectory), so every v1 dataset remains usable unchanged.
//   v2: per-round capture timestamp t_s prepended (trajectory workloads).
// Corrupt, truncated or future-versioned files raise net::WireError.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>

#include "net/wire.h"
#include "sim/experiment.h"

namespace bloc::sim {

inline constexpr std::uint32_t kDatasetMagic = 0xB10CDA7Au;
inline constexpr std::uint16_t kDatasetFormatVersion = 2;
/// Oldest format version DecodeDataset still understands.
inline constexpr std::uint16_t kDatasetMinFormatVersion = 1;
/// Fixed header prefix: magic + version + fingerprint + round count +
/// payload length.
inline constexpr std::size_t kDatasetHeaderBytes = 4 + 2 + 8 + 8 + 8;

/// Canonical 64-bit fingerprint over every generation-relevant field of
/// (ScenarioConfig, DatasetOptions), in a fixed field order. Two datasets
/// with equal fingerprints contain bit-identical measurements.
///
/// Deliberately excluded: DatasetOptions::measurement_threads (synthesis is
/// bit-identical for every thread count) and ::progress (observer only).
/// Adding a field to either struct must extend the visitor — enforced by
/// sizeof static_asserts in dataset_io.cc and the sensitivity test.
std::uint64_t Fingerprint(const ScenarioConfig& config,
                          const DatasetOptions& options);

/// Incremental dataset serializer: rounds are appended as the simulator
/// produces them, with no full-dataset barrier. Call Begin once
/// (GenerateDataset does this when given a writer), Append per round, then
/// Finish to obtain the complete file image.
class DatasetWriter {
 public:
  explicit DatasetWriter(std::uint64_t fingerprint);

  /// Writes the header and the deployment/grid sections. Must be called
  /// exactly once, before any Append.
  void Begin(const core::Deployment& deployment, const dsp::GridSpec& grid);
  void Append(double t_s, const geom::Vec2& truth,
              const net::MeasurementRound& round);
  /// Patches the round/payload counters, seals the CRC and returns the
  /// finished file image. The writer is spent afterwards.
  net::Buffer Finish();

  std::size_t rounds_appended() const { return rounds_; }

 private:
  net::WireWriter w_;
  std::uint64_t fingerprint_ = 0;
  std::size_t rounds_ = 0;
  bool begun_ = false;
  bool finished_ = false;
};

struct LoadedDataset {
  Dataset dataset;
  std::uint64_t fingerprint = 0;
};

/// One-shot serialization of a complete dataset (DatasetWriter underneath).
net::Buffer EncodeDataset(const Dataset& dataset, std::uint64_t fingerprint);
/// Parses a file image; throws net::WireError on bad magic, unsupported
/// version, truncation, trailing bytes or any CRC-detected corruption.
LoadedDataset DecodeDataset(std::span<const std::uint8_t> bytes);

/// File variants. SaveDataset writes atomically (temp file + rename) so a
/// crash never leaves a truncated dataset behind.
void SaveDataset(const std::filesystem::path& path, const Dataset& dataset,
                 std::uint64_t fingerprint);
LoadedDataset LoadDataset(const std::filesystem::path& path);

/// Content-addressed dataset cache over a directory: files are named by
/// format version + fingerprint, so a scenario change, an options change or
/// a format bump can never serve stale measurements — they simply miss.
class DatasetStore {
 public:
  /// Creates `directory` (and parents) if missing.
  explicit DatasetStore(std::filesystem::path directory);

  /// Returns the cached dataset for Fingerprint(config, options), or
  /// generates it with GenerateDataset (serializing as rounds are produced)
  /// and persists it. Corrupt or fingerprint-mismatched cache files are
  /// treated as misses and regenerated, never served.
  Dataset GetOrGenerate(const ScenarioConfig& config,
                        const DatasetOptions& options);

  std::filesystem::path PathFor(std::uint64_t fingerprint) const;
  const std::filesystem::path& directory() const { return dir_; }
  /// Exact per-instance counts; the `sim.dataset_store.*` registry
  /// counters (obs/metrics.h) are process-wide sums over every store.
  std::size_t hits() const { return hits_; }
  std::size_t misses() const { return misses_; }
  /// Misses caused by an existing-but-unusable cache entry (corrupt,
  /// truncated or fingerprint-mismatched). Always <= misses().
  std::size_t stale() const { return stale_; }

 private:
  std::filesystem::path dir_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t stale_ = 0;
};

}  // namespace bloc::sim
