// Executes BLoc measurement rounds: the tag and the master anchor exchange
// localization packets on every hopped band while all anchors measure CSI
// on every antenna, with per-retune LO phase offsets and receiver noise.
//
// Two fidelity modes (ScenarioConfig::mode):
//  - kAnalytic: channel values + offsets + estimation-equivalent noise are
//    applied per band directly (fast; used by the large sweeps).
//  - kFullPhy: every packet is GFSK-modulated, convolved with the
//    frequency-selective channel, hit with per-sample AWGN and optional CFO,
//    and CSI is extracted from the 0/1-run plateaus (paper §4 end to end).
// A test asserts both modes agree to within the noise floor.
//
// The full-PHY path is planned (DESIGN.md §5b): per-channel packet assets —
// including the forward FFT of the transmit waveform and the cached
// FftPlan — are warmed at construction; per-measurement kernels run in
// caller-owned per-worker workspaces with zero steady-state allocations; and
// RunRound fans out over (connection event, anchor) pairs on an internal
// thread pool. Every measurement draws noise from its own RNG stream forked
// from (round, channel, anchor, antenna, leg), so the output is
// bit-identical for every thread count.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "dsp/fft.h"
#include "dsp/thread_pool.h"
#include "link/connection.h"
#include "net/messages.h"
#include "phy/csi_extract.h"
#include "phy/packet.h"
#include "sim/testbed.h"

namespace bloc::sim {

class MeasurementSimulator {
 public:
  /// `threads` sizes the internal worker pool RunRound fans measurements out
  /// on: 1 (default) runs inline with no worker threads, 0 uses all hardware
  /// threads. Results are bit-identical for every thread count.
  explicit MeasurementSimulator(Testbed& testbed, std::size_t threads = 1);

  /// One full localization round (every used data channel visited once) for
  /// a tag at `tag_position`; returns one CsiReport per anchor.
  net::MeasurementRound RunRound(const geom::Vec2& tag_position,
                                 std::uint64_t round_id);

  /// Restricts hopping to this channel map (Fig. 11 blacklisting).
  void SetChannelMap(const link::ChannelMap& map) { channel_map_ = map; }

  const link::ChannelMap& channel_map() const { return channel_map_; }

  /// Selects the reference full-PHY kernels (unplanned FFT, per-bin
  /// std::function transfer callback, per-sample libm CFO rotor — the
  /// pre-optimization implementation) instead of the planned fast path.
  /// Both paths draw identical noise, so they agree to ~1e-9; kept for the
  /// parity tests and the bench_perf comparison.
  void UseReferenceFullPhy(bool on) { use_reference_fullphy_ = on; }

  /// The FFT plan cache behind the full-PHY path (amortization tests).
  const dsp::FftPlanCache& fft_plans() const { return fft_plans_; }

 private:
  /// Per-channel packet and plateau cache (packets differ per channel
  /// because the payload is pre-whitened). All 37 channels are warmed at
  /// construction (on the pool) so first-round latency isn't an outlier.
  struct ChannelAssets {
    phy::Bits air_bits;
    dsp::CVec tx_iq;  // reference waveform, zero initial phase
    dsp::CVec tx_fft; // FFT of the zero-padded waveform (plan-order bins)
    std::shared_ptr<const dsp::FftPlan> plan;  // NextPow2(tx_iq.size())-point
    phy::PlateauIndices plateaus;
    phy::PlateauEnergies energies;  // cached sum(|tx|^2) per plateau
    std::size_t n0 = 0;
    std::size_t n1 = 0;
  };

  /// Per-worker scratch reused across measurements; steady state performs
  /// no allocations (every buffer re-resizes to the same nfft / packet
  /// length).
  struct Workspace {
    dsp::CVec comb;   // channel transfer function per FFT bin
    dsp::CVec work;   // frequency->time scratch (nfft samples)
    dsp::CVec noise;  // per-sample receiver noise for one packet
    dsp::CVec rx;     // impaired received packet handed to the extractor
  };

  const ChannelAssets& AssetsFor(std::uint8_t data_channel);
  void WarmAssets();
  /// Solves master->anchor links once: that geometry is static across
  /// rounds (the tag moves, the anchors don't).
  void EnsureMasterPaths();

  /// Measured (noisy, offset-garbled) per-band channel between two points,
  /// given the LO phase difference rotor. `rng` is the measurement's own
  /// forked noise stream.
  dsp::cplx MeasureAnalytic(const chan::PathSet& paths, double center_hz,
                            dsp::cplx offset_rotor,
                            const ChannelAssets& assets, dsp::Rng& rng) const;
  /// `rx_cache`, when non-null, caches the clean filtered waveform (comb +
  /// transfer function, before LO rotor/CFO/noise): reused when already
  /// built, filled on first use. Master->anchor legs pass their per
  /// (channel, antenna) slot, since that geometry never changes; tag legs
  /// pass nullptr.
  dsp::cplx MeasureFullPhy(const chan::PathSet& paths, double center_hz,
                           dsp::cplx offset_rotor, double cfo_hz,
                           const ChannelAssets& assets, dsp::Rng& rng,
                           Workspace& ws, dsp::CVec* rx_cache) const;
  dsp::cplx MeasureFullPhyReference(const chan::PathSet& paths,
                                    double center_hz, dsp::cplx offset_rotor,
                                    double cfo_hz, const ChannelAssets& assets,
                                    dsp::Rng& rng, Workspace& ws) const;

  Testbed& testbed_;
  link::ChannelMap channel_map_;
  phy::CsiExtractor extractor_;
  /// Root of every per-measurement noise stream: measurement (round,
  /// channel, anchor, antenna, leg) draws from noise_root_.Fork({...}).
  dsp::Rng noise_root_;
  bool use_reference_fullphy_ = false;

  dsp::ThreadPool pool_;
  std::vector<Workspace> workspaces_;  // one per pool slot
  dsp::FftPlanCache fft_plans_;
  std::array<ChannelAssets, link::kNumDataChannels> assets_;
  std::array<bool, link::kNumDataChannels> assets_ready_{};

  std::vector<std::vector<chan::PathSet>> master_paths_;  // [anchor][antenna]
  bool master_paths_ready_ = false;
  /// Clean master->anchor full-PHY waveforms, [channel][antenna_offset + j]
  /// (first packet-length samples). Static across rounds like the paths;
  /// built lazily, each (channel, anchor) by the one task that owns it in a
  /// round (LocalizationRound visits every channel exactly once).
  std::vector<dsp::CVec> master_rx_;
  std::vector<std::vector<chan::PathSet>> tag_paths_;  // reused per round

  // Per-round scratch (reused buffers, sized events x anchors x antennas):
  // LO state is drawn serially per event in the legacy order, then the
  // parallel phase only reads it.
  std::vector<std::size_t> antenna_offset_;   // prefix sums, anchors + 1
  std::vector<dsp::cplx> ev_tag_rotor_;       // [event][antenna_offset + j]
  std::vector<dsp::cplx> ev_master_rotor_;    // [event][antenna_offset + j]
  std::vector<double> ev_tag_cfo_;            // [event][anchor]: tag - rx
  std::vector<double> ev_master_cfo_;         // [event][anchor]: master - rx
  std::vector<anchor::BandMeasurement> bands_;  // [event][anchor]
};

}  // namespace bloc::sim
