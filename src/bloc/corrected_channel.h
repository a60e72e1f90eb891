// BLoc's phase-offset cancellation (paper §5.2, Eq. 7-10).
//
// Measured channels carry e^{j(phi_T - phi_Ri)} garbage that changes on
// every frequency retune. For a slave anchor i, combining the overheard
// tag packet (h-hat_ij), the overheard master response (H-hat_i0) and the
// master's own measurement of the tag (h-hat_00) as
//
//     alpha_ij = h-hat_ij * conj(H-hat_i0) * conj(h-hat_00)
//
// cancels every offset: the result depends only on physical path geometry.
// For the master anchor itself, alpha_0j = h-hat_0j * conj(h-hat_00) — both
// factors share the same phi_T - phi_R0, so offsets cancel and the Eq. 14
// exponent reduces to the d_i0 = 0 case.
#pragma once

#include <cstdint>
#include <vector>

#include "anchor/csi_report.h"
#include "dsp/types.h"
#include "net/messages.h"

namespace bloc::core {

/// A filtered view over one MeasurementRound: index lists selecting the
/// reports and bands to process, with no copies of the CSI payloads. View
/// entries are pooled so a reused RoundView filters round after round
/// without heap allocations once its high-water capacity is reached.
struct RoundView {
  struct ReportView {
    std::size_t report_index = 0;
    std::vector<std::size_t> bands;  // kept indices into the report's bands
  };

  const net::MeasurementRound* round = nullptr;

  /// Starts a fresh (empty) view over `r`; keeps pooled capacity.
  void Begin(const net::MeasurementRound& r);
  /// Selects every report and every band of `r`.
  void AssignAll(const net::MeasurementRound& r);
  /// Appends report `report_index` with an empty band list and returns it.
  ReportView& Append(std::size_t report_index);
  /// Drops the most recently appended report (e.g. all bands filtered).
  void RemoveLast() {
    if (num_reports_ > 0) --num_reports_;
  }

  std::size_t num_reports() const { return num_reports_; }
  const ReportView& View(std::size_t i) const { return pool_[i]; }
  const anchor::CsiReport& Report(std::size_t i) const {
    return round->reports[pool_[i].report_index];
  }

 private:
  std::vector<ReportView> pool_;  // only the first num_reports_ are live
  std::size_t num_reports_ = 0;
};

struct AnchorCorrected {
  std::uint32_t anchor_id = 0;
  bool is_master = false;
  /// alpha[antenna][band_index], aligned with CorrectedChannels::band_*.
  std::vector<dsp::CVec> alpha;
};

struct CorrectedChannels {
  /// Bands common to every report in the round, ascending by frequency.
  std::vector<std::uint8_t> band_channels;
  std::vector<double> band_freqs_hz;
  std::vector<AnchorCorrected> anchors;

  std::size_t num_bands() const { return band_freqs_hz.size(); }
};

/// Computes corrected channels for a complete measurement round. Throws if
/// the round has no master report or no common bands.
CorrectedChannels ComputeCorrectedChannels(const net::MeasurementRound& round);

/// In-place variant over a filtered view: writes into `out`, reusing its
/// buffers (allocation-free in steady state for a fixed deployment shape).
/// Same failure modes as ComputeCorrectedChannels.
void ComputeCorrectedChannelsInto(const RoundView& view,
                                  CorrectedChannels& out);

}  // namespace bloc::core
