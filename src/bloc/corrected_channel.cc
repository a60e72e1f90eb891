#include "bloc/corrected_channel.h"

#include <algorithm>
#include <stdexcept>

namespace bloc::core {

using anchor::BandMeasurement;
using anchor::CsiReport;
using dsp::cplx;

void RoundView::Begin(const net::MeasurementRound& r) {
  round = &r;
  num_reports_ = 0;
}

RoundView::ReportView& RoundView::Append(std::size_t report_index) {
  if (num_reports_ == pool_.size()) pool_.emplace_back();
  ReportView& rv = pool_[num_reports_++];
  rv.report_index = report_index;
  rv.bands.clear();
  return rv;
}

void RoundView::AssignAll(const net::MeasurementRound& r) {
  Begin(r);
  for (std::size_t i = 0; i < r.reports.size(); ++i) {
    ReportView& rv = Append(i);
    for (std::size_t k = 0; k < r.reports[i].bands.size(); ++k) {
      rv.bands.push_back(k);
    }
  }
}

void ComputeCorrectedChannelsInto(const RoundView& view,
                                  CorrectedChannels& out) {
  const std::size_t reports = view.num_reports();
  std::size_t master_index = reports;
  for (std::size_t i = 0; i < reports; ++i) {
    if (view.Report(i).is_master) {
      if (master_index != reports) {
        throw std::invalid_argument("corrected channels: multiple masters");
      }
      master_index = i;
    }
  }
  if (master_index == reports) {
    throw std::invalid_argument("corrected channels: no master report");
  }

  // Per kept report, data channel -> its kept band entry (the first one
  // when a channel repeats), or nullptr. The scratch is thread_local so
  // per-round recomputation stays allocation-free; each engine worker has
  // its own copy.
  constexpr std::size_t kChannels = 256;
  thread_local std::vector<const BandMeasurement*> band_of;
  band_of.assign(reports * kChannels, nullptr);
  for (std::size_t i = 0; i < reports; ++i) {
    const CsiReport& report = view.Report(i);
    const BandMeasurement** row = band_of.data() + i * kChannels;
    for (std::size_t k : view.View(i).bands) {
      const BandMeasurement& band = report.bands[k];
      if (row[band.data_channel] == nullptr) row[band.data_channel] = &band;
    }
  }
  const auto kept_band = [&](std::size_t i, std::uint8_t channel) {
    return band_of[i * kChannels + channel];
  };

  // Bands present in every kept report (channel hops can be lost to noise).
  thread_local std::vector<std::uint8_t> common;
  common.clear();
  const CsiReport& master = view.Report(master_index);
  for (std::size_t k : view.View(master_index).bands) {
    const std::uint8_t channel = master.bands[k].data_channel;
    bool everywhere = true;
    for (std::size_t i = 0; i < reports; ++i) {
      if (kept_band(i, channel) == nullptr) {
        everywhere = false;
        break;
      }
    }
    if (everywhere) common.push_back(channel);
  }
  if (common.empty()) {
    throw std::invalid_argument("corrected channels: no common bands");
  }
  std::sort(common.begin(), common.end(),
            [&](std::uint8_t a, std::uint8_t b) {
              return kept_band(master_index, a)->freq_hz <
                     kept_band(master_index, b)->freq_hz;
            });

  out.band_channels.assign(common.begin(), common.end());
  out.band_freqs_hz.clear();
  out.band_freqs_hz.reserve(common.size());
  for (std::uint8_t c : common) {
    out.band_freqs_hz.push_back(kept_band(master_index, c)->freq_hz);
  }

  out.anchors.resize(reports);
  for (std::size_t i = 0; i < reports; ++i) {
    const CsiReport& r = view.Report(i);
    AnchorCorrected& ac = out.anchors[i];
    ac.anchor_id = r.anchor_id;
    ac.is_master = r.is_master;
    const std::size_t antennas =
        r.bands[view.View(i).bands.front()].tag_csi.size();
    ac.alpha.resize(antennas);
    for (std::size_t j = 0; j < antennas; ++j) {
      ac.alpha[j].assign(common.size(), cplx{0, 0});
    }
    for (std::size_t k = 0; k < common.size(); ++k) {
      const BandMeasurement* band = kept_band(i, common[k]);
      const BandMeasurement* mband = kept_band(master_index, common[k]);
      const cplx h00 = mband->tag_csi.at(0);
      for (std::size_t j = 0; j < antennas; ++j) {
        const cplx h_ij = band->tag_csi.at(j);
        if (r.is_master) {
          ac.alpha[j][k] = h_ij * std::conj(h00);
        } else {
          // Overheard master response, measured at this anchor's antenna 0.
          const cplx big_h_i0 = band->master_csi.at(0);
          ac.alpha[j][k] = h_ij * std::conj(big_h_i0) * std::conj(h00);
        }
      }
    }
  }
}

CorrectedChannels ComputeCorrectedChannels(
    const net::MeasurementRound& round) {
  RoundView view;
  view.AssignAll(round);
  CorrectedChannels out;
  ComputeCorrectedChannelsInto(view, out);
  return out;
}

}  // namespace bloc::core
