// 2-D local-maxima detection with neighbourhood suppression, and the
// circular-window spatial entropy BLoc uses to tell direct paths (sharp
// peaks) from reflections (spatially spread peaks) — paper Section 5.4.
#pragma once

#include <cstddef>
#include <vector>

#include "dsp/grid2d.h"

namespace bloc::dsp {

struct Peak {
  std::size_t col = 0;
  std::size_t row = 0;
  double value = 0.0;
  double x = 0.0;  // world coordinates of the cell centre
  double y = 0.0;
};

struct PeakOptions {
  /// A cell is a peak if it is the strict maximum of the (2r+1)^2 square
  /// neighbourhood around it.
  std::size_t neighborhood_radius = 2;
  /// Discard peaks below this fraction of the global maximum.
  double min_relative_height = 0.2;
  /// Keep at most this many peaks (strongest first); 0 = unlimited.
  std::size_t max_peaks = 12;
};

/// Finds local maxima of `grid`, strongest first. A separable running max
/// over each cell's square skips every cell with a larger neighbour before
/// the exact check (plateau ties go to the lowest row-major index), so the
/// result equals a full scan. NaN cells, and every cell when the grid
/// maximum is NaN, are never peaks.
std::vector<Peak> FindPeaks(const Grid2D& grid, const PeakOptions& opts = {});

/// Shannon entropy (nats) of the likelihood mass inside a circular window of
/// `radius_cells` around (col, row). The window values are normalized to a
/// probability distribution first. A sharp peak concentrates mass in few
/// cells => low entropy; a spread (reflection) blob => high entropy.
/// Allocation-free: it sums the window, then accumulates -p log p.
double SpatialEntropy(const Grid2D& grid, std::size_t col, std::size_t row,
                      std::size_t radius_cells);

/// Maximum attainable entropy for the same window (uniform distribution);
/// useful to normalize entropies into [0, 1].
double MaxSpatialEntropy(std::size_t radius_cells);

}  // namespace bloc::dsp
