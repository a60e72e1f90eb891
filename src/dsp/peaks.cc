#include "dsp/peaks.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace bloc::dsp {

namespace {

bool IsLocalMax(const Grid2D& g, std::size_t col, std::size_t row,
                std::size_t radius) {
  const double v = g.At(col, row);
  const auto c0 = col >= radius ? col - radius : 0;
  const auto r0 = row >= radius ? row - radius : 0;
  const auto c1 = std::min(col + radius, g.cols() - 1);
  const auto r1 = std::min(row + radius, g.rows() - 1);
  for (std::size_t r = r0; r <= r1; ++r) {
    for (std::size_t c = c0; c <= c1; ++c) {
      if (c == col && r == row) continue;
      if (g.At(c, r) > v) return false;
      // Break plateau ties deterministically toward the lowest index.
      if (g.At(c, r) == v && (r < row || (r == row && c < col))) return false;
    }
  }
  return true;
}

/// Calls `f(v)` for every positive cell of the circular window of `radius`
/// around (col, row), clipped to the grid, in row-major order.
template <typename F>
void ForEachPositiveInDisk(const Grid2D& grid, std::size_t col,
                           std::size_t row, std::size_t radius, F&& f) {
  const auto r = static_cast<std::ptrdiff_t>(radius);
  const auto cc = static_cast<std::ptrdiff_t>(col);
  const auto rr = static_cast<std::ptrdiff_t>(row);
  const auto cols = static_cast<std::ptrdiff_t>(grid.cols());
  const auto rows = static_cast<std::ptrdiff_t>(grid.rows());
  for (std::ptrdiff_t dy = -r; dy <= r; ++dy) {
    const std::ptrdiff_t y = rr + dy;
    if (y < 0 || y >= rows) continue;
    for (std::ptrdiff_t dx = -r; dx <= r; ++dx) {
      if (dx * dx + dy * dy > r * r) continue;  // circular window
      const std::ptrdiff_t c = cc + dx;
      if (c < 0 || c >= cols) continue;
      const double v =
          grid.At(static_cast<std::size_t>(c), static_cast<std::size_t>(y));
      if (v > 0) f(v);
    }
  }
}

}  // namespace

std::vector<Peak> FindPeaks(const Grid2D& grid, const PeakOptions& opts) {
  std::vector<Peak> peaks;
  const double global_max = grid.Max();
  if (global_max <= 0.0) return peaks;
  const double floor = global_max * opts.min_relative_height;
  const std::size_t cols = grid.cols();
  const std::size_t rows = grid.rows();
  const std::size_t radius = opts.neighborhood_radius;
  const double* data = grid.data().data();

  // Separable running max of the clipped (2r+1)^2 window: `colmax` holds
  // each column's max over the window rows, padded by `radius` -inf cells
  // per side; `winmax` the max of `colmax` over the window columns. A cell
  // below its window max has a larger neighbour, so IsLocalMax would reject
  // it too; only the survivors pay for the exact check. Every max is one of
  // the window's own values or the padding, so a NaN can only keep a cell,
  // never drop it.
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  std::vector<double> colmax(cols + 2 * radius, kNegInf);
  std::vector<double> winmax(cols);
  double* padded = colmax.data() + radius;
  for (std::size_t row = 0; row < rows; ++row) {
    const std::size_t r0 = row >= radius ? row - radius : 0;
    const std::size_t r1 = std::min(row + radius, rows - 1);
    std::copy_n(data + r0 * cols, cols, padded);
    for (std::size_t r = r0 + 1; r <= r1; ++r) {
      const double* src = data + r * cols;
      for (std::size_t c = 0; c < cols; ++c) {
        padded[c] = std::max(padded[c], src[c]);
      }
    }
    std::copy_n(colmax.data(), cols, winmax.data());
    for (std::size_t d = 1; d <= 2 * radius; ++d) {
      const double* src = colmax.data() + d;
      for (std::size_t c = 0; c < cols; ++c) {
        winmax[c] = std::max(winmax[c], src[c]);
      }
    }
    const double* values = data + row * cols;
    for (std::size_t col = 0; col < cols; ++col) {
      const double v = values[col];
      if (winmax[col] > v) continue;
      // Negated so a NaN cell (or a NaN floor) is never a peak.
      if (!(v >= floor)) continue;
      if (!IsLocalMax(grid, col, row, radius)) continue;
      peaks.push_back({col, row, v, grid.XOf(col), grid.YOf(row)});
    }
  }
  std::sort(peaks.begin(), peaks.end(),
            [](const Peak& a, const Peak& b) { return a.value > b.value; });
  if (opts.max_peaks != 0 && peaks.size() > opts.max_peaks) {
    peaks.resize(opts.max_peaks);
  }
  return peaks;
}

double SpatialEntropy(const Grid2D& grid, std::size_t col, std::size_t row,
                      std::size_t radius_cells) {
  // Two passes over the window instead of a copy of its values: the total
  // first, then -p log p, both in the same cell order.
  double total = 0.0;
  ForEachPositiveInDisk(grid, col, row, radius_cells,
                        [&](double v) { total += v; });
  if (total <= 0.0) return 0.0;
  double h = 0.0;
  ForEachPositiveInDisk(grid, col, row, radius_cells, [&](double v) {
    const double p = v / total;
    h -= p * std::log(p);
  });
  return h;
}

double MaxSpatialEntropy(std::size_t radius_cells) {
  const auto r = static_cast<std::ptrdiff_t>(radius_cells);
  std::size_t n = 0;
  for (std::ptrdiff_t dy = -r; dy <= r; ++dy) {
    for (std::ptrdiff_t dx = -r; dx <= r; ++dx) {
      if (dx * dx + dy * dy <= r * r) ++n;
    }
  }
  return n > 0 ? std::log(static_cast<double>(n)) : 0.0;
}

}  // namespace bloc::dsp
