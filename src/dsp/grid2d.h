// A dense 2-D grid over a rectangular region of the plane. Used for
// likelihood maps, precomputed distance fields and RMSE heatmaps.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace bloc::dsp {

/// Axis-aligned extent of a grid in world coordinates (metres).
struct GridSpec {
  double x_min = 0.0;
  double y_min = 0.0;
  double x_max = 1.0;
  double y_max = 1.0;
  double resolution = 0.1;  // cell size in metres

  bool operator==(const GridSpec&) const = default;

  std::size_t Cols() const;
  std::size_t Rows() const;
  /// World coordinate of the centre of cell (col, row).
  double XOf(std::size_t col) const;
  double YOf(std::size_t row) const;
  bool Valid() const;
};

class Grid2D {
 public:
  Grid2D() = default;
  explicit Grid2D(const GridSpec& spec, double fill = 0.0);

  /// Re-shapes the grid for `spec` and sets every cell to `fill`, reusing
  /// the existing allocation when capacity allows. After the first call
  /// with a given spec, repeated Resets are allocation-free.
  void Reset(const GridSpec& spec, double fill = 0.0);

  /// Sets every cell to `value` without changing the shape.
  void Fill(double value);

  double& At(std::size_t col, std::size_t row);
  double At(std::size_t col, std::size_t row) const;

  std::size_t cols() const { return cols_; }
  std::size_t rows() const { return rows_; }
  const GridSpec& spec() const { return spec_; }
  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  /// Index of the maximum cell as (col, row); throws on empty grid.
  struct Cell {
    std::size_t col = 0;
    std::size_t row = 0;
  };
  Cell ArgMax() const;
  double Max() const;
  double Sum() const;

  /// Scales so the maximum becomes 1 (no-op on all-zero grids). Returns
  /// the maximum it divided by.
  double NormalizePeak();
  /// Scales so cells sum to 1 (no-op on all-zero grids).
  void NormalizeSum();

  /// Adds `other` cell-wise; shapes must match.
  void Add(const Grid2D& other);

  /// World coordinates of a cell centre.
  double XOf(std::size_t col) const { return spec_.XOf(col); }
  double YOf(std::size_t row) const { return spec_.YOf(row); }

 private:
  GridSpec spec_;
  std::size_t cols_ = 0;
  std::size_t rows_ = 0;
  std::vector<double> data_;
};

}  // namespace bloc::dsp
