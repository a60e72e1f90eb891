#include "dsp/grid2d.h"

#include <algorithm>
#include <cmath>

namespace bloc::dsp {

std::size_t GridSpec::Cols() const {
  return static_cast<std::size_t>(
             std::floor((x_max - x_min) / resolution + 1e-9)) +
         1;
}

std::size_t GridSpec::Rows() const {
  return static_cast<std::size_t>(
             std::floor((y_max - y_min) / resolution + 1e-9)) +
         1;
}

double GridSpec::XOf(std::size_t col) const {
  return x_min + static_cast<double>(col) * resolution;
}

double GridSpec::YOf(std::size_t row) const {
  return y_min + static_cast<double>(row) * resolution;
}

bool GridSpec::Valid() const {
  return resolution > 0 && x_max > x_min && y_max > y_min;
}

Grid2D::Grid2D(const GridSpec& spec, double fill) { Reset(spec, fill); }

void Grid2D::Reset(const GridSpec& spec, double fill) {
  if (!spec.Valid()) throw std::invalid_argument("Grid2D: invalid spec");
  spec_ = spec;
  cols_ = spec.Cols();
  rows_ = spec.Rows();
  data_.assign(cols_ * rows_, fill);
}

void Grid2D::Fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

double& Grid2D::At(std::size_t col, std::size_t row) {
  return data_[row * cols_ + col];
}

double Grid2D::At(std::size_t col, std::size_t row) const {
  return data_[row * cols_ + col];
}

Grid2D::Cell Grid2D::ArgMax() const {
  if (data_.empty()) throw std::logic_error("Grid2D::ArgMax: empty grid");
  const auto it = std::max_element(data_.begin(), data_.end());
  const auto idx = static_cast<std::size_t>(it - data_.begin());
  return {idx % cols_, idx / cols_};
}

double Grid2D::Max() const {
  if (data_.empty()) return 0.0;
  return *std::max_element(data_.begin(), data_.end());
}

double Grid2D::Sum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

double Grid2D::NormalizePeak() {
  const double m = Max();
  if (m <= 0.0) return m;
  for (double& v : data_) v /= m;
  return m;
}

void Grid2D::NormalizeSum() {
  const double s = Sum();
  if (s <= 0.0) return;
  for (double& v : data_) v /= s;
}

void Grid2D::Add(const Grid2D& other) {
  if (other.cols_ != cols_ || other.rows_ != rows_) {
    throw std::invalid_argument("Grid2D::Add: shape mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

}  // namespace bloc::dsp
