#include "dsp/grid2d.h"

#include <algorithm>
#include <cmath>
#include <cstring>

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
  // The std::max_element fold, m = m < x ? x : m, over 16 independent
  // lanes (eight 16-byte vectors) all seeded with data[0]: a NaN is
  // returned only from index 0, and any other NaN is skipped, as
  // max_element does.
  using V2 = double __attribute__((vector_size(16)));
  constexpr std::size_t kVecs = 8;
  constexpr std::size_t kBlock = 2 * kVecs;
  const double* d = data_.data();
  const std::size_t n = data_.size();
  V2 acc[kVecs];
  for (V2& a : acc) a = V2{d[0], d[0]};
  std::size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    for (std::size_t j = 0; j < kVecs; ++j) {
      V2 x;
      std::memcpy(&x, d + i + 2 * j, sizeof x);
      acc[j] = acc[j] < x ? x : acc[j];
    }
  }
  double m = d[0];
  for (const V2& a : acc) m = std::max(std::max(m, a[0]), a[1]);
  for (; i < n; ++i) m = std::max(m, d[i]);
  // Lanes lose max_element's pick among equal maxima, which only shows for
  // signed zeros: return the first zero, as max_element would.
  if (m == 0.0) return *std::find(d, d + n, 0.0);
  return m;
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
