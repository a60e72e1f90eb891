#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "dsp/grid2d.h"
#include "dsp/peaks.h"
#include "dsp/rng.h"

namespace bloc::dsp {
namespace {

GridSpec UnitSpec() {
  GridSpec spec;
  spec.x_min = 0.0;
  spec.y_min = 0.0;
  spec.x_max = 1.0;
  spec.y_max = 1.0;
  spec.resolution = 0.1;
  return spec;
}

TEST(GridSpec, Dimensions) {
  const GridSpec spec = UnitSpec();
  EXPECT_EQ(spec.Cols(), 11u);
  EXPECT_EQ(spec.Rows(), 11u);
  EXPECT_DOUBLE_EQ(spec.XOf(0), 0.0);
  EXPECT_NEAR(spec.XOf(10), 1.0, 1e-12);
  EXPECT_TRUE(spec.Valid());
}

TEST(GridSpec, InvalidSpecs) {
  GridSpec s = UnitSpec();
  s.resolution = 0.0;
  EXPECT_FALSE(s.Valid());
  s = UnitSpec();
  s.x_max = -1.0;
  EXPECT_FALSE(s.Valid());
}

TEST(Grid2D, AtReadsAndWrites) {
  Grid2D g(UnitSpec());
  g.At(3, 4) = 7.5;
  EXPECT_DOUBLE_EQ(g.At(3, 4), 7.5);
  EXPECT_DOUBLE_EQ(g.At(4, 3), 0.0);
}

TEST(Grid2D, ArgMaxAndMax) {
  Grid2D g(UnitSpec());
  g.At(2, 9) = 3.0;
  g.At(5, 5) = 9.0;
  const auto cell = g.ArgMax();
  EXPECT_EQ(cell.col, 5u);
  EXPECT_EQ(cell.row, 5u);
  EXPECT_DOUBLE_EQ(g.Max(), 9.0);
}

TEST(Grid2D, NormalizePeakAndSum) {
  Grid2D g(UnitSpec());
  g.At(1, 1) = 2.0;
  g.At(2, 2) = 4.0;
  g.NormalizePeak();
  EXPECT_DOUBLE_EQ(g.Max(), 1.0);
  EXPECT_DOUBLE_EQ(g.At(1, 1), 0.5);
  g.NormalizeSum();
  EXPECT_NEAR(g.Sum(), 1.0, 1e-12);
}

TEST(Grid2D, NormalizeZeroGridIsNoop) {
  Grid2D g(UnitSpec());
  EXPECT_NO_THROW(g.NormalizePeak());
  EXPECT_NO_THROW(g.NormalizeSum());
  EXPECT_DOUBLE_EQ(g.Sum(), 0.0);
}

TEST(Grid2D, AddRequiresSameShape) {
  Grid2D a(UnitSpec());
  GridSpec other = UnitSpec();
  other.x_max = 2.0;
  Grid2D b(other);
  EXPECT_THROW(a.Add(b), std::invalid_argument);
  Grid2D c(UnitSpec(), 1.0);
  a.Add(c);
  EXPECT_DOUBLE_EQ(a.At(0, 0), 1.0);
}

TEST(Grid2D, InvalidSpecThrows) {
  GridSpec bad = UnitSpec();
  bad.resolution = -1;
  EXPECT_THROW(Grid2D{bad}, std::invalid_argument);
}

TEST(FindPeaks, FindsIsolatedMaxima) {
  GridSpec spec = UnitSpec();
  spec.x_max = 2.0;
  spec.y_max = 2.0;
  Grid2D g(spec);
  g.At(3, 3) = 1.0;
  g.At(15, 15) = 0.8;
  PeakOptions opts;
  opts.min_relative_height = 0.5;
  const auto peaks = FindPeaks(g, opts);
  ASSERT_EQ(peaks.size(), 2u);
  EXPECT_EQ(peaks[0].col, 3u);       // strongest first
  EXPECT_DOUBLE_EQ(peaks[0].value, 1.0);
  EXPECT_EQ(peaks[1].col, 15u);
  EXPECT_NEAR(peaks[0].x, 0.3, 1e-12);
}

TEST(FindPeaks, SuppressesShouldersWithinRadius) {
  Grid2D g(UnitSpec());
  g.At(5, 5) = 1.0;
  g.At(6, 5) = 0.9;  // shoulder of the same blob
  PeakOptions opts;
  opts.neighborhood_radius = 2;
  const auto peaks = FindPeaks(g, opts);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0].col, 5u);
}

TEST(FindPeaks, HonorsFloorAndMaxPeaks) {
  Grid2D g(UnitSpec());
  g.At(1, 1) = 1.0;
  g.At(5, 5) = 0.1;  // below 20% floor
  EXPECT_EQ(FindPeaks(g).size(), 1u);

  Grid2D many(UnitSpec());
  many.At(1, 1) = 1.0;
  many.At(5, 5) = 0.9;
  many.At(9, 9) = 0.8;
  PeakOptions opts;
  opts.max_peaks = 2;
  EXPECT_EQ(FindPeaks(many, opts).size(), 2u);
}

TEST(FindPeaks, EmptyOnAllZero) {
  Grid2D g(UnitSpec());
  EXPECT_TRUE(FindPeaks(g).empty());
}

TEST(SpatialEntropy, SharpPeakLowerThanSpread) {
  GridSpec spec;
  spec.x_max = 3.0;
  spec.y_max = 3.0;
  spec.resolution = 0.1;
  Grid2D g(spec);
  // Sharp peak at (5,5): one hot cell.
  g.At(5, 5) = 1.0;
  // Spread blob around (20,20).
  for (int dx = -3; dx <= 3; ++dx) {
    for (int dy = -3; dy <= 3; ++dy) {
      g.At(static_cast<std::size_t>(20 + dx),
           static_cast<std::size_t>(20 + dy)) = 0.5;
    }
  }
  const double sharp = SpatialEntropy(g, 5, 5, 3);
  const double spread = SpatialEntropy(g, 20, 20, 3);
  EXPECT_LT(sharp, spread);
  EXPECT_NEAR(sharp, 0.0, 1e-12);  // all mass in one cell
}

TEST(SpatialEntropy, UniformWindowHitsMax) {
  Grid2D g(UnitSpec(), 1.0);
  const double h = SpatialEntropy(g, 5, 5, 3);
  EXPECT_NEAR(h, MaxSpatialEntropy(3), 1e-9);
}

TEST(SpatialEntropy, EmptyWindowIsZero) {
  Grid2D g(UnitSpec());
  EXPECT_DOUBLE_EQ(SpatialEntropy(g, 5, 5, 3), 0.0);
}

TEST(SpatialEntropy, EdgeWindowsClip) {
  Grid2D g(UnitSpec(), 1.0);
  // At a corner the circular window has fewer cells => lower max entropy.
  EXPECT_LT(SpatialEntropy(g, 0, 0, 3), MaxSpatialEntropy(3));
  EXPECT_GT(SpatialEntropy(g, 0, 0, 3), 0.0);
}

// ---- Equivalence with brute-force references ----------------------------

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Bit-identical, except that any NaN matches any NaN.
bool Same(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// A grid of exactly cols x rows cells.
Grid2D SizedGrid(std::size_t cols, std::size_t rows) {
  GridSpec spec;
  spec.resolution = 0.1;
  spec.x_max = (static_cast<double>(cols) - 0.5) * spec.resolution;
  spec.y_max = (static_cast<double>(rows) - 0.5) * spec.resolution;
  Grid2D g(spec);
  EXPECT_EQ(g.cols(), cols);
  EXPECT_EQ(g.rows(), rows);
  return g;
}

/// The full scan FindPeaks' prefilter must agree with: every cell passes the
/// floor test and the exact (2r+1)^2 neighbourhood check.
std::vector<Peak> BruteForcePeaks(const Grid2D& g, const PeakOptions& opts) {
  std::vector<Peak> peaks;
  const double global_max = *std::max_element(g.data().begin(), g.data().end());
  if (global_max <= 0.0) return peaks;
  const double floor = global_max * opts.min_relative_height;
  const auto r = static_cast<std::ptrdiff_t>(opts.neighborhood_radius);
  const auto cols = static_cast<std::ptrdiff_t>(g.cols());
  const auto rows = static_cast<std::ptrdiff_t>(g.rows());
  for (std::ptrdiff_t row = 0; row < rows; ++row) {
    for (std::ptrdiff_t col = 0; col < cols; ++col) {
      const double v = g.At(col, row);
      if (!(v >= floor)) continue;
      bool is_max = true;
      for (std::ptrdiff_t y = std::max<std::ptrdiff_t>(row - r, 0);
           y <= std::min(row + r, rows - 1); ++y) {
        for (std::ptrdiff_t c = std::max<std::ptrdiff_t>(col - r, 0);
             c <= std::min(col + r, cols - 1); ++c) {
          if (c == col && y == row) continue;
          const double n = g.At(c, y);
          if (n > v || (n == v && (y < row || (y == row && c < col)))) {
            is_max = false;
          }
        }
      }
      if (is_max) {
        peaks.push_back({static_cast<std::size_t>(col),
                         static_cast<std::size_t>(row), v, g.XOf(col),
                         g.YOf(row)});
      }
    }
  }
  std::sort(peaks.begin(), peaks.end(),
            [](const Peak& a, const Peak& b) { return a.value > b.value; });
  if (opts.max_peaks != 0 && peaks.size() > opts.max_peaks) {
    peaks.resize(opts.max_peaks);
  }
  return peaks;
}

void ExpectSamePeaks(const std::vector<Peak>& got,
                     const std::vector<Peak>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].col, want[i].col) << "peak " << i;
    EXPECT_EQ(got[i].row, want[i].row) << "peak " << i;
    EXPECT_TRUE(Same(got[i].value, want[i].value)) << "peak " << i;
    EXPECT_TRUE(Same(got[i].x, want[i].x)) << "peak " << i;
    EXPECT_TRUE(Same(got[i].y, want[i].y)) << "peak " << i;
  }
}

/// Random cells drawn from `levels` quantization steps (few levels make
/// ties and plateaus common), with a `special_rate` share of NaN/±inf.
void FillRandom(Grid2D& g, Rng& rng, int levels, double special_rate) {
  for (double& v : g.data()) {
    v = static_cast<double>(rng.UniformInt(0, levels)) / levels;
    if (rng.Chance(special_rate)) {
      const double specials[] = {kNaN, kInf, -kInf, -0.0};
      v = specials[rng.UniformInt(0, 3)];
    }
  }
}

TEST(FindPeaks, MatchesBruteForceOnRandomGrids) {
  Rng rng(0x9EA4);
  const std::size_t max_peaks[] = {0, 1, 3, 12};
  const double heights[] = {0.0, 0.2, 0.5};
  for (int trial = 0; trial < 600; ++trial) {
    // Sizes from 1x1 up: many grids are narrower or shorter than the
    // (2r+1)^2 window, and every grid has edge and corner cells.
    Grid2D g = SizedGrid(static_cast<std::size_t>(rng.UniformInt(1, 14)),
                         static_cast<std::size_t>(rng.UniformInt(1, 14)));
    const int levels = trial % 3 == 0 ? 3 : (trial % 3 == 1 ? 16 : 1 << 20);
    FillRandom(g, rng, levels, trial % 4 == 0 ? 0.05 : 0.0);
    PeakOptions opts;
    opts.neighborhood_radius = static_cast<std::size_t>(trial % 4);
    opts.min_relative_height = heights[trial % 3];
    opts.max_peaks = max_peaks[(trial / 4) % 4];
    SCOPED_TRACE(trial);
    ExpectSamePeaks(FindPeaks(g, opts), BruteForcePeaks(g, opts));
  }
}

TEST(FindPeaks, PeaksOnEdgesAndCorners) {
  Grid2D g = SizedGrid(9, 7);
  g.At(0, 0) = 1.0;
  g.At(8, 0) = 0.9;
  g.At(0, 6) = 0.8;
  g.At(8, 6) = 0.7;
  g.At(4, 0) = 0.6;
  g.At(8, 3) = 0.5;
  for (std::size_t radius = 0; radius <= 3; ++radius) {
    PeakOptions opts;
    opts.neighborhood_radius = radius;
    opts.min_relative_height = 0.0;
    opts.max_peaks = 0;
    SCOPED_TRACE(radius);
    const auto peaks = FindPeaks(g, opts);
    ExpectSamePeaks(peaks, BruteForcePeaks(g, opts));
    ASSERT_FALSE(peaks.empty());
    EXPECT_EQ(peaks[0].col, 0u);
    EXPECT_EQ(peaks[0].row, 0u);
  }
}

TEST(FindPeaks, PlateauTieBreaksTowardLowestIndex) {
  Grid2D g = SizedGrid(10, 10);
  for (std::size_t row = 3; row <= 5; ++row) {
    for (std::size_t col = 2; col <= 6; ++col) g.At(col, row) = 1.0;
  }
  const auto peaks = FindPeaks(g);
  ExpectSamePeaks(peaks, BruteForcePeaks(g, {}));
  // Every other plateau cell has an equal, lower-index cell within radius 2.
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0].col, 2u);
  EXPECT_EQ(peaks[0].row, 3u);
}

TEST(FindPeaks, NonFiniteCellsAreNeverPeaks) {
  Grid2D g = SizedGrid(12, 12);
  g.At(3, 3) = 1.0;
  g.At(9, 9) = 0.8;
  g.At(6, 6) = kNaN;
  g.At(0, 11) = -kInf;
  const auto peaks = FindPeaks(g);
  ExpectSamePeaks(peaks, BruteForcePeaks(g, {}));
  ASSERT_EQ(peaks.size(), 2u);

  // A NaN at index 0 is the grid maximum (as for std::max_element), so no
  // cell clears the NaN floor.
  g.At(0, 0) = kNaN;
  EXPECT_TRUE(FindPeaks(g).empty());

  // +inf cells are the only cells on an infinite floor.
  g.At(0, 0) = 0.0;
  g.At(9, 9) = kInf;
  const auto inf_peaks = FindPeaks(g);
  ExpectSamePeaks(inf_peaks, BruteForcePeaks(g, {}));
  ASSERT_EQ(inf_peaks.size(), 1u);
  EXPECT_EQ(inf_peaks[0].col, 9u);
}

/// std::max_element, then NormalizePeak's divide.
double ReferenceNormalize(std::vector<double>& data) {
  const double m = *std::max_element(data.begin(), data.end());
  if (m <= 0.0) return m;
  for (double& v : data) v /= m;
  return m;
}

void ExpectMaxAndNormalizeMatch(const std::vector<double>& values) {
  Grid2D g = SizedGrid(values.size(), 1);
  g.data() = values;
  std::vector<double> want = values;
  const double want_max = ReferenceNormalize(want);
  EXPECT_TRUE(Same(g.Max(), want_max)) << g.Max() << " vs " << want_max;
  EXPECT_TRUE(Same(g.NormalizePeak(), want_max));
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_TRUE(Same(g.data()[i], want[i])) << "cell " << i;
  }
}

TEST(Grid2D, MaxAndNormalizeMatchMaxElementOnEveryTail) {
  Rng rng(0x3A7);
  for (std::size_t n = 1; n <= 17; ++n) {
    SCOPED_TRACE(n);
    std::vector<double> values(n);
    for (double& v : values) v = rng.Uniform(-1.0, 1.0);
    ExpectMaxAndNormalizeMatch(values);

    // The maximum in every position, including the scalar tail.
    for (std::size_t at = 0; at < n; ++at) {
      std::vector<double> peaked = values;
      peaked[at] = 2.0;
      ExpectMaxAndNormalizeMatch(peaked);
    }

    std::vector<double> special = values;
    special[0] = kNaN;  // NaN at index 0 is max_element's answer
    ExpectMaxAndNormalizeMatch(special);
    special[0] = values[0];
    special[n - 1] = kNaN;  // NaN elsewhere is skipped
    ExpectMaxAndNormalizeMatch(special);
    special[n / 2] = -kInf;
    ExpectMaxAndNormalizeMatch(special);

    // All non-positive with signed zeros: max_element keeps the first zero.
    for (std::size_t first_zero = 0; first_zero < n; ++first_zero) {
      std::vector<double> zeros(n, -1.0);
      for (std::size_t i = first_zero; i < n; ++i) {
        zeros[i] = (i - first_zero) % 2 == 0 ? -0.0 : 0.0;
      }
      ExpectMaxAndNormalizeMatch(zeros);
      for (double& v : zeros) v = v == 0.0 ? -v : v;
      ExpectMaxAndNormalizeMatch(zeros);
    }
    ExpectMaxAndNormalizeMatch(std::vector<double>(n, -kInf));
  }

  // A later block puts +0 in a lower lane than the first zero, -0.
  std::vector<double> late_zero(40, -1.0);
  late_zero[5] = -0.0;
  late_zero[16] = 0.0;
  ExpectMaxAndNormalizeMatch(late_zero);
}

/// The previous SpatialEntropy: copies the window's positive values, then
/// normalizes them.
double ReferenceEntropy(const Grid2D& grid, std::size_t col, std::size_t row,
                        std::size_t radius_cells) {
  const auto r = static_cast<std::ptrdiff_t>(radius_cells);
  const auto cc = static_cast<std::ptrdiff_t>(col);
  const auto rr = static_cast<std::ptrdiff_t>(row);
  double total = 0.0;
  std::vector<double> vals;
  for (std::ptrdiff_t dy = -r; dy <= r; ++dy) {
    for (std::ptrdiff_t dx = -r; dx <= r; ++dx) {
      if (dx * dx + dy * dy > r * r) continue;
      const std::ptrdiff_t c = cc + dx;
      const std::ptrdiff_t y = rr + dy;
      if (c < 0 || y < 0 || c >= static_cast<std::ptrdiff_t>(grid.cols()) ||
          y >= static_cast<std::ptrdiff_t>(grid.rows())) {
        continue;
      }
      const double v = grid.At(c, y);
      if (v > 0) {
        vals.push_back(v);
        total += v;
      }
    }
  }
  if (total <= 0.0 || vals.empty()) return 0.0;
  double h = 0.0;
  for (double v : vals) {
    const double p = v / total;
    h -= p * std::log(p);
  }
  return h;
}

TEST(SpatialEntropy, MatchesCopyingReference) {
  Rng rng(0xE47);
  for (int trial = 0; trial < 200; ++trial) {
    Grid2D g = SizedGrid(static_cast<std::size_t>(rng.UniformInt(1, 12)),
                         static_cast<std::size_t>(rng.UniformInt(1, 12)));
    FillRandom(g, rng, trial % 2 == 0 ? 4 : 1 << 20, 0.0);
    for (double& v : g.data()) v -= 0.25;  // some non-positive cells
    const auto col = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(g.cols()) - 1));
    const auto row = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(g.rows()) - 1));
    const auto radius = static_cast<std::size_t>(trial % 5);
    SCOPED_TRACE(trial);
    EXPECT_TRUE(Same(SpatialEntropy(g, col, row, radius),
                     ReferenceEntropy(g, col, row, radius)));
  }
}

TEST(MaxSpatialEntropy, CountsCircularCells) {
  // radius 3 circular window in a 7x7 square = 29 cells.
  EXPECT_NEAR(MaxSpatialEntropy(3), std::log(29.0), 1e-12);
  EXPECT_DOUBLE_EQ(MaxSpatialEntropy(0), 0.0);
}

}  // namespace
}  // namespace bloc::dsp
