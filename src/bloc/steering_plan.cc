#include "bloc/steering_plan.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "dsp/complex_ops.h"
#include "dsp/simd_dispatch.h"

namespace bloc::core {

using dsp::cplx;
using dsp::kSpeedOfLight;
using dsp::kTwoPi;

SteeringPlanKey MakeSteeringPlanKey(const SpectraInput& input,
                                    const dsp::GridSpec& spec,
                                    double comb_step) {
  if (input.band_freqs_hz.empty()) {
    throw std::invalid_argument("spectra: no bands");
  }
  SteeringPlanKey key;
  key.grid = spec;
  const std::size_t antennas = detail::EffectiveAntennas(input);
  key.antennas.reserve(antennas);
  for (std::size_t j = 0; j < antennas; ++j) {
    key.antennas.push_back(input.geometry.AntennaPosition(j));
  }
  key.master_ref = input.master_ref_antenna;
  key.master_ref_distance = input.master_ref_distance;
  key.comb_f0 = input.band_freqs_hz.front();
  key.comb_step = comb_step;
  return key;
}

SteeringLevel SteeringLevel::Build(const dsp::GridSpec& spec,
                                   std::size_t stride) {
  if (!spec.Valid() || stride == 0) {
    throw std::invalid_argument("SteeringLevel: invalid spec or stride");
  }
  SteeringLevel level;
  level.stride = stride;
  level.fine_cols = spec.Cols();
  level.fine_rows = spec.Rows();
  if (level.fine_cols * level.fine_rows >
      std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("SteeringLevel: grid too large");
  }
  level.bcols = (level.fine_cols + stride - 1) / stride;
  level.brows = (level.fine_rows + stride - 1) / stride;
  level.sample_cells.reserve(level.bcols * level.brows);
  for (std::size_t br = 0; br < level.brows; ++br) {
    for (std::size_t bc = 0; bc < level.bcols; ++bc) {
      // The block's minimum corner is a member cell, so every coarse sample
      // is an exact fine-grid value (no interpolation anywhere).
      level.sample_cells.push_back(static_cast<std::uint32_t>(
          br * stride * level.fine_cols + bc * stride));
    }
  }
  return level;
}

void SteeringLevel::AppendBlockCells(std::size_t bc, std::size_t br,
                                     std::vector<std::uint32_t>& out) const {
  const std::size_t row0 = br * stride;
  const std::size_t col0 = bc * stride;
  const std::size_t row1 = std::min(row0 + stride, fine_rows);
  const std::size_t col1 = std::min(col0 + stride, fine_cols);
  for (std::size_t row = row0; row < row1; ++row) {
    for (std::size_t col = col0; col < col1; ++col) {
      out.push_back(static_cast<std::uint32_t>(row * fine_cols + col));
    }
  }
}

std::shared_ptr<const SteeringLevel> SteeringPlan::Level(
    std::size_t stride) const {
  std::lock_guard<std::mutex> lock(level_mu_);
  for (const auto& level : levels_) {
    if (level->stride == stride) return level;
  }
  levels_.push_back(
      std::make_shared<const SteeringLevel>(SteeringLevel::Build(key_.grid,
                                                                 stride)));
  return levels_.back();
}

SteeringPlan::SteeringPlan(SteeringPlanKey key) : key_(std::move(key)) {
  if (!key_.grid.Valid()) {
    throw std::invalid_argument("SteeringPlan: invalid grid spec");
  }
  if (key_.antennas.empty()) {
    throw std::invalid_argument("SteeringPlan: no antennas");
  }
  const dsp::GridSpec& spec = key_.grid;
  const std::size_t cols = spec.Cols();
  const std::size_t rows = spec.Rows();
  const std::size_t antennas = key_.antennas.size();
  cells_ = cols * rows;

  // The relative distances, and the D range the band tables must cover.
  rel_d_.reserve(antennas);
  for (std::size_t j = 0; j < antennas; ++j) rel_d_.emplace_back(spec);
  double d_min = std::numeric_limits<double>::infinity();
  double d_max = -d_min;
  for (std::size_t row = 0; row < rows; ++row) {
    const double y = spec.YOf(row);
    for (std::size_t col = 0; col < cols; ++col) {
      const geom::Vec2 x{spec.XOf(col), y};
      const double d_ref = geom::Distance(x, key_.master_ref);
      for (std::size_t j = 0; j < antennas; ++j) {
        const double d = geom::Distance(x, key_.antennas[j]);
        const double relative = d - d_ref - key_.master_ref_distance;
        if (!std::isfinite(relative)) {
          throw std::invalid_argument(
              "SteeringPlan: non-finite relative distance");
        }
        rel_d_[j].At(col, row) = relative;
        d_min = std::min(d_min, relative);
        d_max = std::max(d_max, relative);
      }
    }
  }

  // Table entry t sits at D = d0 + t h. Two entries of margin below d_min
  // keep every stencil's first tap (one below the cell's interval) at or
  // above entry 0; the length puts the last tap of the highest stencil
  // inside the table.
  constexpr double h = kBandTableStep;
  const double d0 = (std::floor(d_min / h) - 2.0) * h;
  const double span = std::floor((d_max - d0) / h) + 3.0;
  if (!(span * static_cast<double>(antennas) <
        static_cast<double>(std::numeric_limits<std::uint32_t>::max()))) {
    throw std::invalid_argument("SteeringPlan: band table too large");
  }
  const auto len = static_cast<std::size_t>(span);
  table_base_.Resize(len);
  table_step_.Resize(len);
  for (std::size_t t = 0; t < len; ++t) {
    const double d = d0 + static_cast<double>(t) * h;
    const cplx step = dsp::Rotor(kTwoPi * key_.comb_step * d / kSpeedOfLight);
    table_base_.re[t] = 1.0;
    table_base_.im[t] = 0.0;
    table_step_.re[t] = step.real();
    table_step_.im[t] = step.imag();
  }

  terms_.resize(cells_ * antennas);
  for (std::size_t cell = 0; cell < cells_; ++cell) {
    for (std::size_t j = 0; j < antennas; ++j) {
      const double relative = rel_d_[j].data()[cell];
      const double u = (relative - d0) / h;
      const double whole = std::floor(u);
      // The cell's cubic interpolates entries whole-1 .. whole+2. The hot
      // loop reads them unchecked, so this is the one place that bounds
      // them.
      if (!(whole >= 1.0 && whole + 2.0 < span)) {
        throw std::logic_error("SteeringPlan: band-table tap out of range");
      }
      PlanTerm& term = terms_[cell * antennas + j];
      const cplx base =
          dsp::Rotor(kTwoPi * key_.comb_f0 * relative / kSpeedOfLight);
      term.base_re = base.real();
      term.base_im = base.imag();
      term.frac = u - whole;
      term.interval = static_cast<std::uint32_t>(j * len) +
                      static_cast<std::uint32_t>(whole);
    }
  }
}

SteeringPlanCache::SteeringPlanCache() : SteeringPlanCache(SteeringCacheLimits{}) {}

SteeringPlanCache::SteeringPlanCache(SteeringCacheLimits limits)
    : limits_(limits),
      builds_metric_(obs::GetCounter("bloc.steering_plan_cache.builds")),
      lookups_metric_(obs::GetCounter("bloc.steering_plan_cache.lookups")),
      evictions_metric_(obs::GetCounter("bloc.steering_cache.evictions")),
      bytes_gauge_(obs::GetGauge("bloc.steering_cache.bytes")) {}

namespace {

/// Key equality against (input, spec) without materializing the key.
bool Matches(const SteeringPlanKey& key, const SpectraInput& input,
             const dsp::GridSpec& spec, double comb_f0, double comb_step,
             std::size_t antennas) {
  if (!(key.grid == spec) || key.antennas.size() != antennas ||
      key.master_ref != input.master_ref_antenna ||
      key.master_ref_distance != input.master_ref_distance ||
      key.comb_f0 != comb_f0 || key.comb_step != comb_step) {
    return false;
  }
  for (std::size_t j = 0; j < antennas; ++j) {
    if (key.antennas[j] != input.geometry.AntennaPosition(j)) return false;
  }
  return true;
}

}  // namespace

void SteeringPlanCache::EvictOverBudgetLocked() {
  // The front (MRU) plan always stays resident, even over-budget alone:
  // evicting the plan we are about to return would defeat the cache.
  while (plans_.size() > 1 &&
         (plans_.size() > limits_.max_plans || bytes_ > limits_.max_bytes)) {
    bytes_ -= plans_.back()->MemoryBytes();
    plans_.pop_back();
    ++evictions_;
    evictions_metric_.Inc();
  }
  bytes_gauge_.Set(static_cast<std::int64_t>(bytes_));
}

template <typename MatchFn, typename KeyFn>
std::shared_ptr<const SteeringPlan> SteeringPlanCache::Lookup(
    const MatchFn& matches, const KeyFn& make_key) {
  lookups_metric_.Inc();
  std::unique_lock<std::mutex> lock(mu_);
  ++lookups_;
  for (auto it = plans_.begin(); it != plans_.end(); ++it) {
    if (matches((*it)->key())) {
      std::rotate(plans_.begin(), it, it + 1);  // hit: move to MRU front
      return plans_.front();
    }
  }
  for (const Building& b : building_) {
    if (matches(b.key)) {
      const auto pending = b.plan;
      lock.unlock();
      return pending.get();  // rethrows if that build failed
    }
  }

  std::promise<std::shared_ptr<const SteeringPlan>> promise;
  // The entry is retired through its own iterator, never by key: a key
  // holding a NaN compares unequal to itself.
  const auto entry = building_.insert(
      building_.end(), {make_key(), promise.get_future().share()});
  const SteeringPlanKey& key = entry->key;
  lock.unlock();
  std::shared_ptr<const SteeringPlan> plan;
  std::exception_ptr error;
  try {
    plan = std::make_shared<const SteeringPlan>(key);
  } catch (...) {
    error = std::current_exception();
  }
  lock.lock();
  building_.erase(entry);
  if (error) {
    promise.set_exception(error);
    std::rethrow_exception(error);
  }
  ++builds_;
  builds_metric_.Inc();
  bytes_ += plan->MemoryBytes();
  plans_.insert(plans_.begin(), plan);
  EvictOverBudgetLocked();
  promise.set_value(plan);
  return plan;
}

std::shared_ptr<const SteeringPlan> SteeringPlanCache::GetOrBuild(
    const SteeringPlanKey& key) {
  return Lookup([&](const SteeringPlanKey& k) { return k == key; },
                [&] { return key; });
}

std::shared_ptr<const SteeringPlan> SteeringPlanCache::GetOrBuild(
    const SpectraInput& input, const dsp::GridSpec& spec, double comb_step) {
  if (input.band_freqs_hz.empty()) {
    throw std::invalid_argument("spectra: no bands");
  }
  const double comb_f0 = input.band_freqs_hz.front();
  const std::size_t antennas = detail::EffectiveAntennas(input);
  return Lookup(
      [&](const SteeringPlanKey& key) {
        return Matches(key, input, spec, comb_f0, comb_step, antennas);
      },
      [&] { return MakeSteeringPlanKey(input, spec, comb_step); });
}

std::size_t SteeringPlanCache::builds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return builds_;
}

std::size_t SteeringPlanCache::lookups() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lookups_;
}

std::size_t SteeringPlanCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

std::size_t SteeringPlanCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

namespace {

void CheckTable(const SteeringPlan& plan, const BandTable& table) {
  if (table.size() != plan.num_antennas() * plan.table_len() * 8) {
    throw std::invalid_argument("band table does not fit the steering plan");
  }
}

/// A complex value as an interleaved (re, im) lane pair. GCC/Clang lower
/// the element-wise arithmetic to whatever vectors the target has (two
/// scalar ops at worst), with per-lane IEEE semantics unchanged.
typedef double Pair __attribute__((vector_size(16)));

inline Pair LoadPair(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// e^{j 2 pi f0 D / c} B_j(D) of one (cell, antenna) term: the cubic of the
/// term's table interval at `frac`, times the base rotor. Every evaluation
/// path calls this one expression and the file is built with
/// -ffp-contract=off, so a cell's value never depends on which path
/// computed it.
inline Pair Term(const PlanTerm& p, const double* table) {
  const double* c = table + 8 * std::size_t{p.interval};
  const double s = p.frac;
  const Pair b = LoadPair(c) +
                 s * (LoadPair(c + 2) +
                      s * (LoadPair(c + 4) + s * LoadPair(c + 6)));
  // (b_re br - b_im bi, b_im br + b_re bi); negating a product is exact.
  const Pair swapped = {b[1], b[0]};
  const Pair sign = {-1.0, 1.0};
  return b * p.base_re + swapped * p.base_im * sign;
}

/// The Eq. 17 magnitude of one cell: the antenna terms summed coherently in
/// antenna order (the reference kernel's order).
inline double JointCell(const PlanTerm* terms, std::size_t antennas,
                        const double* table) {
  Pair acc = {0.0, 0.0};
  for (std::size_t j = 0; j < antennas; ++j) acc += Term(terms[j], table);
  return std::sqrt(acc[0] * acc[0] + acc[1] * acc[1]);
}

}  // namespace

void BuildBandTable(const SpectraInput& input, const SteeringPlan& plan,
                    BandTable& table, SpectraWorkspace& ws) {
  const std::size_t antennas = detail::EffectiveAntennas(input);
  detail::BuildComb(input, antennas, ws);
  if (!Matches(plan.key(), input, plan.key().grid, ws.comb_f0, ws.comb_step,
               antennas)) {
    throw std::invalid_argument("steering plan does not match (input, comb)");
  }
  const std::size_t len = plan.table_len();
  table.assign(antennas * len * 8, 0.0);
  dsp::SplitComplexVec& samples = ws.band_samples;
  samples.Resize(len);
  const dsp::SplitComplexVec& base = plan.table_base();
  const dsp::SplitComplexVec& step = plan.table_step();
  const dsp::simd::Kernels& kernels = dsp::simd::Active();
  for (std::size_t j = 0; j < antennas; ++j) {
    // std::complex is array-compatible with double pairs, so the dense comb
    // passes through as interleaved (re, im).
    kernels.walk(reinterpret_cast<const double*>(ws.dense[j].data()),
                 ws.comb_steps, base.re.data(), base.im.data(),
                 step.re.data(), step.im.data(), samples.re.data(),
                 samples.im.data(), len);
    // The cubic through samples i-1 .. i+2 (nodes -1, 0, 1, 2), in Horner
    // form around node 0. The plan never points a cell at an interval
    // without all four samples.
    for (std::size_t i = 1; i + 2 < len; ++i) {
      double* c = table.data() + 8 * (j * len + i);
      for (std::size_t part = 0; part < 2; ++part) {
        const double* v = part == 0 ? samples.re.data() : samples.im.data();
        const double pm = v[i - 1];
        const double p0 = v[i];
        const double p1 = v[i + 1];
        const double p2 = v[i + 2];
        c[part] = p0;
        c[2 + part] = p1 - p0 * 0.5 - pm * (1.0 / 3.0) - p2 * (1.0 / 6.0);
        c[4 + part] = (pm + p1) * 0.5 - p0;
        c[6 + part] = (p2 - pm) * (1.0 / 6.0) + (p0 - p1) * 0.5;
      }
    }
  }
}

namespace {

/// BuildBandTable into ws.table, for a full-grid map into `grid`.
void BuildGridTable(const SpectraInput& input, const SteeringPlan& plan,
                    const dsp::Grid2D& grid, SpectraWorkspace& ws) {
  if (!(grid.spec() == plan.key().grid)) {
    throw std::invalid_argument("steering plan does not match the grid");
  }
  BuildBandTable(input, plan, ws.table, ws);
}

}  // namespace

void JointLikelihoodMapInto(const SpectraInput& input, const SteeringPlan& plan,
                            dsp::Grid2D& grid, SpectraWorkspace& ws) {
  BuildGridTable(input, plan, grid, ws);
  double* out = grid.data().data();
  for (std::size_t c = 0; c < plan.num_cells(); ++c) {
    out[c] = JointCell(plan.terms(c), plan.num_antennas(), ws.table.data());
  }
}

void JointLikelihoodCellsInto(const SteeringPlan& plan, const BandTable& table,
                              std::span<const std::uint32_t> cells,
                              double* out) {
  CheckTable(plan, table);
  for (const std::uint32_t cell : cells) {
    if (cell >= plan.num_cells()) {
      throw std::invalid_argument(
          "JointLikelihoodCellsInto: cell index out of range");
    }
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out[i] = JointCell(plan.terms(cells[i]), plan.num_antennas(),
                       table.data());
  }
}

void JointLikelihoodSpansInto(const SteeringPlan& plan, const BandTable& table,
                              std::span<const CellSpan> spans, double* out) {
  CheckTable(plan, table);
  const std::size_t total = plan.num_cells();
  for (const CellSpan& sp : spans) {
    if (sp.begin > total || sp.length > total - sp.begin) {
      throw std::invalid_argument(
          "JointLikelihoodSpansInto: span out of range");
    }
  }
  const std::size_t antennas = plan.num_antennas();
  for (const CellSpan& sp : spans) {
    const PlanTerm* terms = plan.terms(sp.begin);
    for (std::size_t t = 0; t < sp.length; ++t) {
      *out++ = JointCell(terms + t * antennas, antennas, table.data());
    }
  }
}

void DistanceOnlyMapInto(const SpectraInput& input, const SteeringPlan& plan,
                         dsp::Grid2D& grid, SpectraWorkspace& ws) {
  BuildGridTable(input, plan, grid, ws);
  double* out = grid.data().data();
  for (std::size_t c = 0; c < plan.num_cells(); ++c) {
    const PlanTerm* terms = plan.terms(c);
    double sum = 0.0;
    for (std::size_t j = 0; j < plan.num_antennas(); ++j) {
      const Pair t = Term(terms[j], ws.table.data());
      sum += std::sqrt(t[0] * t[0] + t[1] * t[1]);
    }
    out[c] = sum;
  }
}

}  // namespace bloc::core
