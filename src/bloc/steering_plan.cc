#include "bloc/steering_plan.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
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
  // Span kernels address cells with 32-bit indices.
  if (cells_ > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("SteeringPlan: grid too large");
  }

  // The relative distances (build scratch, antenna-minor), and the D range
  // the band tables must cover.
  std::vector<double> rel_d(cells_ * antennas);
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
        rel_d[(row * cols + col) * antennas + j] = relative;
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
  // An antenna has at most cells_ lanes plus 7 padding lanes per interval,
  // and the lane map counts them in 32 bits.
  constexpr std::size_t kLanes = dsp::simd::kChunkLanes;
  if (cells_ + (kLanes - 1) * len > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("SteeringPlan: grid too large");
  }

  // The table interval holding D, and D's offset inside it. The interval's
  // cubic interpolates entries whole-1 .. whole+2. The hot loop reads them
  // unchecked, so this is the one place that bounds them.
  const auto stencil = [&](double relative, double& frac) {
    const double u = (relative - d0) / h;
    const double whole = std::floor(u);
    if (!(whole >= 1.0 && whole + 2.0 < span)) {
      throw std::logic_error("SteeringPlan: band-table tap out of range");
    }
    frac = u - whole;
    return static_cast<std::size_t>(whole);
  };

  // Counting sort by (antenna, interval): count the cells of each interval,
  // then lay each antenna's intervals out as whole chunks in ascending
  // order. `first` becomes the next free lane of each interval, counted
  // from its antenna's first lane.
  std::vector<std::uint32_t> first(antennas * len, 0);
  for (std::size_t cell = 0; cell < cells_; ++cell) {
    for (std::size_t j = 0; j < antennas; ++j) {
      double frac = 0.0;
      ++first[j * len + stencil(rel_d[cell * antennas + j], frac)];
    }
  }
  chunk_begin_.assign(antennas + 1, 0);
  for (std::size_t j = 0; j < antennas; ++j) {
    std::size_t lanes = 0;
    for (std::size_t i = 0; i < len; ++i) {
      const std::size_t count = first[j * len + i];
      first[j * len + i] = static_cast<std::uint32_t>(lanes);
      const std::size_t chunks = (count + kLanes - 1) / kLanes;
      chunk_interval_.insert(chunk_interval_.end(), chunks,
                             static_cast<std::uint32_t>(j * len + i));
      lanes += chunks * kLanes;
    }
    chunk_begin_[j + 1] = chunk_interval_.size();
    max_lanes_ = std::max(max_lanes_, lanes);
  }
  // Padding lanes stay zero terms.
  frac_.assign(chunk_interval_.size() * kLanes, 0.0);
  base_re_.assign(frac_.size(), 0.0);
  base_im_.assign(frac_.size(), 0.0);
  lane_.resize(antennas * cells_);

  // The one pass that computes the rotors writes each term straight into
  // its sorted lane.
  for (std::size_t cell = 0; cell < cells_; ++cell) {
    for (std::size_t j = 0; j < antennas; ++j) {
      const double relative = rel_d[cell * antennas + j];
      double frac = 0.0;
      const std::size_t whole = stencil(relative, frac);
      const std::uint32_t lane = first[j * len + whole]++;
      const std::size_t at = chunk_begin_[j] * kLanes + lane;
      const cplx base =
          dsp::Rotor(kTwoPi * key_.comb_f0 * relative / kSpeedOfLight);
      frac_[at] = frac;
      base_re_[at] = base.real();
      base_im_[at] = base.imag();
      lane_[j * cells_ + cell] = lane;
    }
  }
}

SteeringPlan::AntennaChunks SteeringPlan::chunks(std::size_t j) const {
  const std::size_t begin = chunk_begin_[j];
  const std::size_t lane0 = begin * dsp::simd::kChunkLanes;
  return {chunk_begin_[j + 1] - begin, chunk_interval_.data() + begin,
          frac_.data() + lane0,        base_re_.data() + lane0,
          base_im_.data() + lane0,     lane_.data() + j * cells_};
}

SteeringPlanCache::SteeringPlanCache() : SteeringPlanCache(SteeringCacheLimits{}) {}

SteeringPlanCache::SteeringPlanCache(SteeringCacheLimits limits)
    : limits_(limits),
      builds_metric_(obs::GetCounter("bloc.steering_plan_cache.builds")),
      lookups_metric_(obs::GetCounter("bloc.steering_plan_cache.lookups")),
      evictions_metric_(obs::GetCounter("bloc.steering_plan_cache.evictions")),
      bytes_gauge_(obs::GetGauge("bloc.steering_plan_cache.bytes")) {}

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

/// Grows `v` to `n` elements with no slack (resize alone grows capacity
/// geometrically) and never shrinks it, so a workspace shared by several
/// plans settles at the largest plan's exact need and stops allocating.
template <typename Vec>
void Grow(Vec& v, std::size_t n) {
  if (v.size() < n) {
    v.reserve(n);
    v.resize(n);
  }
}

/// The antenna sum of every cell of `spans`: per antenna, in antenna
/// order, the dispatched chunk kernel evaluates all of its terms into
/// ws.terms as (re, im) pairs, `transform` rewrites them in place (lane
/// count given), and the gather kernel adds each requested cell's term to
/// its ws.acc accumulator (antenna 0 starts it from zero). With `magnitude`
/// set, the last antenna writes each cell's sqrt(re^2 + im^2) to
/// magnitude[cell] instead.
template <typename Transform>
void AccumulateSpans(const SteeringPlan& plan, const BandTable& table,
                     std::span<const CellSpan> spans, SpectraWorkspace& ws,
                     const dsp::simd::Kernels& kernels,
                     const Transform& transform, double* magnitude) {
  CheckTable(plan, table);
  const std::size_t total = plan.num_cells();
  std::size_t end = 0;
  for (const CellSpan& sp : spans) {
    if (sp.begin < end || sp.begin > total || sp.length > total - sp.begin) {
      throw std::invalid_argument(
          "plan kernel: spans out of range, overlapping or out of order");
    }
    end = sp.begin + sp.length;
  }
  Grow(ws.terms, 2 * plan.max_lanes());
  Grow(ws.acc.re, total);
  Grow(ws.acc.im, total);
  double* term = ws.terms.data();
  if (reinterpret_cast<std::uintptr_t>(term) % 64 != 0) {
    throw std::logic_error("plan kernel: chunk terms not 64-byte aligned");
  }
  const std::size_t antennas = plan.num_antennas();
  for (std::size_t j = 0; j < antennas; ++j) {
    const SteeringPlan::AntennaChunks ch = plan.chunks(j);
    kernels.chunk_terms(table.data(), ch.interval, ch.frac, ch.base_re,
                        ch.base_im, term, ch.count);
    transform(term, ch.lanes());
    const bool last = magnitude != nullptr && j + 1 == antennas;
    for (const CellSpan& sp : spans) {
      kernels.gather_add(term, ch.lane + sp.begin, j == 0,
                         ws.acc.re.data() + sp.begin,
                         ws.acc.im.data() + sp.begin,
                         last ? magnitude + sp.begin : nullptr, sp.length);
    }
  }
}

}  // namespace

void JointLikelihoodSpansInto(const SteeringPlan& plan, const BandTable& table,
                              std::span<const CellSpan> spans, double* out,
                              SpectraWorkspace& ws,
                              const dsp::simd::Kernels& kernels) {
  AccumulateSpans(plan, table, spans, ws, kernels,
                  [](double*, std::size_t) {}, out);
}

void JointLikelihoodMapInto(const SpectraInput& input, const SteeringPlan& plan,
                            dsp::Grid2D& grid, SpectraWorkspace& ws) {
  BuildGridTable(input, plan, grid, ws);
  const CellSpan all{0, static_cast<std::uint32_t>(plan.num_cells())};
  JointLikelihoodSpansInto(plan, ws.table, {&all, 1}, grid.data().data(), ws);
}

void DistanceOnlyMapInto(const SpectraInput& input, const SteeringPlan& plan,
                         dsp::Grid2D& grid, SpectraWorkspace& ws,
                         const dsp::simd::Kernels& kernels) {
  BuildGridTable(input, plan, grid, ws);
  const CellSpan all{0, static_cast<std::uint32_t>(plan.num_cells())};
  // Eq. 16 sums the antennas incoherently: each term becomes its magnitude
  // (imaginary part zero) before the gather adds it.
  AccumulateSpans(plan, ws.table, {&all, 1}, ws, kernels,
                  [](double* term, std::size_t lanes) {
                    for (std::size_t l = 0; l < lanes; ++l) {
                      double* t = term + 2 * l;
                      t[0] = std::sqrt(t[0] * t[0] + t[1] * t[1]);
                      t[1] = 0.0;
                    }
                  },
                  nullptr);
  std::copy_n(ws.acc.re.data(), plan.num_cells(), grid.data().data());
}

}  // namespace bloc::core
