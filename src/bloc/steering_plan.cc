#include "bloc/steering_plan.h"

#include <algorithm>
#include <cmath>
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

  rel_d_.reserve(antennas);
  base_.resize(antennas);
  step_.resize(antennas);
  for (std::size_t j = 0; j < antennas; ++j) {
    rel_d_.emplace_back(spec);
    base_[j].Resize(cells_);
    step_[j].Resize(cells_);
  }

  // The phase expressions replicate the reference kernel (spectra.cc
  // BandSum) term-for-term so both kernels agree to the last ulp.
  for (std::size_t row = 0; row < rows; ++row) {
    const double y = spec.YOf(row);
    for (std::size_t col = 0; col < cols; ++col) {
      const geom::Vec2 x{spec.XOf(col), y};
      const double d_ref = geom::Distance(x, key_.master_ref);
      const std::size_t cell = row * cols + col;
      for (std::size_t j = 0; j < antennas; ++j) {
        const double d = geom::Distance(x, key_.antennas[j]);
        const double relative = d - d_ref - key_.master_ref_distance;
        rel_d_[j].At(col, row) = relative;
        const double base_phi = kTwoPi * key_.comb_f0 * relative /
                                kSpeedOfLight;
        const double step_phi = kTwoPi * key_.comb_step * relative /
                                kSpeedOfLight;
        const cplx base = dsp::Rotor(base_phi);
        const cplx step = dsp::Rotor(step_phi);
        base_[j].re[cell] = base.real();
        base_[j].im[cell] = base.imag();
        step_[j].re[cell] = step.real();
        step_[j].im[cell] = step.imag();
      }
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

// The hot loops live in dsp/simd_dispatch.cc as explicit scalar/AVX2/
// AVX-512 variants of the split-complex MAC+rotate, selected once per
// process from the CPU probe (and the BLOC_FORCE_ISA override). All
// variants are bit-identical per element, so kernel choice never affects
// results.

/// Runs the comb walk over `n` cells whose base/step rotors start at the
/// given pointers: ws.acc ends up holding sum_k alpha_k e^{j 2 pi f_k D / c}
/// per cell. The fused `walk` kernel holds the per-cell rotor state and
/// accumulator in registers for the whole walk, so the only memory traffic
/// is one streaming read of base/step and one write of acc. std::complex
/// is array-compatible with double pairs, so the dense comb passes through
/// as interleaved (re, im).
void WalkComb(const double* base_re, const double* base_im,
              const double* step_re, const double* step_im,
              const dsp::CVec& dense, SpectraWorkspace& ws, std::size_t n) {
  ws.acc.Resize(n);
  dsp::simd::Active().walk(reinterpret_cast<const double*>(dense.data()),
                           ws.comb_steps, base_re, base_im, step_re, step_im,
                           ws.acc.re.data(), ws.acc.im.data(), n);
}

/// WalkComb over the full grid of antenna `j`.
void WalkAntenna(const SteeringPlan& plan, std::size_t j,
                 const dsp::CVec& dense, SpectraWorkspace& ws) {
  WalkComb(plan.base_re(j), plan.base_im(j), plan.step_re(j), plan.step_im(j),
           dense, ws, plan.num_cells());
}

void CheckPlan(const SpectraInput& input, const SteeringPlan& plan,
               const dsp::Grid2D& grid, const SpectraWorkspace& ws,
               std::size_t antennas) {
  if (!Matches(plan.key(), input, grid.spec(), ws.comb_f0, ws.comb_step,
               antennas)) {
    throw std::invalid_argument(
        "steering plan does not match (input, grid, comb)");
  }
}

}  // namespace

void JointLikelihoodMapInto(const SpectraInput& input, const SteeringPlan& plan,
                            dsp::Grid2D& grid, SpectraWorkspace& ws) {
  const std::size_t antennas = detail::EffectiveAntennas(input);
  detail::BuildComb(input, antennas, ws);
  CheckPlan(input, plan, grid, ws, antennas);
  const std::size_t cells = plan.num_cells();
  ws.acc.Resize(cells);
  // Per-antenna partial sums land in ws.acc and are added into ws.total in
  // antenna order — the same summation order as the reference kernel, so
  // the floating-point result is unchanged.
  ws.total.re.assign(cells, 0.0);
  ws.total.im.assign(cells, 0.0);
  for (std::size_t j = 0; j < antennas; ++j) {
    WalkAntenna(plan, j, ws.dense[j], ws);
    const double* __restrict acc_re = ws.acc.re.data();
    const double* __restrict acc_im = ws.acc.im.data();
    double* __restrict tot_re = ws.total.re.data();
    double* __restrict tot_im = ws.total.im.data();
    for (std::size_t c = 0; c < cells; ++c) {
      tot_re[c] += acc_re[c];
      tot_im[c] += acc_im[c];
    }
  }
  const double* tot_re = ws.total.re.data();
  const double* tot_im = ws.total.im.data();
  double* out = grid.data().data();
  // std::abs(cplx) lowers to hypot; use it here too for exact agreement.
  for (std::size_t c = 0; c < cells; ++c) {
    out[c] = std::hypot(tot_re[c], tot_im[c]);
  }
}

void JointLikelihoodCellsInto(const SpectraInput& input,
                              const SteeringPlan& plan,
                              std::span<const std::uint32_t> cells,
                              double* out, SpectraWorkspace& ws) {
  const std::size_t antennas = detail::EffectiveAntennas(input);
  detail::BuildComb(input, antennas, ws);
  if (!Matches(plan.key(), input, plan.key().grid, ws.comb_f0, ws.comb_step,
               antennas)) {
    throw std::invalid_argument(
        "steering plan does not match (input, comb)");
  }
  const std::size_t n = cells.size();
  const std::size_t total = plan.num_cells();
  ws.acc.Resize(n);
  ws.gbase.Resize(n);
  ws.gstep.Resize(n);
  ws.total.re.assign(n, 0.0);
  ws.total.im.assign(n, 0.0);
  for (std::size_t j = 0; j < antennas; ++j) {
    // Gather the subset's rotors into contiguous scratch; the walk itself
    // then runs the same dispatched kernels as the full-grid path.
    const double* b_re = plan.base_re(j);
    const double* b_im = plan.base_im(j);
    const double* s_re = plan.step_re(j);
    const double* s_im = plan.step_im(j);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t cell = cells[i];
      if (cell >= total) {
        throw std::invalid_argument(
            "JointLikelihoodCellsInto: cell index out of range");
      }
      ws.gbase.re[i] = b_re[cell];
      ws.gbase.im[i] = b_im[cell];
      ws.gstep.re[i] = s_re[cell];
      ws.gstep.im[i] = s_im[cell];
    }
    WalkComb(ws.gbase.re.data(), ws.gbase.im.data(), ws.gstep.re.data(),
             ws.gstep.im.data(), ws.dense[j], ws, n);
    const double* __restrict acc_re = ws.acc.re.data();
    const double* __restrict acc_im = ws.acc.im.data();
    double* __restrict tot_re = ws.total.re.data();
    double* __restrict tot_im = ws.total.im.data();
    for (std::size_t i = 0; i < n; ++i) {
      tot_re[i] += acc_re[i];
      tot_im[i] += acc_im[i];
    }
  }
  const double* tot_re = ws.total.re.data();
  const double* tot_im = ws.total.im.data();
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = std::hypot(tot_re[i], tot_im[i]);
  }
}

void JointLikelihoodSpansInto(const SpectraInput& input,
                              const SteeringPlan& plan,
                              std::span<const CellSpan> spans,
                              double* out, SpectraWorkspace& ws) {
  const std::size_t antennas = detail::EffectiveAntennas(input);
  detail::BuildComb(input, antennas, ws);
  if (!Matches(plan.key(), input, plan.key().grid, ws.comb_f0, ws.comb_step,
               antennas)) {
    throw std::invalid_argument(
        "steering plan does not match (input, comb)");
  }
  const std::size_t total = plan.num_cells();
  std::size_t n = 0;
  for (const CellSpan& sp : spans) {
    if (sp.begin > total || sp.length > total - sp.begin) {
      throw std::invalid_argument(
          "JointLikelihoodSpansInto: span out of range");
    }
    n += sp.length;
  }
  ws.acc.Resize(n);
  ws.total.re.assign(n, 0.0);
  ws.total.im.assign(n, 0.0);
  const dsp::simd::Kernels& kernels = dsp::simd::Active();
  for (std::size_t j = 0; j < antennas; ++j) {
    const double* comb =
        reinterpret_cast<const double*>(ws.dense[j].data());
    const double* b_re = plan.base_re(j);
    const double* b_im = plan.base_im(j);
    const double* s_re = plan.step_re(j);
    const double* s_im = plan.step_im(j);
    std::size_t off = 0;
    for (std::size_t k = 0; k < spans.size(); ++k) {
      const CellSpan& sp = spans[k];
      if (k + 1 < spans.size()) {
        // The walk kernel front-loads its reads (rotors stream into
        // registers block by block), so each span start is a cold restart
        // for the hardware prefetcher when the plan spills past L2.
        // Touch the next span's rotor lines while this one computes.
        const CellSpan& nx = spans[k + 1];
        const std::size_t bytes = nx.length * sizeof(double);
        for (std::size_t p = 0; p < bytes; p += 64) {
          __builtin_prefetch(
              reinterpret_cast<const char*>(b_re + nx.begin) + p);
          __builtin_prefetch(
              reinterpret_cast<const char*>(b_im + nx.begin) + p);
          __builtin_prefetch(
              reinterpret_cast<const char*>(s_re + nx.begin) + p);
          __builtin_prefetch(
              reinterpret_cast<const char*>(s_im + nx.begin) + p);
        }
      }
      kernels.walk(comb, ws.comb_steps, b_re + sp.begin, b_im + sp.begin,
                   s_re + sp.begin, s_im + sp.begin, ws.acc.re.data() + off,
                   ws.acc.im.data() + off, sp.length);
      off += sp.length;
    }
    const double* __restrict acc_re = ws.acc.re.data();
    const double* __restrict acc_im = ws.acc.im.data();
    double* __restrict tot_re = ws.total.re.data();
    double* __restrict tot_im = ws.total.im.data();
    for (std::size_t i = 0; i < n; ++i) {
      tot_re[i] += acc_re[i];
      tot_im[i] += acc_im[i];
    }
  }
  const double* tot_re = ws.total.re.data();
  const double* tot_im = ws.total.im.data();
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = std::hypot(tot_re[i], tot_im[i]);
  }
}

void DistanceOnlyMapInto(const SpectraInput& input, const SteeringPlan& plan,
                         dsp::Grid2D& grid, SpectraWorkspace& ws) {
  const std::size_t antennas = detail::EffectiveAntennas(input);
  detail::BuildComb(input, antennas, ws);
  CheckPlan(input, plan, grid, ws, antennas);
  const std::size_t cells = plan.num_cells();
  ws.acc.Resize(cells);
  grid.Fill(0.0);
  double* out = grid.data().data();
  for (std::size_t j = 0; j < antennas; ++j) {
    WalkAntenna(plan, j, ws.dense[j], ws);
    const double* acc_re = ws.acc.re.data();
    const double* acc_im = ws.acc.im.data();
    for (std::size_t c = 0; c < cells; ++c) {
      out[c] += std::hypot(acc_re[c], acc_im[c]);
    }
  }
}

}  // namespace bloc::core
