#include "dsp/rng.h"

#include <cmath>

namespace bloc::dsp {

std::uint64_t HashName(std::string_view name) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : name) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

namespace {

std::uint64_t SplitMix(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng Rng::Fork(std::string_view name) const {
  // Mix the parent's seed with the child name; splitmix-style finalizer so
  // adjacent names give uncorrelated streams.
  return Rng(SplitMix(seed_ + HashName(name) + 0x9E3779B97F4A7C15ULL));
}

Rng Rng::Fork(std::initializer_list<std::uint64_t> ids) const {
  // One full splitmix round per id: the intermediate finalization makes the
  // derivation order-sensitive and keeps adjacent tuples uncorrelated.
  std::uint64_t z = seed_;
  for (const std::uint64_t id : ids) {
    z = SplitMix(z + id + 0x9E3779B97F4A7C15ULL);
  }
  return Rng(z);
}

double Rng::Uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine_);
}

namespace {

/// Scales a standard normal draw the way std::normal_distribution(0, s)
/// scales its own (z * s + mean), so the values match bit for bit. That
/// distribution requires s > 0; this also takes s = 0 (noise switched off).
double ScaleNormal(double z, double stddev) { return z * stddev + 0.0; }

}  // namespace

double Rng::Gaussian(double stddev) {
  std::normal_distribution<double> unit;
  return ScaleNormal(unit(engine_), stddev);
}

cplx Rng::ComplexGaussian(double variance) {
  const double s = std::sqrt(variance / 2.0);
  return {Gaussian(s), Gaussian(s)};
}

void Rng::FillComplexGaussian(std::span<cplx> out, double variance) {
  const double s = std::sqrt(variance / 2.0);
  std::normal_distribution<double> unit;
  for (cplx& v : out) {
    const double re = ScaleNormal(unit(engine_), s);
    const double im = ScaleNormal(unit(engine_), s);
    v = {re, im};
  }
}

cplx Rng::RandomRotor() {
  const double phi = Uniform(0.0, kTwoPi);
  return {std::cos(phi), std::sin(phi)};
}

bool Rng::Chance(double probability) {
  return Uniform(0.0, 1.0) < probability;
}

}  // namespace bloc::dsp
