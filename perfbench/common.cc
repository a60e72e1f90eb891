#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "dsp/simd_dispatch.h"

namespace perfbench {

Scale Scale::Tiny() {
  Scale s;
  s.static_locations = 8;
  s.serve_tags = 16;
  s.paced_rate = 100.0;
  s.moving_tags = 2;
  s.moving_rounds = 12;
  s.setup_repeats = 2;
  s.warmup_s = 0.05;
  s.probe_s = 0.1;
  return s;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

double Samples::Mean() const {
  return values_.empty()
             ? 0.0
             : std::accumulate(values_.begin(), values_.end(), 0.0) /
                   static_cast<double>(values_.size());
}

void Oracle::Fail(const std::string& reason, std::uint64_t n) {
  failed_.fetch_add(n, std::memory_order_relaxed);
  std::lock_guard lock(mutex_);
  reasons_[reason] += n;
}

std::string Oracle::Reasons() const {
  std::lock_guard lock(mutex_);
  std::ostringstream out;
  for (const auto& [reason, n] : reasons_) out << reason << "=" << n << " ";
  return out.str();
}

bool Finite(const bloc::geom::Vec2& p) {
  return std::isfinite(p.x) && std::isfinite(p.y);
}

Samples Errors(const std::vector<bloc::geom::Vec2>& estimates,
               const std::vector<bloc::geom::Vec2>& truths) {
  Samples out;
  for (std::size_t i = 0; i < estimates.size() && i < truths.size(); ++i) {
    out.Add(bloc::geom::Distance(estimates[i], truths[i]));
  }
  return out;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

std::string ActiveIsaName() {
  return bloc::dsp::simd::IsaName(bloc::dsp::simd::Active().isa);
}

std::string HostMetadataJson() {
  namespace simd = bloc::dsp::simd;
  const char* force = std::getenv("BLOC_FORCE_ISA");
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"isa\": " << JsonString(ActiveIsaName())
      << ", \"best_isa\": " << JsonString(simd::IsaName(simd::BestSupported()))
      << ", \"force_isa\": " << (force ? JsonString(force) : "null")
      << ", \"cpu_model\": " << JsonString(CpuModel())
      << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
      << ", \"bloc_native\": " << (PERFBENCH_NATIVE ? "true" : "false")
      << "}";
  return out.str();
}

}  // namespace perfbench
