#include "serve/health.h"

#include <algorithm>

namespace bloc::serve {

namespace {

double Ratio(std::uint64_t num, std::uint64_t den) noexcept {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

void HealthReport::WriteJson(std::ostream& os) const {
  os << "{\n";
  os << "  \"healthy\": " << (healthy ? "true" : "false") << ",\n";
  os << "  \"warming_up\": " << (warming_up ? "true" : "false") << ",\n";
  os << "  \"rounds_observed\": " << rounds_observed << ",\n";
  os << "  \"checks\": [";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const HealthCheck& c = checks[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"name\": \"" << c.name << "\", \"value\": " << c.value
       << ", \"budget\": " << c.budget << ", \"ok\": "
       << (c.ok ? "true" : "false") << "}";
  }
  os << "\n  ]\n}\n";
}

HealthReport EvaluateHealth(const ServiceHealthStats& stats,
                            const HealthPolicy& policy) {
  HealthReport report;
  const ServiceCounters& c = stats.counters;
  // Dropped rounds count toward warm-up too: a service whose every Locate
  // throws must read as degraded, not as warming up forever.
  report.rounds_observed = c.localized_rounds + c.locate_errors;
  report.warming_up = report.rounds_observed < policy.min_rounds;

  const auto add = [&report](std::string name, double value, double budget) {
    report.checks.push_back(
        {std::move(name), value, budget, value <= budget});
  };

  // Worst recent p99 across shards: a single hot shard must not hide
  // behind seven idle ones.
  double worst_p99_us = 0.0;
  std::size_t max_depth = 0;
  std::size_t total_depth = 0;
  for (const ShardHealth& s : stats.shards) {
    if (s.window_samples > 0) {
      worst_p99_us = std::max(worst_p99_us, s.window_p99_us);
    }
    max_depth = std::max(max_depth, s.ring_depth);
    total_depth += s.ring_depth;
  }
  add("e2e_p99_ms", worst_p99_us / 1000.0, policy.p99_budget_ms);
  add("shed_ratio", Ratio(c.shed_rounds, c.completed_rounds),
      policy.max_shed_ratio);
  add("refused_ratio",
      Ratio(c.refused_frames, c.admitted_frames + c.refused_frames),
      policy.max_refused_ratio);
  add("expired_ratio", Ratio(c.expired_rounds, c.completed_rounds),
      policy.max_expired_ratio);
  add("gate_miss_ratio",
      Ratio(stats.search_gate_misses, stats.search_gated_rounds),
      policy.max_gate_miss_ratio);
  add("locate_error_ratio", Ratio(c.locate_errors, c.completed_rounds),
      policy.max_locate_error_ratio);

  const double mean_depth =
      stats.shards.empty()
          ? 0.0
          : static_cast<double>(total_depth) /
                static_cast<double>(stats.shards.size());
  // Only meaningful with real backlog: with a mean under one frame, any
  // momentary burst on one shard would read as "imbalance".
  const double imbalance =
      mean_depth >= 1.0 ? static_cast<double>(max_depth) / mean_depth : 0.0;
  add("shard_imbalance", imbalance, policy.max_shard_imbalance);

  if (report.warming_up) {
    // Checks are reported for visibility but not enforced.
    for (HealthCheck& check : report.checks) check.ok = true;
    report.healthy = true;
  } else {
    report.healthy = std::all_of(
        report.checks.begin(), report.checks.end(),
        [](const HealthCheck& check) { return check.ok; });
  }
  return report;
}

}  // namespace bloc::serve
