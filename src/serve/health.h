// SLO health verdict over a live LocalizationService (DESIGN.md §5h).
//
// EvaluateHealth turns one ServiceHealthStats capture into a pass/fail
// verdict plus the individual checks behind it — the body of the admin
// endpoint's /healthz. Every check is a ratio or quantile with an explicit
// budget in HealthPolicy, so a degraded verdict names the SLO it broke.
//
// Warm-up: ratios over a handful of rounds are noise (one shed round out
// of three is 33%). Below HealthPolicy::min_rounds the report is healthy
// with warming_up=true and the checks are still listed, unevaluated.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "serve/service.h"

namespace bloc::serve {

/// Budgets for the /healthz verdict. Defaults match the soak bench's SLO
/// gates (p99 budget) plus loose sanity bands on loss and gate quality.
struct HealthPolicy {
  /// Worst per-shard rolling-window p99 end-to-end latency.
  double p99_budget_ms = 250.0;
  /// shed rounds / completed rounds.
  double max_shed_ratio = 0.01;
  /// refused frames / offered frames (admitted + refused).
  double max_refused_ratio = 0.01;
  /// expired rounds / completed rounds.
  double max_expired_ratio = 0.05;
  /// gate misses / gated rounds — a high miss rate means the Kalman gate
  /// is mispredicting and every round pays the whole-grid re-run.
  double max_gate_miss_ratio = 0.9;
  /// rounds dropped because Locate threw / completed rounds.
  double max_locate_error_ratio = 0.01;
  /// max shard ring depth vs the mean depth (only judged when the mean is
  /// at least one frame — idle shards make any ratio meaningless).
  double max_shard_imbalance = 16.0;
  /// Below this many rounds out of the engine (localized plus dropped by a
  /// throwing Locate) the verdict is "warming up": healthy, with every check
  /// reported but none enforced.
  std::uint64_t min_rounds = 64;
};

/// One evaluated SLO: `value` against `budget` (ok == value <= budget).
struct HealthCheck {
  std::string name;
  double value = 0.0;
  double budget = 0.0;
  bool ok = true;
};

struct HealthReport {
  bool healthy = true;
  bool warming_up = false;
  std::uint64_t rounds_observed = 0;
  std::vector<HealthCheck> checks;

  /// {"healthy": true, "warming_up": false, "rounds_observed": N,
  ///  "checks": [{"name": ..., "value": ..., "budget": ..., "ok": ...}]}
  void WriteJson(std::ostream& os) const;
};

HealthReport EvaluateHealth(const ServiceHealthStats& stats,
                            const HealthPolicy& policy = {});

}  // namespace bloc::serve
