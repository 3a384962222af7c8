// Per-tier latency SLOs with rolling error budgets.
//
// Each tier declares a latency objective and the fraction of requests
// allowed to miss it (the error budget). observe() classifies one request;
// status() reports cumulative attainment, remaining budget, and the *burn
// rate* — the windowed violation fraction divided by the allowed fraction,
// so burn_rate > 1 means the tier is currently eating budget faster than it
// accrues (the standard SRE alerting signal). publish() mirrors everything
// into causal.slo.<tier>.* telemetry gauges, where obs::PolicyEngine
// predicates can act on it, and counts transitions into burn as
// causal.slo.alerts (the stack's one alert rule, support/trigger.hpp, at
// {1,1}: one alert per onset of burn, re-armed when the tier stops burning).
#pragma once

#include <cstddef>
#include <deque>
#include <string>
#include <vector>

#include "support/common.hpp"
#include "support/trigger.hpp"

namespace antarex::causal {

struct SloTier {
  std::string name;
  double target_latency_s = 0.1;
  /// Error budget: fraction of requests allowed over target (e.g. 0.01).
  double allowed_violation_fraction = 0.01;
};

struct TierStatus {
  u64 total = 0;
  u64 violations = 0;
  double attainment = 1.0;        ///< 1 - violations/total
  double budget_remaining = 1.0;  ///< 1 - (violation fraction / allowed)
  double burn_rate = 0.0;         ///< windowed violation fraction / allowed
  bool burning = false;           ///< burn_rate > 1
};

class SloTracker {
 public:
  /// window: number of recent requests the burn rate is computed over.
  explicit SloTracker(std::vector<SloTier> tiers, std::size_t window = 64);

  std::size_t tier_count() const { return tiers_.size(); }
  const SloTier& tier(std::size_t i) const { return tiers_[i]; }

  void observe(std::size_t tier_index, double latency_s);

  TierStatus status(std::size_t tier_index) const;

  /// Publish causal.slo.<tier>.{attainment,budget_remaining,burn_rate}
  /// gauges and count newly burning tiers into causal.slo.alerts.
  void publish();

 private:
  struct State {
    u64 total = 0;
    u64 violations = 0;
    std::deque<bool> window;  ///< recent outcomes (true = violation)
    u64 window_violations = 0;
    Trigger burn;  ///< stepped with `burning` on every publish()
  };

  std::vector<SloTier> tiers_;
  std::vector<State> states_;
  std::size_t window_;
};

}  // namespace antarex::causal
