// Actuating policies: the glue between the obs::PolicyEngine (observe +
// decide) and the govern actuators (act).
//
// install_actuating_policies wires the stack's published gauges to an
// actuator ladder through the engine's edge/cooldown trigger shaping, so the
// same machinery that raises alerts also closes the loop:
//
//   rtrm.power_draw_w  > cap           -> restrict the ladder (in order)
//   rtrm.power_draw_w  < relax point   -> relax the ladder (reverse order)
//   rtrm.thermal_headroom_c < margin   -> restrict the thermal actuator
//   nav.queue_depth >= shed threshold  -> restrict the nav actuator
//
// Each policy carries a cooldown so a persistent violation keeps producing
// one corrective notch per interval instead of either a single fire or a
// notch per tick — exactly the PolicyOptions::cooldown_s semantics.
//
// This is the lightweight alternative to the cap coordinator: no budgets, no
// per-node controllers, just gauge thresholds driving knobs. The two compose
// (the coordinator holds the cap; the policies handle thermal/backpressure).
#pragma once

#include <memory>
#include <vector>

#include "govern/actuator.hpp"
#include "obs/policy.hpp"

namespace antarex::govern {

struct ActuatingPolicyConfig {
  double power_cap_w = 0.0;      ///< restrict above this draw (0 disables)
  double relax_fraction = 0.7;   ///< relax below relax_fraction * cap
  double cooldown_s = 4.0;       ///< per-policy re-fire interval
  double thermal_headroom_c = 5.0;  ///< restrict below this headroom
  double nav_queue_limit = 48.0;    ///< restrict nav at/above this backlog
};

/// Handles of the installed policies (for fires()/restricts() queries);
/// -1 where the corresponding policy was not installed.
struct InstalledPolicies {
  int power_restrict = -1;
  int power_relax = -1;
  int thermal = -1;
  int nav = -1;
};

/// Install up to four actuating policies on `engine`. `ladder` is walked in
/// order on restrict and in reverse on relax (may be empty: the power
/// policies are skipped). `thermal` / `nav` may be null to skip those.
/// The actuators must outlive the engine registrations.
InstalledPolicies install_actuating_policies(
    obs::PolicyEngine& engine, std::vector<std::shared_ptr<Actuator>> ladder,
    std::shared_ptr<Actuator> thermal, std::shared_ptr<Actuator> nav,
    ActuatingPolicyConfig cfg);

}  // namespace antarex::govern
