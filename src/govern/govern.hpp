// antarex::govern — closed-loop hierarchical power-cap governance.
//
// The layer that turns the stack's observables (antarex::obs) into actions
// on its knobs: DVFS step-down (rtrm), worker/grain throttling (exec),
// admission shrinking (nav). Two entry points:
//
//  - ShardedCapCoordinator (sharded_cap.hpp): a facility watt budget
//    enforced top-down — per-shard and per-node budgets renegotiated every
//    epoch from measured demand, per-device ceilings clamped every control
//    period, an actuator escalation ladder for when budgets are not enough.
//    Fault-aware: node crashes redistribute the budget to survivors.
//  - install_actuating_policies (policies.hpp): threshold-triggered knob
//    walking through the obs::PolicyEngine, for plants that need reflexes
//    rather than accounting.
//
// Both act through the same Actuator interface (actuator.hpp).
#pragma once

#include "govern/actuator.hpp"     // IWYU pragma: export
#include "govern/policies.hpp"     // IWYU pragma: export
#include "govern/sharded_cap.hpp"  // IWYU pragma: export
