// antarex::govern — closed-loop hierarchical power-cap governance.
//
// The layer that turns the stack's observables (antarex::obs) into actions
// on its knobs: DVFS step-down (rtrm) and admission shrinking (nav). The
// entry point is ShardedCapCoordinator (sharded_cap.hpp): a facility watt
// budget enforced top-down — per-shard and per-node budgets renegotiated
// every epoch from measured demand, per-device ceilings clamped every
// control period, and an escalation ladder it walks itself (walk_ladder)
// when budgets are not enough.
// Fault-aware: node crashes redistribute the budget to survivors.
//
// The ladder's rungs are Actuators (actuator.hpp); a caller may also step
// one directly, e.g. from an obs::PolicyEngine actuating policy.
#pragma once

#include "govern/actuator.hpp"     // IWYU pragma: export
#include "govern/sharded_cap.hpp"  // IWYU pragma: export
