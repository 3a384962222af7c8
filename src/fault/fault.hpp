// antarex::fault — umbrella header.
//
// Deterministic fault injection for the simulated plant: seeded schedules of
// node crashes (Weibull MTBF), transient RAPL sensor glitches, forced thermal
// throttles, and slow-node degradation, applied through the plant's
// step-observer hook — by ShardFaultDriver to an rtrm::ShardedCluster, or by
// FaultInjector to the legacy rtrm::Cluster. Replays are bit-identical from
// the (seed, schedule) pair — see FaultInjector::replay_trace().
#pragma once

#include "fault/injector.hpp"
#include "fault/schedule.hpp"
#include "fault/shard_driver.hpp"
