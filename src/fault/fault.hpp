// antarex::fault — umbrella header.
//
// Deterministic fault injection for the simulated plant: seeded schedules of
// node crashes (Weibull MTBF), transient RAPL sensor glitches, forced thermal
// throttles, and slow-node degradation, applied by ShardFaultDriver through
// an rtrm::ShardedCluster's step-observer hook. Replays are bit-identical
// from the (seed, schedule) pair — see ShardFaultDriver::replay_trace().
#pragma once

#include "fault/schedule.hpp"
#include "fault/shard_driver.hpp"
