// antarex::fault — deterministic fault schedules.
//
// A FaultSchedule is a pre-generated, sorted list of timestamped events
// (node crashes/repairs, sensor glitches, thermal throttles, slow-node
// episodes) drawn from a FaultModel by per-(node, device, kind) RNG streams.
// The same (model, topology, horizon, seed) always yields the same schedule,
// and the schedule alone — not the generator — drives injection, so a run can
// be replayed bit-identically from its (seed, schedule) pair.
#pragma once

#include <string>
#include <vector>

#include "support/common.hpp"

namespace antarex::fault {

enum class FaultKind {
  NodeCrash,        ///< node powers off; running jobs are interrupted
  NodeRepair,       ///< node rejoins the cluster
  SensorGlitch,     ///< a RAPL reading offset appears (magnitude joules)
  GlitchClear,      ///< the reading offset vanishes
  ThermalThrottle,  ///< device pinned to its lowest P-state for duration_s
  SlowNode,         ///< all devices on the node slow down by `magnitude`x
  SlowNodeEnd,      ///< the slowdown ends
};

const char* fault_kind_name(FaultKind k);

struct FaultEvent {
  double at_s = 0.0;    ///< virtual time the event fires
  FaultKind kind = FaultKind::NodeCrash;
  u32 node = 0;
  u32 device = 0;       ///< device index within the node (glitch/throttle)
  double magnitude = 0.0;  ///< joules (glitch) or slowdown factor (slow-node)
  double duration_s = 0.0; ///< informational; the paired end event is explicit
};

/// Stochastic fault environment. Every rate of 0 (the default) disables that
/// fault class, so a default-constructed model injects nothing.
struct FaultModel {
  // Node crashes: Weibull interarrival (shape > 1 = wear-out), lognormal
  // repair time (sigma 0.25). mtbf_s is the *scale* parameter of the
  // interarrival.
  double crash_mtbf_s = 0.0;
  double crash_weibull_shape = 1.5;
  double repair_mean_s = 30.0;

  // Transient sensor glitches on per-device RAPL counters: Poisson arrivals,
  // fixed offset magnitude, fixed visibility window.
  double glitch_rate_hz = 0.0;
  double glitch_magnitude_j = 50.0;
  double glitch_duration_s = 2.0;

  // Forced thermal throttles (firmware pinning a device to its lowest
  // P-state): Poisson arrivals per device.
  double throttle_rate_hz = 0.0;
  double throttle_duration_s = 5.0;

  // Slow-node degradation (failing fan, OS noise): Poisson arrivals per node,
  // all devices on the node run `slowdown_factor`x slower for the episode.
  double slowdown_rate_hz = 0.0;
  double slowdown_factor = 2.0;
  double slowdown_duration_s = 20.0;
};

struct FaultSchedule {
  std::vector<FaultEvent> events;  ///< sorted by (at_s, node, device, kind)
  u64 seed = 0;
  double horizon_s = 0.0;

  /// Canonical one-line-per-event serialization (used by the golden replay
  /// fixtures and for debugging).
  std::string to_text() const;
};

/// Draw a schedule over [0, horizon_s) for a cluster of `nodes` nodes with
/// `devices_per_node` devices each. Per-(node, device, kind) generator
/// streams are derived from `seed` with SplitMix64, so adding a fault class
/// or a node never perturbs the other streams. Paired begin/end events are
/// generated sequentially on each timeline and therefore never overlap
/// themselves (a node is not re-crashed while down).
FaultSchedule generate_schedule(const FaultModel& model, std::size_t nodes,
                                std::size_t devices_per_node, double horizon_s,
                                u64 seed);

/// What applying a schedule did to a plant (ShardFaultDriver).
struct InjectorStats {
  u64 crashes = 0;
  u64 repairs = 0;
  u64 glitches = 0;
  u64 throttles = 0;
  u64 slowdowns = 0;
  double time_under_fault_s = 0.0;  ///< integral of (any node down) over time
  double node_downtime_s = 0.0;     ///< integral of (#nodes down) * dt
};

}  // namespace antarex::fault
