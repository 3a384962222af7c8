// Fault replay against the SoA engine (rtrm::ShardedCluster).
//
// ShardFaultDriver is the FaultInjector's exact counterpart for the sharded
// plant: the same step-boundary quantization (events land at the first step
// whose time is >= at_s - 1e-12), the same per-event log lines, and the same
// stats — so a (seed, schedule) pair applied to a legacy Cluster and to a
// ShardedCluster produces the same plant trajectory and the same replay log,
// which is exactly what the legacy-recorded differential fixtures pin.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "fault/schedule.hpp"
#include "rtrm/sharded_cluster.hpp"

namespace antarex::fault {

class ShardFaultDriver {
 public:
  /// Attaches to the cluster as an additional step observer and folds the
  /// dispatcher's lifecycle events into the same log. Must outlive the
  /// cluster's run calls.
  ShardFaultDriver(rtrm::ShardedCluster& cluster, FaultSchedule schedule);

  const InjectorStats& stats() const { return stats_; }
  const FaultSchedule& schedule() const { return schedule_; }
  std::size_t applied() const { return cursor_; }
  const std::vector<std::string>& log() const { return log_; }

  /// Replay log + final cluster scalars at full precision. Unlike
  /// FaultInjector::replay_trace this omits the global telemetry counters:
  /// the SoA engine batches RAPL accounting (no per-accumulate power.*
  /// counter traffic), so registry counts are not comparable across engines —
  /// the differential tests compare plant state instead.
  std::string replay_trace() const;

 private:
  void on_step(double now_s, double it_power_w, double dt_s);
  void apply(const FaultEvent& e);

  rtrm::ShardedCluster& cluster_;
  FaultSchedule schedule_;
  std::size_t cursor_ = 0;
  InjectorStats stats_;
  std::vector<std::string> log_;
};

}  // namespace antarex::fault
