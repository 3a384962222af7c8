// antarex::fault — the fault driver.
//
// A ShardFaultDriver binds a FaultSchedule to a live rtrm::ShardedCluster: it
// attaches itself as a step observer and, after every simulation step,
// applies all scheduled events whose timestamp has been reached. Events carry
// virtual timestamps, injection is driven purely by the schedule and the
// cluster's logical clock, and the dispatcher's lifecycle hook is folded into
// the same log — so a (seed, schedule) pair replays bit-identically, across
// shard counts and exec thread counts alike (see replay_trace()).
//
// Every injection is also emitted as telemetry (fault.* counters and the
// fault.inject span), so obs attribution and the HTML report can show
// time-under-fault alongside energy.
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

  /// Canonical trace of a completed faulted run: the schedule, the replay
  /// log, the nonzero rtrm./fault./power. counters of the global telemetry
  /// registry (sorted by name; exec.* counters are excluded — they
  /// legitimately vary with thread count), and the cluster's final scalars,
  /// all at full precision. Two runs are replays of each other iff these
  /// strings are byte-identical.
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
