// antarex::fault — the fault injector.
//
// A FaultInjector binds a FaultSchedule to a live rtrm::Cluster: it attaches
// itself as a step observer (Cluster::add_step_observer) and, after every
// simulation step, applies all scheduled events whose timestamp has been
// reached. Events carry virtual timestamps, injection is driven purely by the
// schedule and the cluster's logical clock, and the dispatcher's lifecycle
// hook is folded into the same log — so a (seed, schedule) pair replays
// bit-identically, including across exec thread counts (see replay_trace()).
//
// Every injection and recovery is also emitted as telemetry (fault.* counters
// and the fault.inject span), so obs attribution and the HTML report can show
// time-under-fault alongside energy.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "fault/schedule.hpp"
#include "rtrm/cluster.hpp"

namespace antarex::fault {

class FaultInjector {
 public:
  /// Attaches to the cluster as an additional step observer. The injector
  /// must outlive the cluster's run calls (or the cluster must detach all
  /// observers first).
  FaultInjector(rtrm::Cluster& cluster, FaultSchedule schedule);

  const InjectorStats& stats() const { return stats_; }
  const FaultSchedule& schedule() const { return schedule_; }
  /// Events applied so far (monotone virtual timestamps).
  std::size_t applied() const { return cursor_; }

  /// The injector's replay log: one line per applied fault event and per
  /// dispatcher lifecycle event (dispatch/finish/requeue/fail), in virtual
  /// time order.
  const std::vector<std::string>& log() const { return log_; }

  /// Canonical trace of a completed faulted run: the replay log, the
  /// rtrm./fault./power. counters of the global telemetry registry (sorted by
  /// name; exec.* counters are excluded — they legitimately vary with thread
  /// count), and the cluster's final scalars, all at full precision. Two runs
  /// are replays of each other iff these strings are byte-identical.
  std::string replay_trace() const;

 private:
  void on_step(double now_s, double it_power_w, double dt_s);
  void apply(const FaultEvent& e);

  rtrm::Cluster& cluster_;
  FaultSchedule schedule_;
  std::size_t cursor_ = 0;
  InjectorStats stats_;
  std::vector<std::string> log_;
};

}  // namespace antarex::fault
