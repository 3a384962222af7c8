// The legacy per-object plant: Node/Device objects + dispatcher + the
// Ondemand governor + thermal guard + cooling plant, advanced on a logical
// clock. rtrm::ShardedCluster is the plant every workload runs; this one
// keeps only what bench_monitor and the legacy fault/monitor attach tests
// still run (crash handling, backfill, FirstFit/FastestFirst placement), and
// rejects a ClusterConfig asking for anything else.
#pragma once

#include <functional>
#include <vector>

#include "power/cooling.hpp"
#include "rtrm/config.hpp"
#include "rtrm/controllers.hpp"
#include "rtrm/dispatcher.hpp"
#include "rtrm/node.hpp"
#include "support/sim_clock.hpp"

namespace antarex::exec {
class ThreadPool;
}

namespace antarex::rtrm {

class Cluster {
 public:
  /// Throws unless `config` asks only for what this engine keeps: the
  /// Ondemand governor, FirstFit or FastestFirst placement (the Dispatcher
  /// checks that one), no facility cap.
  explicit Cluster(ClusterConfig config = {});

  Node& add_node(Node node);
  std::vector<Node>& nodes() { return nodes_; }
  const std::vector<Node>& nodes() const { return nodes_; }

  Dispatcher& dispatcher() { return dispatcher_; }
  const Dispatcher& dispatcher() const { return dispatcher_; }
  const ClusterConfig& config() const { return config_; }

  void submit(Job job) { dispatcher_.submit(std::move(job)); }

  // --- failures (driven by antarex::fault) -----------------------------------
  /// Crash node i at the current virtual time: its running jobs are
  /// interrupted and handed to the dispatcher for checkpoint rollback and
  /// backoff requeue (or Failed past their retry budget).
  void fail_node(std::size_t i);
  /// Bring node i back online; it accepts work again on the next place().
  void repair_node(std::size_t i);
  /// O(1): maintained on fail/repair instead of rescanning every node — the
  /// fault injector polls this every step.
  std::size_t nodes_down() const { return down_count_; }

  /// Step the plant's nodes on a thread pool (grain = one node per task).
  /// Completions are still committed serially in node-index order, so the
  /// simulation stays bit-identical to the serial path for any pool size.
  /// Pass nullptr to return to serial stepping.
  void set_pool(exec::ThreadPool* pool) { pool_ = pool; }

  /// Advance the simulation by `duration_s` in steps of `dt_s`, running the
  /// control loops every config.control_period_s.
  void run_for(double duration_s, double dt_s = 0.25);

  /// Run until the job queue and all devices drain (or max_s elapses).
  /// Returns true if everything completed.
  bool run_until_idle(double max_s = 1e7, double dt_s = 0.25);

  /// Observe every simulation step after it lands:
  /// fn(now_s, it_power_w, dt_s). Lets the obs layer drive energy sampling
  /// and policy ticks off the simulation clock. Pass nullptr to detach all
  /// observers installed through either setter.
  void set_step_observer(std::function<void(double, double, double)> fn) {
    step_observers_.clear();
    if (fn) step_observers_.push_back(std::move(fn));
  }

  /// Attach an additional observer without displacing existing ones — the
  /// fault injector and the obs sampler can watch the same cluster. Observers
  /// fire in attachment order, on the simulation thread.
  void add_step_observer(std::function<void(double, double, double)> fn) {
    ANTAREX_REQUIRE(fn != nullptr, "Cluster: null step observer");
    step_observers_.push_back(std::move(fn));
  }

  double now_s() const { return clock_.now(); }
  double it_power_w() const;
  const ClusterTelemetry& telemetry() const { return telemetry_; }
  const power::CoolingModel& cooling() const { return cooling_; }

 private:
  void control_step();

  ClusterConfig config_;
  std::vector<Node> nodes_;
  Dispatcher dispatcher_;
  power::CoolingModel cooling_;
  ThermalGuard thermal_guard_;
  SimClock clock_;
  double next_control_s_ = 0.0;
  ClusterTelemetry telemetry_;
  std::vector<std::function<void(double, double, double)>> step_observers_;
  exec::ThreadPool* pool_ = nullptr;
  std::size_t down_count_ = 0;
};

}  // namespace antarex::rtrm
