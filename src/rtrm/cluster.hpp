// The top-level simulated supercomputer: nodes + dispatcher + governors +
// hierarchical controllers + cooling plant, advanced on a logical clock.
//
// This is the "runtime resource manager (RTRM)" box of the paper's Figure 1
// together with the plant it manages.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "power/cooling.hpp"
#include "rtrm/controllers.hpp"
#include "rtrm/dispatcher.hpp"
#include "rtrm/governor.hpp"
#include "rtrm/node.hpp"
#include "support/sim_clock.hpp"

namespace antarex::exec {
class ThreadPool;
}

namespace antarex::rtrm {

struct ClusterConfig {
  GovernorPolicy governor = GovernorPolicy::Ondemand;
  PlacementPolicy placement = PlacementPolicy::FirstFit;
  bool backfill = false;  ///< EASY backfilling in the job dispatcher
  double control_period_s = 1.0;          ///< governor/controller cadence
  double ambient_c = 18.0;                ///< machine-room ambient
  std::optional<double> facility_cap_w;   ///< cluster power cap, if any
  bool thermal_guard = true;
  double t_crit_c = 85.0;
};

struct ClusterTelemetry {
  double time_s = 0.0;
  double it_energy_j = 0.0;       ///< integrated IT (node) energy
  double facility_energy_j = 0.0; ///< IT + cooling + overhead
  double peak_it_power_w = 0.0;
  double max_temperature_c = 0.0;
  u64 jobs_completed = 0;
  u64 jobs_failed = 0;  ///< jobs that exhausted their retry budget
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config = {});

  Node& add_node(Node node);
  std::vector<Node>& nodes() { return nodes_; }
  const std::vector<Node>& nodes() const { return nodes_; }

  Dispatcher& dispatcher() { return dispatcher_; }
  const Dispatcher& dispatcher() const { return dispatcher_; }
  const ClusterConfig& config() const { return config_; }
  void set_ambient_c(double c) { config_.ambient_c = c; }
  void set_governor(GovernorPolicy g) { config_.governor = g; }

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

  /// Global DVFS actuation: clamp every device to
  /// (num_ops - 1 - steps) at each control step, i.e. `steps` P-states below
  /// its top. 0 restores nominal. Composes with per-device ceilings — the
  /// lower clamp wins.
  void set_op_step_down(std::size_t steps) { op_step_down_ = steps; }
  std::size_t op_step_down() const { return op_step_down_; }

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
  double pue() const;
  const ClusterTelemetry& telemetry() const { return telemetry_; }
  const power::CoolingModel& cooling() const { return cooling_; }

 private:
  void control_step();

  ClusterConfig config_;
  std::vector<Node> nodes_;
  Dispatcher dispatcher_;
  power::CoolingModel cooling_;
  std::optional<ClusterPowerManager> power_manager_;
  ThermalGuard thermal_guard_;
  SimClock clock_;
  double next_control_s_ = 0.0;
  ClusterTelemetry telemetry_;
  std::vector<std::function<void(double, double, double)>> step_observers_;
  std::size_t op_step_down_ = 0;
  exec::ThreadPool* pool_ = nullptr;
  std::size_t down_count_ = 0;
};

}  // namespace antarex::rtrm
