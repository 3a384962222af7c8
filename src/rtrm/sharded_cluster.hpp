// Exascale-sharded cluster simulation: the plant every workload runs.
//
// ShardedCluster implements the RTRM plant over compact structure-of-arrays
// state partitioned into shards of contiguous nodes: per-device scalars live
// in flat arrays instead of Node/Device objects, and each shard keeps a
// sorted calendar of *active* nodes so settled (parked) nodes cost nothing
// per tick. Shards step independently — in parallel on the antarex::exec
// pool — and their results merge serially in fixed shard order, so a run is
// byte-identical across 1/2/8 workers and any shard count, and byte-identical
// to the per-object (one Node/Device object per instance) stepper this repo
// used to carry: tests/test_sharded_cluster.cpp replays fixtures that stepper
// recorded (tests/golden/sharded_diff_*, sharded_replay_*).
//
// Bit-identity is by construction, not by tolerance: every floating-point
// expression of that stepper (power::PowerModel, power::ThermalModel,
// device/node stepping, governors, controllers, dispatcher scoring) is
// evaluated through the *same* shared static helpers, in the same order.
// Parking is an exact-arithmetic shortcut: a device parks only when one more
// step would provably reproduce its state bit-for-bit (temperature at the
// discrete fixed point, idle, no throttle decay), and the skipped per-step
// energy/downtime additions are replayed as the identical sequence of
// additions when the device is next observed or mutated. Likewise a device's
// power model is evaluated once per state change: the live step caches it,
// touch_device invalidates it, and every reader shares the cached value
// (DESIGN.md decision 12d).
#pragma once

#include <array>
#include <atomic>
#include <deque>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "power/cooling.hpp"
#include "power/dvfs.hpp"
#include "power/model.hpp"
#include "rtrm/config.hpp"
#include "rtrm/job.hpp"
#include "support/sim_clock.hpp"

namespace antarex::exec {
class ThreadPool;
}

namespace antarex::rtrm {

class ShardedCluster;

/// FCFS job placement with EASY backfill and crash retry over the SoA device
/// arrays: per-type free-device index sets replace an all-nodes-all-devices
/// scan, visited in ascending global device index so every policy keeps the
/// first-seen tie-break the recorded fixtures pin.
class ShardedDispatcher {
 public:
  using EventHook = std::function<void(const char* kind, u64 job_id, double t)>;

  void submit(Job job);
  std::size_t queued() const { return queue_.size(); }
  std::size_t running() const { return running_.size(); }
  std::size_t completed() const { return done_.size(); }
  std::size_t failed() const { return failed_.size(); }
  /// Unordered (swap-erase) view of in-flight jobs.
  const std::vector<Job>& running_jobs() const { return running_; }
  const std::vector<Job>& completed_jobs() const { return done_; }
  const std::vector<Job>& failed_jobs() const { return failed_; }
  u64 requeued_jobs() const { return requeued_; }
  u64 backfilled_jobs() const { return backfilled_; }

  void set_backoff_base_s(double s) { backoff_base_s_ = s; }
  double backoff_base_s() const { return backoff_base_s_; }
  void set_event_hook(EventHook fn) { event_hook_ = std::move(fn); }
  PlacementPolicy policy() const { return policy_; }

  /// Global device index a running job occupies (kInvalidDevice if the id is
  /// not currently running) — the govern layer's job ledger keys on this
  /// instead of comparing device-name strings per node per tick.
  u32 device_of(u64 job_id) const;

  static constexpr u32 kInvalidDevice = 0xffffffffu;

 private:
  friend class ShardedCluster;

  void place(double now_s);
  void on_finished(u64 job_id, double now_s);
  void on_node_failed(const std::vector<std::pair<u64, double>>& interrupted,
                      double now_s);
  u32 choose_device(const Job& job) const;
  void start(Job job, u32 device, double now_s);
  void erase_running(std::size_t pos);
  void emit(const char* kind, u64 job_id, double t) const {
    if (event_hook_) event_hook_(kind, job_id, t);
  }

  ShardedCluster* c_ = nullptr;
  PlacementPolicy policy_ = PlacementPolicy::FirstFit;
  bool backfill_ = false;
  u64 backfilled_ = 0;
  u64 requeued_ = 0;
  double backoff_base_s_ = 2.0;
  std::deque<Job> queue_;
  /// Stale-low lower bound on min(not_before_s) over the queue; lets place()
  /// skip the scan while every queued job is in crash backoff.
  double min_not_before_ = 0.0;
  std::vector<Job> running_;
  std::unordered_map<u64, std::size_t> running_pos_;
  std::unordered_map<u64, u32> device_by_job_;
  std::vector<Job> done_;
  std::vector<Job> failed_;
  EventHook event_hook_;
};

struct ShardedClusterConfig {
  ClusterConfig base;
  std::size_t shards = 8;
};

class ShardedCluster {
 public:
  explicit ShardedCluster(ShardedClusterConfig config = {});
  // The dispatcher points back at its cluster: copies would share it.
  ShardedCluster(const ShardedCluster&) = delete;
  ShardedCluster& operator=(const ShardedCluster&) = delete;

  // --- topology (frozen at the first run call) ------------------------------
  /// Register a device SKU shared by many device instances; returns its id.
  u32 add_spec(power::DeviceSpec spec);
  const power::DeviceSpec& spec(u32 id) const { return specs_[id]; }

  /// Append a node with the given base power and (spec id, variability)
  /// device list; returns the node index.
  std::size_t add_node(
      double base_power_w,
      const std::vector<std::pair<u32, power::Variability>>& devices);

  std::size_t node_count() const { return node_base_w_.size(); }
  std::size_t device_count() const { return dev_spec_.size(); }
  std::size_t node_device_count(std::size_t node) const {
    return node_dev_count_[checked_node(node)];
  }
  /// Shard layout: min(configured shards, nodes) contiguous node ranges of
  /// equal span (the last may be short). It follows the nodes added so far,
  /// so it is valid before the first run, and freezes with the topology.
  std::size_t shard_count() const;
  /// Shard owning node i, and the node range [first, last) of shard s.
  std::size_t shard_of_node(std::size_t node) const {
    return node / shard_span();
  }
  std::pair<std::size_t, std::size_t> shard_node_range(std::size_t s) const;

  // --- jobs -----------------------------------------------------------------
  void submit(Job job) { dispatcher_.submit(std::move(job)); }
  ShardedDispatcher& dispatcher() { return dispatcher_; }
  const ShardedDispatcher& dispatcher() const { return dispatcher_; }

  // --- run ------------------------------------------------------------------
  void set_pool(exec::ThreadPool* pool) { pool_ = pool; }
  void run_for(double duration_s, double dt_s = 0.25);
  bool run_until_idle(double max_s = 1e7, double dt_s = 0.25);

  const ClusterConfig& config() const { return config_.base; }
  /// Changing ambient mid-run invalidates every parked thermal fixed point,
  /// so this also wakes all parked state.
  void set_ambient_c(double c);
  void set_governor(GovernorPolicy g);
  void set_op_step_down(std::size_t steps);
  std::size_t op_step_down() const { return op_step_down_; }

  // --- failures (driven by antarex::fault) ----------------------------------
  void fail_node(std::size_t node);
  void repair_node(std::size_t node);
  std::size_t nodes_down() const { return down_count_; }
  void force_throttle(std::size_t node, std::size_t dev, double duration_s);
  void set_node_slowdown(std::size_t node, double factor);
  void set_reading_offset_j(std::size_t node, std::size_t dev, double joules);

  // --- observers / control hooks --------------------------------------------
  void add_step_observer(std::function<void(double, double, double)> fn) {
    ANTAREX_REQUIRE(fn != nullptr, "ShardedCluster: null step observer");
    step_observers_.push_back(std::move(fn));
  }
  void set_control_hook(std::function<void(ShardedCluster&, double)> fn) {
    control_hook_ = std::move(fn);
  }

  // --- power-cap actuation (govern::ShardedCapCoordinator) ------------------
  /// Run the node's persistent power controller against `budget_w` until the
  /// node fits (bounded by the total P-state notches). When over budget the
  /// controller lowers the device maximizing power / weight, so a device
  /// running a weight-2 job is clamped only after an equal-power weight-1
  /// neighbour; `device_weight` is indexed by global device index, and null
  /// weighs every device 1.
  void apply_node_budget(std::size_t node, double budget_w,
                         const std::vector<double>* device_weight = nullptr);
  /// Node power floor: base + every device idle at its lowest P-state (the
  /// same floor the facility power manager computes).
  double node_floor_w(std::size_t node) const;

  // --- state accessors (catch parked state up before reading) ---------------
  double now_s() const { return clock_.now(); }
  const ClusterTelemetry& telemetry() const { return telemetry_; }
  const power::CoolingModel& cooling() const { return cooling_; }
  double node_power_w(std::size_t node) const {
    return node_power_[checked_node(node)];
  }
  /// The budget the node's power controller last ran against (the facility
  /// power manager's allocation, or the last apply_node_budget).
  double node_budget_w(std::size_t node) const {
    return node_budget_w_[checked_node(node)];
  }
  double node_base_power_w(std::size_t node) const {
    return node_base_w_[checked_node(node)];
  }
  bool node_failed(std::size_t node) const {
    return node_failed_[checked_node(node)] != 0;
  }
  u64 node_crashes(std::size_t node) const { return node_crashes_[checked_node(node)]; }
  double node_downtime_s(std::size_t node);
  double node_energy_j(std::size_t node);

  std::size_t device_op_index(std::size_t node, std::size_t dev) const {
    return dev_op_[dev_index(node, dev)];
  }
  bool device_busy(std::size_t node, std::size_t dev) const {
    return dev_units_[dev_index(node, dev)] > 0.0;
  }
  bool device_throttled(std::size_t node, std::size_t dev) const {
    return dev_throttle_s_[dev_index(node, dev)] > 0.0;
  }
  double device_slowdown(std::size_t node, std::size_t dev) const {
    return dev_slowdown_[dev_index(node, dev)];
  }
  double device_temperature_c(std::size_t node, std::size_t dev) const {
    return dev_temp_[dev_index(node, dev)];
  }
  double device_busy_seconds(std::size_t node, std::size_t dev) const {
    return dev_busy_s_[dev_index(node, dev)];
  }
  u64 device_completed_jobs(std::size_t node, std::size_t dev) const {
    return dev_done_[dev_index(node, dev)];
  }
  u64 device_interrupted_jobs(std::size_t node, std::size_t dev) const {
    return dev_interrupted_[dev_index(node, dev)];
  }
  const power::DeviceSpec& device_spec(std::size_t node, std::size_t dev) const {
    return specs_[dev_spec_[dev_index(node, dev)]];
  }
  double device_progress_rate_ups(std::size_t node, std::size_t dev) const;
  /// Node and current power of a device by global index (the index
  /// ShardedDispatcher::device_of reports for a running job).
  std::size_t node_of_device(u32 device) const {
    return dev_node_[checked_device(device)];
  }
  double device_power_w(u32 device) const {
    return device_power_now_w(checked_device(device));
  }
  double device_energy_j(std::size_t node, std::size_t dev);
  /// Wrapping 32-bit RAPL counter view (power::RaplDomain::wrap_uj) of the
  /// device's energy plus its glitch offset.
  u32 device_counter_uj(std::size_t node, std::size_t dev);

  // --- scale diagnostics ----------------------------------------------------
  /// Plant steps taken so far.
  u64 steps() const { return steps_done_; }
  /// Device steps that ran the full step math (parked devices excluded) —
  /// the deterministic metric the exascale bench gates: parking regressions
  /// show up here before they show up in wall time.
  u64 full_device_steps() const;
  /// Resident bytes of the SoA state (arrays + shard calendars + specs).
  std::size_t approx_state_bytes() const;

 private:
  friend class ShardedDispatcher;

  struct Shard {
    u32 begin_node = 0;
    u32 end_node = 0;
    std::vector<u32> active;  ///< ascending indices of unparked nodes
    std::vector<std::pair<u32, u64>> finished;  ///< (device, job) this step
    /// Upper bound on parked-device temperatures (never shrinks; sound for
    /// the monotone max-temperature telemetry because a parked temperature
    /// already entered the running max on the step the device parked).
    double parked_max_c = 0.0;
    double step_max_c = 0.0;
    bool power_changed = false;
    u64 full_steps = 0;
  };

  std::size_t checked_node(std::size_t node) const {
    ANTAREX_REQUIRE(node < node_count(), "ShardedCluster: node index out of range");
    return node;
  }
  u32 checked_device(u32 device) const {
    ANTAREX_REQUIRE(device < device_count(),
                    "ShardedCluster: device index out of range");
    return device;
  }
  u32 dev_index(std::size_t node, std::size_t dev) const {
    ANTAREX_REQUIRE(node < node_count() && dev < node_dev_count_[node],
                    "ShardedCluster: device index out of range");
    return node_dev_begin_[node] + static_cast<u32>(dev);
  }
  /// P-state the device runs at: the lowest while throttled.
  std::size_t eff_op_index(u32 d) const {
    return dev_throttle_s_[d] > 0.0 ? 0 : dev_op_[d];
  }
  const power::OperatingPoint& eff_op(u32 d) const {
    return specs_[dev_spec_[d]].dvfs.at(eff_op_index(d));
  }
  /// The device's power model evaluated on its current state.
  double fresh_device_power_w(u32 d) const;
  /// The same value, read from the post-step cache while it is valid.
  double device_power_now_w(u32 d) const {
    return dev_power_ok_[d] ? dev_power_[d] : fresh_device_power_w(d);
  }
  /// Base plus device_power_now_w of every device (0 on a failed node).
  double node_power_now_w(std::size_t node) const;

  std::size_t shard_span() const;  ///< nodes per shard
  void finalize();
  void step_shard(std::size_t s, double dt_s);
  void control_step();
  void governor_step(u32 d, GovernorPolicy policy, double base_share);
  void guard_step(u32 d);
  void power_manager_step();
  bool node_controller_step(std::size_t node,
                            const std::vector<double>* device_weight);
  void pm_clamp(std::size_t node);
  void set_dev_op(u32 d, std::size_t op);
  void assign_device(u32 d, const power::WorkloadModel& w, double units,
                     u64 job_id);
  void unpark_all();

  /// Joules one skipped step adds to a parked entity's energy, using the
  /// step size in force since the last global sync.
  double parked_device_j(u32 d) const;
  double parked_node_j(std::size_t node) const;
  /// Replay the per-step additions a parked entity skipped.
  void catch_up_device(u32 d);
  void catch_up_node(std::size_t node);
  /// Re-sum parked_uj_ after the step size changes.
  void reprice_parked();
  /// Catch up + unpark a device (and reactivate its node in the shard
  /// calendar) and invalidate its power cache before any serial mutation
  /// or stateful read.
  void touch_device(u32 d);
  void touch_node(std::size_t node);
  void global_sync();

  void free_insert(u32 d);
  void free_erase(u32 d);

  ShardedClusterConfig config_;
  ShardedDispatcher dispatcher_;
  power::CoolingModel cooling_;
  SimClock clock_;
  double next_control_s_ = 0.0;
  ClusterTelemetry telemetry_;
  std::vector<std::function<void(double, double, double)>> step_observers_;
  std::function<void(ShardedCluster&, double)> control_hook_;
  std::size_t op_step_down_ = 0;
  exec::ThreadPool* pool_ = nullptr;
  bool finalized_ = false;

  // Shared SKU table (one entry per spec, not per device).
  std::vector<power::DeviceSpec> specs_;
  std::vector<double> spec_vnom_;

  // Device SoA (size = total devices, node-major order).
  std::vector<u32> dev_spec_;
  std::vector<power::Variability> dev_var_;
  std::vector<u32> dev_node_;
  std::vector<u32> dev_op_;
  std::vector<double> dev_temp_;
  std::vector<double> dev_energy_j_;
  std::vector<double> dev_offset_j_;
  std::vector<double> dev_units_;
  std::vector<u64> dev_job_;
  std::vector<power::WorkloadModel> dev_wl_;
  std::vector<double> dev_busy_s_;
  std::vector<u64> dev_done_;
  std::vector<u64> dev_interrupted_;
  std::vector<double> dev_throttle_s_;
  std::vector<double> dev_slowdown_;
  std::vector<u32> dev_guard_ceil_;
  std::vector<u32> dev_pm_ceil_;
  std::vector<double> dev_power_;  ///< post-step power (idle power if parked)
  /// dev_power_[d] equals fresh_device_power_w(d): set by the live step that
  /// writes it, cleared by touch_device, never set on a failed node.
  std::vector<u8> dev_power_ok_;
  std::vector<u8> dev_parked_;
  std::vector<u64> dev_upto_;  ///< steps fully applied to this device

  // Node SoA.
  std::vector<double> node_base_w_;
  std::vector<u32> node_dev_begin_;
  std::vector<u32> node_dev_count_;
  std::vector<u8> node_failed_;
  std::vector<u64> node_crashes_;
  std::vector<double> node_downtime_s_;
  std::vector<double> node_energy_j_;
  std::vector<double> node_power_;
  std::vector<double> node_budget_w_;  ///< per-node controller budget
  std::vector<u8> node_parked_;
  std::vector<u8> node_quiet_;  ///< control loop provably a no-op
  std::vector<u64> node_upto_;
  std::vector<u32> node_shard_;  ///< shard_of_node, cached at finalize()

  std::vector<Shard> shards_;
  std::size_t down_count_ = 0;
  double it_power_ = 0.0;
  bool it_dirty_ = true;
  u64 steps_done_ = 0;
  double sync_dt_ = 0.0;  ///< step size shared by all skipped steps
  // power.energy_uj per step: what the active entities integrate (shards add
  // in parallel) plus the fixed per-step share of every parked entity.
  std::atomic<u64> step_uj_{0};
  std::atomic<u64> parked_uj_{0};

  // Dispatcher support: free (idle, alive-node) devices per type, plus the
  // full per-type device lists for backfill reservations.
  std::array<std::set<u32>, 3> free_by_type_;
  std::array<std::vector<u32>, 3> devices_of_type_;

  // Facility power-manager scratch (avoids per-control allocation at scale).
  std::vector<double> pm_floor_;
  std::vector<double> pm_demand_;
};

/// A cluster description the scale benches and the differential tests build
/// the plant from.
struct ClusterBlueprint {
  struct NodeDef {
    double base_power_w = 60.0;
    std::vector<std::pair<u32, power::Variability>> devices;
  };
  std::vector<power::DeviceSpec> specs;
  std::vector<NodeDef> nodes;

  void build(ShardedCluster& cluster) const;

  /// Heterogeneous Mont-Blanc-style mix (thin CPU / MIC / GPU nodes) with
  /// per-instance variability drawn from exec::stream_seed(seed, node) — the
  /// blueprint is independent of shard count, thread count, and construction
  /// order.
  static ClusterBlueprint exascale(u64 seed, std::size_t node_count,
                                   double sigma = 0.05);
};

}  // namespace antarex::rtrm
