// Tests for the runtime resource & power manager on rtrm::ShardedCluster:
// device execution, node aggregation, governors, the node power controller,
// the facility cap, the thermal guard, job dispatch and whole-cluster runs,
// serial and with plant shards stepped on the exec pool.
#include <gtest/gtest.h>

#include <memory>

#include "exec/pool.hpp"
#include "rtrm/sharded_cluster.hpp"

namespace antarex::rtrm {
namespace {

using power::DeviceSpec;
using power::DeviceType;
using power::WorkloadModel;

WorkloadModel simple_work(double gcycles = 10.0, double mem_s = 0.0) {
  WorkloadModel w;
  w.cpu_gcycles = gcycles;
  w.mem_seconds = mem_s;
  w.cores_used = 12;
  w.activity = 0.9;
  return w;
}

/// The IT power of the latest committed step, read the way govern, monitor
/// and the fault driver read it: through a step observer.
std::shared_ptr<double> watch_it_power(ShardedCluster& c) {
  auto it_w = std::make_shared<double>(0.0);
  c.add_step_observer([it_w](double, double p, double) { *it_w = p; });
  return it_w;
}

/// A single-shard ShardedCluster of `nodes` nodes, each with `cpus` Xeons
/// and `base_w` of node base power.
std::unique_ptr<ShardedCluster> cpu_cluster(ClusterConfig base,
                                            std::size_t nodes = 1,
                                            std::size_t cpus = 1,
                                            double base_w = 60.0) {
  ShardedClusterConfig cfg;
  cfg.base = base;
  cfg.shards = 1;
  auto cluster = std::make_unique<ShardedCluster>(cfg);
  const u32 cpu = cluster->add_spec(DeviceSpec::xeon_haswell());
  const std::vector<std::pair<u32, power::Variability>> devices(cpus,
                                                                {cpu, {}});
  for (std::size_t i = 0; i < nodes; ++i) cluster->add_node(base_w, devices);
  return cluster;
}

/// A single-shard, single-node ShardedCluster with one device per spec in
/// `specs`, in order.
std::unique_ptr<ShardedCluster> node_cluster(ClusterConfig base,
                                             const std::vector<DeviceSpec>& specs,
                                             double base_w = 60.0) {
  ShardedClusterConfig cfg;
  cfg.base = base;
  cfg.shards = 1;
  auto cluster = std::make_unique<ShardedCluster>(cfg);
  std::vector<std::pair<u32, power::Variability>> devices;
  for (const DeviceSpec& spec : specs)
    devices.emplace_back(cluster->add_spec(spec), power::Variability{});
  cluster->add_node(base_w, devices);
  return cluster;
}

/// Run until the dispatcher has completed `jobs` jobs, in steps of `dt_s`;
/// returns the virtual time that took.
double run_until_completed(ShardedCluster& c, std::size_t jobs, double dt_s,
                           double max_s = 1000.0) {
  const double t0 = c.now_s();
  while (c.dispatcher().completed() < jobs) {
    c.run_for(dt_s, dt_s);
    EXPECT_LT(c.now_s() - t0, max_s);
    if (c.now_s() - t0 >= max_s) break;
  }
  return c.now_s() - t0;
}

/// A CPU-only job of `units` work units of `w`.
Job cpu_job(u64 id, double units, const WorkloadModel& w) {
  Job j;
  j.id = id;
  j.name = "job" + std::to_string(id);
  j.units = units;
  j.profiles[DeviceType::Cpu] = w;
  return j;
}

// --------------------------------------------------------------------------
// Device
// --------------------------------------------------------------------------

ClusterConfig performance() {
  ClusterConfig cfg;
  cfg.governor = GovernorPolicy::Performance;
  return cfg;
}

TEST(Device, BootsAtHighestPState) {
  auto c = cpu_cluster({});
  EXPECT_EQ(c->device_op_index(0, 0), c->device_spec(0, 0).dvfs.size() - 1);
}

TEST(Device, CompletesWorkInPredictedTime) {
  ClusterConfig cfg = performance();
  cfg.ambient_c = 22.0;
  auto c = cpu_cluster(cfg);
  const WorkloadModel w = simple_work();
  const double unit_time = w.execution_time_s(c->device_spec(0, 0).dvfs.highest());
  c->submit(cpu_job(1, 4.0, w));
  const double elapsed = run_until_completed(*c, 1, 0.05, 100.0);
  ASSERT_EQ(c->dispatcher().completed(), 1u);
  EXPECT_NEAR(elapsed, 4.0 * unit_time, 0.06);
  EXPECT_FALSE(c->device_busy(0, 0));
  EXPECT_EQ(c->device_completed_jobs(0, 0), 1u);
}

TEST(Device, LowerFrequencyRunsLonger) {
  auto time_one_unit = [](GovernorPolicy g) {
    ClusterConfig cfg;
    cfg.governor = g;
    auto c = cpu_cluster(cfg);
    c->submit(cpu_job(1, 1.0, simple_work()));
    return run_until_completed(*c, 1, 0.01);
  };
  EXPECT_GT(time_one_unit(GovernorPolicy::Powersave),
            2.0 * time_one_unit(GovernorPolicy::Performance));
}

TEST(Device, AccumulatesEnergyAndHeatsUp) {
  ClusterConfig cfg = performance();
  cfg.ambient_c = 22.0;
  auto c = cpu_cluster(cfg);
  const double t0 = c->device_temperature_c(0, 0);
  c->submit(cpu_job(1, 20.0, simple_work(200.0)));  // ~93 s at the top P-state
  c->run_for(50.0, 0.5);
  EXPECT_TRUE(c->device_busy(0, 0));  // still crunching after 50 s
  EXPECT_GT(c->device_energy_j(0, 0), 0.0);
  EXPECT_GT(c->device_temperature_c(0, 0), t0 + 10.0);
}

TEST(Device, CoolsBackDownWhenIdle) {
  ClusterConfig cfg = performance();
  cfg.ambient_c = 22.0;
  auto c = cpu_cluster(cfg);
  c->submit(cpu_job(1, 1.0, simple_work(200.0)));
  c->run_for(20.0, 0.5);  // finishes in ~4.6 s
  EXPECT_FALSE(c->device_busy(0, 0));
  const double hot = c->device_temperature_c(0, 0);
  c->run_for(100.0, 0.5);
  EXPECT_LT(c->device_temperature_c(0, 0), hot);
}

TEST(Device, IdleDrawsLittlePower) {
  // Both at the top P-state: the gap is activity, not frequency.
  auto idle = cpu_cluster(performance());
  idle->run_for(1.0, 1.0);
  auto busy = cpu_cluster(performance());
  busy->submit(cpu_job(1, 1.0, simple_work(1000.0)));
  busy->run_for(1.0, 1.0);
  EXPECT_LT(idle->device_energy_j(0, 0), 0.35 * busy->device_energy_j(0, 0));
}

// --------------------------------------------------------------------------
// Governors (ShardedCluster: one control period proposes every P-state)
// --------------------------------------------------------------------------

/// The P-state the governor picks for device 0 of a one-device cluster after
/// one control period, with `job` (if any) running on it.
std::size_t governed_op(GovernorPolicy g, const Job* job,
                        double base_w = 60.0) {
  ClusterConfig cfg;
  cfg.governor = g;
  auto c = cpu_cluster(cfg, 1, 1, base_w);
  if (job) c->submit(*job);
  c->run_for(0.25, 0.25);
  return c->device_op_index(0, 0);
}

TEST(Governor, PerformanceAndPowersave) {
  const std::size_t top = DeviceSpec::xeon_haswell().dvfs.size() - 1;
  EXPECT_EQ(governed_op(GovernorPolicy::Powersave, nullptr), 0u);
  EXPECT_EQ(governed_op(GovernorPolicy::Performance, nullptr), top);
}

TEST(Governor, OndemandTracksLoad) {
  const std::size_t top = DeviceSpec::xeon_haswell().dvfs.size() - 1;
  auto c = cpu_cluster({});
  c->run_for(0.25, 0.25);
  EXPECT_EQ(c->device_op_index(0, 0), 0u);  // idle -> min
  c->submit(cpu_job(1, 1.0, simple_work(1000.0)));
  c->run_for(1.0, 0.25);  // the next control period sees it busy
  EXPECT_TRUE(c->device_busy(0, 0));
  EXPECT_EQ(c->device_op_index(0, 0), top);  // busy -> max
}

TEST(Governor, EnergyAwarePicksInteriorPointForComputeBound) {
  // The device-level optimum lies strictly below the top P-state (leakage-
  // time tradeoff) — and for memory-bound work it is lower still. Zero base
  // power leaves no base-power share in the objective.
  const Job compute = cpu_job(1, 1.0, simple_work(1000.0, 0.0));
  const std::size_t compute_idx =
      governed_op(GovernorPolicy::EnergyAware, &compute, 0.0);
  EXPECT_LT(compute_idx, DeviceSpec::xeon_haswell().dvfs.size() - 1);

  const Job memory = cpu_job(2, 1.0, simple_work(10.0, 5.0));
  EXPECT_LE(governed_op(GovernorPolicy::EnergyAware, &memory, 0.0),
            compute_idx);
}

TEST(Governor, EnergyAwareBasePowerShareRaisesTheOptimum) {
  // Without a base-power share, device-only energy favours very low
  // frequencies (powersave-like). Charging the node's always-on power to the
  // job (base power / device count) makes finishing sooner worthwhile: the
  // chosen P-state must rise.
  const Job job = cpu_job(1, 1.0, simple_work(1000.0, 0.0));
  EXPECT_GT(governed_op(GovernorPolicy::EnergyAware, &job, 60.0),
            governed_op(GovernorPolicy::EnergyAware, &job, 0.0));
}

TEST(Governor, EnergyAwareBeatsOndemandOnEnergyToSolution) {
  // Same job, same device; ondemand runs at max, energy-aware at optimum.
  auto run = [](GovernorPolicy g) {
    ClusterConfig cfg;
    cfg.governor = g;
    auto c = cpu_cluster(cfg, 1, 1, 0.0);
    c->submit(cpu_job(1, 1.0, simple_work(50.0, 0.4)));
    while (c->dispatcher().completed() == 0) c->run_for(0.05, 0.05);
    return c->device_energy_j(0, 0);
  };
  EXPECT_LT(run(GovernorPolicy::EnergyAware), run(GovernorPolicy::Ondemand));
}

// --------------------------------------------------------------------------
// Node
// --------------------------------------------------------------------------

TEST(Node, AggregatesPowerAndEnergy) {
  ClusterConfig cfg = performance();
  cfg.ambient_c = 22.0;
  auto c = cpu_cluster(cfg, 1, 2, 50.0);
  c->run_for(0.5, 0.5);
  const double p = c->node_power_w(0);
  EXPECT_GT(p, 50.0);  // base + idle devices
  EXPECT_DOUBLE_EQ(p, 50.0 + c->device_power_w(0) + c->device_power_w(1));
  c->run_for(2.0, 0.5);
  const double e = c->node_energy_j(0);
  EXPECT_NEAR(e, p * 2.5, p * 0.2);  // temps drift slightly
  EXPECT_GT(e, c->device_energy_j(0, 0) + c->device_energy_j(0, 1));
}

TEST(Node, ReportsCompletions) {
  auto c = cpu_cluster({});
  c->submit(cpu_job(42, 1.0, simple_work(1.0)));
  run_until_completed(*c, 1, 0.05, 10.0);
  ASSERT_EQ(c->dispatcher().completed(), 1u);
  EXPECT_EQ(c->dispatcher().completed_jobs()[0].id, 42u);
  EXPECT_EQ(c->device_completed_jobs(0, 0), 1u);
}

// --------------------------------------------------------------------------
// Power controllers (ShardedCluster)
// --------------------------------------------------------------------------

// Authority model: the governor proposes a P-state each control period; the
// node controller owns persistent per-device ceilings and clamps the
// proposal, so a budget violation lowers a ceiling that stays down until
// headroom returns. The control hook runs the controller after the governor.

TEST(NodeBudget, ThrottlesUntilUnderBudget) {
  auto c = cpu_cluster({}, 1, 1, 30.0);
  c->submit(cpu_job(1, 1.0, simple_work(1e6)));
  c->run_for(0.25, 0.25);
  const double unconstrained = c->node_power_w(0);
  c->apply_node_budget(0, 0.6 * unconstrained);
  c->run_for(0.25, 0.25);
  EXPECT_LE(c->node_power_w(0), 0.6 * unconstrained + 1.0);
  EXPECT_LT(c->device_op_index(0, 0), c->device_spec(0, 0).dvfs.size() - 1);
}

TEST(NodeBudget, RaisesCeilingWhenHeadroomReturns) {
  // Start throttled; with an unlimited budget the ceiling must recover all
  // the way up so a performance-governor proposal survives the clamp.
  ClusterConfig cfg;
  cfg.governor = GovernorPolicy::Performance;
  auto c = cpu_cluster(cfg, 1, 1, 30.0);
  double budget_w = 40.0;  // tiny: forces the ceiling to the floor
  c->set_control_hook([&budget_w](ShardedCluster& cl, double) {
    cl.apply_node_budget(0, budget_w);
  });
  c->submit(cpu_job(1, 1.0, simple_work(1e6)));
  c->run_for(8.0, 0.25);
  EXPECT_EQ(c->device_op_index(0, 0), 0u);

  budget_w = 1e5;  // headroom returns: one notch per control period
  c->run_for(32.0, 0.25);
  EXPECT_EQ(c->device_op_index(0, 0), c->device_spec(0, 0).dvfs.size() - 1);
}

TEST(NodeBudget, CeilingOverridesGovernorEveryPeriod) {
  // Ondemand re-proposes the top P-state every period; the persistent
  // ceiling must keep power bounded anyway.
  auto c = cpu_cluster({}, 1, 1, 30.0);
  c->submit(cpu_job(1, 1.0, simple_work(1e6)));
  c->run_for(0.25, 0.25);
  const double budget_w = 0.6 * c->node_power_w(0);
  c->set_control_hook([budget_w](ShardedCluster& cl, double) {
    cl.apply_node_budget(0, budget_w);
  });
  for (int i = 0; i < 64; ++i) {
    c->run_for(1.0, 0.25);
    EXPECT_LE(c->node_power_w(0), budget_w + 1.0) << "period " << i;
  }
}

TEST(FacilityCap, RespectsFacilityBudget) {
  auto busy_cluster = [](ClusterConfig cfg) {
    auto c = cpu_cluster(cfg, 4, 1, 30.0);
    for (u64 id = 1; id <= 4; ++id)
      c->submit(cpu_job(id, 1.0, simple_work(1e6)));
    return c;
  };
  auto uncapped = busy_cluster({});
  const auto uncapped_w = watch_it_power(*uncapped);
  uncapped->run_for(64.0, 0.25);
  const double unconstrained = *uncapped_w;

  ClusterConfig cfg;
  cfg.facility_cap_w = 0.7 * unconstrained;
  auto capped = busy_cluster(cfg);
  const auto capped_w = watch_it_power(*capped);
  capped->run_for(64.0, 0.25);
  EXPECT_LE(*capped_w, *cfg.facility_cap_w + 5.0);
  // The budget is handed out, not hoarded: the allocations sum to it.
  double alloc = 0.0;
  for (std::size_t i = 0; i < capped->node_count(); ++i)
    alloc += capped->node_budget_w(i);
  EXPECT_NEAR(alloc, *cfg.facility_cap_w, 1.0);
  // ...and the nodes run close to it.
  EXPECT_GT(*capped_w, 0.85 * *cfg.facility_cap_w);
}

TEST(ThermalLimit, ThrottlesHotDevice) {
  // An artificially low critical temperature: the guard must lower the
  // device's ceiling below the top P-state and hold it near the limit.
  ClusterConfig cfg = performance();
  cfg.t_crit_c = 60.0;
  cfg.ambient_c = 35.0;
  auto c = cpu_cluster(cfg);
  c->submit(cpu_job(1, 1.0, simple_work(1e6)));
  c->run_for(200.0, 0.5);
  EXPECT_LT(c->device_op_index(0, 0), c->device_spec(0, 0).dvfs.size() - 1);
  EXPECT_LT(c->device_temperature_c(0, 0), 60.0 + 8.0);
}

// --------------------------------------------------------------------------
// Dispatcher
// --------------------------------------------------------------------------

Job make_job(u64 id, double units = 1.0) {
  Job j;
  j.id = id;
  j.name = "job" + std::to_string(id);
  j.units = units;
  WorkloadModel cpu = simple_work(5.0);
  j.profiles[DeviceType::Cpu] = cpu;
  WorkloadModel gpu = simple_work(5.0);
  gpu.cores_used = 2496;  // much faster on the accelerator
  j.profiles[DeviceType::Gpu] = gpu;
  return j;
}

Job gpu_only(u64 id, double units = 1.0) {
  Job j = make_job(id, units);
  j.profiles.erase(DeviceType::Cpu);
  return j;
}

Job cpu_only(u64 id, double units = 1.0) {
  Job j = make_job(id, units);
  j.profiles.erase(DeviceType::Gpu);
  return j;
}

TEST(Dispatcher, PlacesFcfsOnFreeDevices) {
  auto c = cpu_cluster({}, 1, 2);
  for (u64 id = 1; id <= 3; ++id) c->submit(make_job(id, 100.0));
  c->run_for(0.25, 0.25);
  EXPECT_EQ(c->dispatcher().running(), 2u);
  EXPECT_EQ(c->dispatcher().queued(), 1u);
  // Queue order decides who waits.
  EXPECT_EQ(c->dispatcher().device_of(1), 0u);
  EXPECT_EQ(c->dispatcher().device_of(2), 1u);
  EXPECT_EQ(c->dispatcher().device_of(3), ShardedDispatcher::kInvalidDevice);
}

TEST(Dispatcher, FastestFirstPrefersAccelerator) {
  ClusterConfig cfg;
  cfg.placement = PlacementPolicy::FastestFirst;
  auto c = node_cluster(cfg, {DeviceSpec::xeon_haswell(), DeviceSpec::gpgpu()});
  c->submit(make_job(1, 1e6));
  c->run_for(0.25, 0.25);
  ASSERT_EQ(c->dispatcher().running(), 1u);
  EXPECT_TRUE(c->device_busy(0, 1));
  EXPECT_FALSE(c->device_busy(0, 0));
}

TEST(Dispatcher, RespectsDeviceCompatibility) {
  auto c = node_cluster({}, {DeviceSpec::xeon_phi()});
  c->submit(make_job(1));  // job runs on Cpu/Gpu only
  c->run_for(0.25, 0.25);
  EXPECT_EQ(c->dispatcher().running(), 0u);
  EXPECT_EQ(c->dispatcher().queued(), 1u);
}

TEST(Dispatcher, BackfillLetsCompatibleJobsJumpTheQueue) {
  // Head needs a GPU (busy); CPU-only jobs behind it must backfill onto the
  // free CPU instead of waiting (EASY: they cannot delay the head, which is
  // reserved on the GPU).
  auto blocked_head = [](bool backfill) {
    ClusterConfig cfg;
    cfg.backfill = backfill;
    auto c =
        node_cluster(cfg, {DeviceSpec::xeon_haswell(), DeviceSpec::gpgpu()});
    c->submit(gpu_only(100, 1e6));  // occupies the GPU
    c->run_for(0.25, 0.25);
    EXPECT_TRUE(c->device_busy(0, 1));
    c->submit(gpu_only(1));
    c->submit(cpu_only(2, 100.0));
    c->run_for(0.25, 0.25);
    return c;
  };

  // FCFS: everything waits behind the GPU head.
  const auto fcfs = blocked_head(false);
  EXPECT_EQ(fcfs->dispatcher().running(), 1u);
  EXPECT_EQ(fcfs->dispatcher().queued(), 2u);
  EXPECT_FALSE(fcfs->device_busy(0, 0));

  // Backfill: the CPU job runs now.
  const auto easy = blocked_head(true);
  EXPECT_EQ(easy->dispatcher().running(), 2u);
  EXPECT_EQ(easy->dispatcher().queued(), 1u);
  EXPECT_EQ(easy->dispatcher().backfilled_jobs(), 1u);
  EXPECT_TRUE(easy->device_busy(0, 0));
}

TEST(Dispatcher, BackfillPreservesHeadPriority) {
  // When the head CAN start, backfill must not reorder anything.
  ClusterConfig cfg;
  cfg.backfill = true;
  auto c = cpu_cluster(cfg);
  c->submit(cpu_only(1, 100.0));
  c->submit(cpu_only(2, 100.0));
  c->run_for(0.25, 0.25);
  ASSERT_EQ(c->dispatcher().running(), 1u);
  EXPECT_EQ(c->dispatcher().backfilled_jobs(), 0u);
  EXPECT_EQ(c->dispatcher().running_jobs()[0].id, 1u);
}

TEST(Dispatcher, BackfillOnClusterImprovesThroughput) {
  auto run = [](bool backfill) {
    ClusterConfig cfg;
    cfg.backfill = backfill;
    auto c =
        node_cluster(cfg, {DeviceSpec::xeon_haswell(), DeviceSpec::gpgpu()});
    // Long GPU job, then another GPU job (blocks), then CPU jobs.
    for (u64 id = 1; id <= 2; ++id) c->submit(gpu_only(id, 8.0));
    for (u64 id = 3; id <= 5; ++id) c->submit(cpu_only(id));
    EXPECT_TRUE(c->run_until_idle(50000.0, 0.25));
    double cpu_jobs_done = 0.0;
    for (const Job& j : c->dispatcher().completed_jobs())
      if (j.id >= 3) cpu_jobs_done = std::max(cpu_jobs_done, j.finish_time_s);
    return cpu_jobs_done;
  };
  EXPECT_LT(run(true), run(false));
}

TEST(Dispatcher, CompletionMovesJobToDone) {
  auto c = cpu_cluster({});
  c->submit(make_job(7));
  run_until_completed(*c, 1, 0.25, 10.0);
  ASSERT_EQ(c->dispatcher().completed(), 1u);
  EXPECT_EQ(c->dispatcher().running(), 0u);
  const Job& done = c->dispatcher().completed_jobs()[0];
  EXPECT_EQ(done.id, 7u);
  EXPECT_EQ(done.state, JobState::Done);
  EXPECT_GT(done.finish_time_s, done.start_time_s);
  EXPECT_LE(done.finish_time_s, c->now_s());
  EXPECT_EQ(c->dispatcher().device_of(7), ShardedDispatcher::kInvalidDevice);
}

// --------------------------------------------------------------------------
// Cluster end-to-end
// --------------------------------------------------------------------------

TEST(Cluster, RunsJobsToCompletion) {
  // Four plant shards stepped on a two-worker pool commit the same plant as
  // one serial shard.
  auto run = [](std::size_t shards, exec::ThreadPool* pool) {
    ShardedClusterConfig cfg;
    cfg.shards = shards;
    auto c = std::make_unique<ShardedCluster>(cfg);
    const u32 cpu = c->add_spec(DeviceSpec::xeon_haswell());
    for (int i = 0; i < 8; ++i) c->add_node(60.0, {{cpu, {}}, {cpu, {}}});
    for (u64 id = 1; id <= 24; ++id) c->submit(make_job(id, 0.5 + id % 3));
    c->set_pool(pool);
    EXPECT_TRUE(c->run_until_idle(500.0));
    return c->telemetry();
  };
  exec::ThreadPool pool(2);
  const ClusterTelemetry serial = run(1, nullptr);
  const ClusterTelemetry pooled = run(4, &pool);
  EXPECT_EQ(serial.jobs_completed, 24u);
  EXPECT_GT(serial.it_energy_j, 0.0);
  EXPECT_GE(serial.facility_energy_j, serial.it_energy_j);
  EXPECT_EQ(pooled.jobs_completed, serial.jobs_completed);
  EXPECT_EQ(pooled.time_s, serial.time_s);
  EXPECT_EQ(pooled.it_energy_j, serial.it_energy_j);
  EXPECT_EQ(pooled.max_temperature_c, serial.max_temperature_c);
}

TEST(Cluster, SummerAmbientWorsensFacilityEnergy) {
  auto run = [](double ambient) {
    ClusterConfig cfg;
    cfg.ambient_c = ambient;
    auto c = cpu_cluster(cfg);
    c->submit(cpu_only(1, 5.0));
    EXPECT_TRUE(c->run_until_idle(4000.0));
    return c->telemetry();
  };
  const auto winter = run(5.0);
  const auto summer = run(35.0);
  // Similar IT energy, clearly higher facility energy in summer.
  EXPECT_NEAR(summer.it_energy_j / winter.it_energy_j, 1.0, 0.1);
  EXPECT_GT(summer.facility_energy_j, 1.08 * winter.facility_energy_j);
}

// --------------------------------------------------------------------------
// ShardedCluster end-to-end control
// --------------------------------------------------------------------------

TEST(ShardedCluster, EnergyAwareGovernorSavesEnergyOnSameJobs) {
  auto run = [](GovernorPolicy g) {
    ClusterConfig cfg;
    cfg.governor = g;
    auto c = cpu_cluster(cfg);
    c->submit(cpu_job(1, 4.0, simple_work(5.0, 0.3)));  // partly memory-bound
    EXPECT_TRUE(c->run_until_idle(4000.0));
    return c->telemetry().it_energy_j;
  };
  EXPECT_LT(run(GovernorPolicy::EnergyAware), run(GovernorPolicy::Ondemand));
}

TEST(ShardedCluster, FacilityCapHoldsPeakPower) {
  auto run = [](ClusterConfig cfg, double seconds, double* it_w = nullptr) {
    cfg.governor = GovernorPolicy::Performance;
    auto c = cpu_cluster(cfg, 1, 2);
    for (u64 i = 1; i <= 2; ++i) c->submit(cpu_job(i, 50.0, simple_work(5.0)));
    const auto last_w = watch_it_power(*c);
    c->run_for(seconds);
    if (it_w) *it_w = *last_w;
    return c;
  };
  const double peak_uncapped = run({}, 30.0)->telemetry().peak_it_power_w;

  ClusterConfig cfg;
  cfg.facility_cap_w = 0.7 * peak_uncapped;
  double capped_w = 0.0;
  const auto capped = run(cfg, 60.0, &capped_w);
  // Transients are allowed (one control period); the bulk must respect it.
  EXPECT_LT(capped->telemetry().peak_it_power_w, peak_uncapped);
  EXPECT_LT(capped_w, *cfg.facility_cap_w + 10.0);
}

TEST(ShardedCluster, GuardKeepsDevicesUnderCritical) {
  ClusterConfig cfg;
  cfg.governor = GovernorPolicy::Performance;
  cfg.t_crit_c = 70.0;
  cfg.ambient_c = 35.0;
  auto c = cpu_cluster(cfg);
  c->submit(cpu_job(1, 100.0, simple_work(5.0)));
  c->run_for(300.0);
  EXPECT_LT(c->telemetry().max_temperature_c, 70.0 + 10.0);
}

}  // namespace
}  // namespace antarex::rtrm
