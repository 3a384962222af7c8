// Tests for the runtime resource & power manager: device execution, node
// aggregation, the thermal guard and job dispatch on the legacy objects;
// governors, the node power controller, the facility cap and whole-cluster
// control on rtrm::ShardedCluster; and the legacy rtrm::Cluster's end-to-end
// runs and the capabilities it rejects.
#include <gtest/gtest.h>

#include <memory>

#include "rtrm/cluster.hpp"
#include "rtrm/controllers.hpp"
#include "rtrm/dispatcher.hpp"
#include "rtrm/sharded_cluster.hpp"

namespace antarex::rtrm {
namespace {

using power::DeviceSpec;
using power::DeviceType;
using power::WorkloadModel;

Device make_cpu(const std::string& name = "cpu0") {
  return Device(name, DeviceSpec::xeon_haswell());
}

WorkloadModel simple_work(double gcycles = 10.0, double mem_s = 0.0) {
  WorkloadModel w;
  w.cpu_gcycles = gcycles;
  w.mem_seconds = mem_s;
  w.cores_used = 12;
  w.activity = 0.9;
  return w;
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

TEST(Device, BootsAtHighestPState) {
  Device d = make_cpu();
  EXPECT_EQ(d.op_index(), d.num_ops() - 1);
}

TEST(Device, CompletesWorkInPredictedTime) {
  Device d = make_cpu();
  const WorkloadModel w = simple_work();
  const double unit_time = w.execution_time_s(d.op());
  d.assign(w, 4.0, 1);

  double elapsed = 0.0;
  std::optional<u64> done;
  while (!done) {
    done = d.step(0.05, 22.0);
    elapsed += 0.05;
    ASSERT_LT(elapsed, 100.0);
  }
  EXPECT_EQ(*done, 1u);
  EXPECT_NEAR(elapsed, 4.0 * unit_time, 0.06);
  EXPECT_FALSE(d.busy());
  EXPECT_EQ(d.completed_jobs(), 1u);
}

TEST(Device, LowerFrequencyRunsLonger) {
  Device fast = make_cpu("fast");
  Device slow = make_cpu("slow");
  slow.set_op_index(0);
  const WorkloadModel w = simple_work();
  fast.assign(w, 1.0, 1);
  slow.assign(w, 1.0, 2);
  double t_fast = 0.0, t_slow = 0.0;
  while (!fast.step(0.01, 22.0)) t_fast += 0.01;
  while (!slow.step(0.01, 22.0)) t_slow += 0.01;
  EXPECT_GT(t_slow, 2.0 * t_fast);
}

TEST(Device, AccumulatesEnergyAndHeatsUp) {
  Device d = make_cpu();
  d.assign(simple_work(200.0), 20.0, 1);  // ~93 s of work at the top P-state
  const double t0 = d.temperature_c();
  for (int i = 0; i < 100; ++i) d.step(0.5, 22.0);
  EXPECT_TRUE(d.busy());  // still crunching after 50 s
  EXPECT_GT(d.rapl().total_j(), 0.0);
  EXPECT_GT(d.temperature_c(), t0 + 10.0);
}

TEST(Device, CoolsBackDownWhenIdle) {
  Device d = make_cpu();
  d.assign(simple_work(200.0), 1.0, 1);
  for (int i = 0; i < 40; ++i) d.step(0.5, 22.0);  // finishes in ~4.6 s
  EXPECT_FALSE(d.busy());
  const double hot = d.temperature_c();
  for (int i = 0; i < 200; ++i) d.step(0.5, 22.0);
  EXPECT_LT(d.temperature_c(), hot);
}

TEST(Device, IdleDrawsLittlePower) {
  Device d = make_cpu();
  d.step(1.0, 22.0);
  const double idle_j = d.rapl().total_j();
  Device busy = make_cpu("busy");
  busy.assign(simple_work(1000.0), 1.0, 1);
  busy.step(1.0, 22.0);
  EXPECT_LT(idle_j, 0.35 * busy.rapl().total_j());
}

TEST(Device, RejectsDoubleAssign) {
  Device d = make_cpu();
  d.assign(simple_work(1000.0), 1.0, 1);
  EXPECT_THROW(d.assign(simple_work(), 1.0, 2), Error);
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
  Node n("n0", 50.0);
  n.add_device(make_cpu("c0"));
  n.add_device(make_cpu("c1"));
  const double p = n.power_w();
  EXPECT_GT(p, 50.0);  // base + idle devices
  n.step(2.0, 22.0);
  EXPECT_NEAR(n.rapl().total_j(), p * 2.0, p * 0.2);  // temps drift slightly
}

TEST(Node, ReportsCompletions) {
  Node n("n0");
  Device& d = n.add_device(make_cpu());
  d.assign(simple_work(1.0), 1.0, 42);
  std::vector<u64> done;
  for (int i = 0; i < 200 && done.empty(); ++i) done = n.step(0.05, 22.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 42u);
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
  uncapped->run_for(64.0, 0.25);
  const double unconstrained = uncapped->it_power_w();

  ClusterConfig cfg;
  cfg.facility_cap_w = 0.7 * unconstrained;
  auto capped = busy_cluster(cfg);
  capped->run_for(64.0, 0.25);
  EXPECT_LE(capped->it_power_w(), *cfg.facility_cap_w + 5.0);
  // The budget is handed out, not hoarded: the allocations sum to it.
  double alloc = 0.0;
  for (std::size_t i = 0; i < capped->node_count(); ++i)
    alloc += capped->node_budget_w(i);
  EXPECT_NEAR(alloc, *cfg.facility_cap_w, 1.0);
  // ...and the nodes run close to it.
  EXPECT_GT(capped->it_power_w(), 0.85 * *cfg.facility_cap_w);
}

TEST(ThermalGuard, ThrottlesHotDevice) {
  Device d = make_cpu();
  d.assign(simple_work(1e6), 1.0, 1);
  ThermalGuard guard(60.0, 5.0);  // artificially low limit
  // Heat up at full tilt.
  for (int i = 0; i < 400; ++i) {
    d.step(0.5, 35.0);
    guard.step(d);
  }
  EXPECT_GT(guard.throttle_events(), 0u);
  EXPECT_LT(d.temperature_c(), 60.0 + 8.0);  // held near the limit
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

TEST(Dispatcher, PlacesFcfsOnFreeDevices) {
  std::vector<Node> nodes;
  Node n("n0");
  n.add_device(make_cpu("c0"));
  n.add_device(make_cpu("c1"));
  nodes.push_back(std::move(n));

  Dispatcher disp(PlacementPolicy::FirstFit);
  disp.submit(make_job(1));
  disp.submit(make_job(2));
  disp.submit(make_job(3));
  disp.place(nodes, 0.0);
  EXPECT_EQ(disp.running(), 2u);
  EXPECT_EQ(disp.queued(), 1u);
}

TEST(Dispatcher, FastestFirstPrefersAccelerator) {
  std::vector<Node> nodes;
  Node n("n0");
  n.add_device(make_cpu("c0"));
  n.add_device(Device("g0", DeviceSpec::gpgpu()));
  nodes.push_back(std::move(n));

  Dispatcher disp(PlacementPolicy::FastestFirst);
  disp.submit(make_job(1));
  disp.place(nodes, 0.0);
  ASSERT_EQ(disp.running(), 1u);
  EXPECT_TRUE(nodes[0].device(1).busy());
  EXPECT_FALSE(nodes[0].device(0).busy());
}

TEST(Dispatcher, RespectsDeviceCompatibility) {
  std::vector<Node> nodes;
  Node n("n0");
  n.add_device(Device("m0", DeviceSpec::xeon_phi()));
  nodes.push_back(std::move(n));

  Dispatcher disp;
  disp.submit(make_job(1));  // job runs on Cpu/Gpu only
  disp.place(nodes, 0.0);
  EXPECT_EQ(disp.running(), 0u);
  EXPECT_EQ(disp.queued(), 1u);
}

TEST(Dispatcher, BackfillLetsCompatibleJobsJumpTheQueue) {
  // Head needs a GPU (busy); CPU-only jobs behind it must backfill onto the
  // free CPU instead of waiting (EASY: they cannot delay the head, which is
  // reserved on the GPU).
  std::vector<Node> nodes;
  Node n("n0");
  n.add_device(make_cpu("c0"));
  n.add_device(Device("g0", DeviceSpec::gpgpu()));
  nodes.push_back(std::move(n));

  // Occupy the GPU.
  {
    Job warm = make_job(100);
    warm.profiles.erase(DeviceType::Cpu);
    Dispatcher seed(PlacementPolicy::FirstFit);
    // Assign directly to the GPU to set up the scenario.
    nodes[0].device(1).assign(warm.profile(DeviceType::Gpu), 5.0, 100);
  }

  auto gpu_only_job = [](u64 id) {
    Job j = make_job(id);
    j.profiles.erase(DeviceType::Cpu);
    return j;
  };
  auto cpu_only_job = [](u64 id) {
    Job j = make_job(id);
    j.profiles.erase(DeviceType::Gpu);
    return j;
  };

  // FCFS: everything waits behind the GPU head.
  Dispatcher fcfs(PlacementPolicy::FirstFit, false);
  fcfs.submit(gpu_only_job(1));
  fcfs.submit(cpu_only_job(2));
  fcfs.place(nodes, 0.0);
  EXPECT_EQ(fcfs.running(), 0u);
  EXPECT_EQ(fcfs.queued(), 2u);

  // Backfill: the CPU job runs now.
  Dispatcher easy(PlacementPolicy::FirstFit, true);
  easy.submit(gpu_only_job(3));
  easy.submit(cpu_only_job(4));
  easy.place(nodes, 0.0);
  EXPECT_EQ(easy.running(), 1u);
  EXPECT_EQ(easy.queued(), 1u);
  EXPECT_EQ(easy.backfilled_jobs(), 1u);
  EXPECT_TRUE(nodes[0].device(0).busy());
}

TEST(Dispatcher, BackfillPreservesHeadPriority) {
  // When the head CAN start, backfill must not reorder anything.
  std::vector<Node> nodes;
  Node n("n0");
  n.add_device(make_cpu("c0"));
  nodes.push_back(std::move(n));
  Dispatcher easy(PlacementPolicy::FirstFit, true);
  Job a = make_job(1);
  a.profiles.erase(DeviceType::Gpu);
  Job b = make_job(2);
  b.profiles.erase(DeviceType::Gpu);
  easy.submit(std::move(a));
  easy.submit(std::move(b));
  easy.place(nodes, 0.0);
  ASSERT_EQ(easy.running(), 1u);
  EXPECT_EQ(easy.backfilled_jobs(), 0u);
  EXPECT_EQ(nodes[0].device(0).running_job(), std::optional<u64>(1));
}

TEST(Dispatcher, BackfillOnClusterImprovesThroughput) {
  auto run = [](bool backfill) {
    ClusterConfig cfg;
    cfg.backfill = backfill;
    Cluster cluster(cfg);
    Node n("n0");
    n.add_device(make_cpu("c0"));
    n.add_device(Device("g0", DeviceSpec::gpgpu()));
    cluster.add_node(std::move(n));
    // Long GPU job, then another GPU job (blocks), then CPU jobs.
    for (u64 id = 1; id <= 2; ++id) {
      Job j = make_job(id, 8.0);
      j.profiles.erase(DeviceType::Cpu);
      cluster.submit(std::move(j));
    }
    for (u64 id = 3; id <= 5; ++id) {
      Job j = make_job(id, 1.0);
      j.profiles.erase(DeviceType::Gpu);
      cluster.submit(std::move(j));
    }
    EXPECT_TRUE(cluster.run_until_idle(50000.0, 0.25));
    double cpu_jobs_done = 0.0;
    for (const Job& j : cluster.dispatcher().completed_jobs())
      if (j.id >= 3) cpu_jobs_done = std::max(cpu_jobs_done, j.finish_time_s);
    return cpu_jobs_done;
  };
  EXPECT_LT(run(true), run(false));
}

TEST(Dispatcher, CompletionMovesJobToDone) {
  std::vector<Node> nodes;
  Node n("n0");
  n.add_device(make_cpu());
  nodes.push_back(std::move(n));
  Dispatcher disp;
  disp.submit(make_job(7));
  disp.place(nodes, 0.0);
  disp.on_finished(7, 3.5);
  EXPECT_EQ(disp.completed(), 1u);
  EXPECT_EQ(disp.completed_jobs()[0].state, JobState::Done);
  EXPECT_DOUBLE_EQ(disp.completed_jobs()[0].finish_time_s, 3.5);
  EXPECT_THROW(disp.on_finished(7, 4.0), Error);
}

// --------------------------------------------------------------------------
// Cluster end-to-end
// --------------------------------------------------------------------------

TEST(Cluster, RunsJobsToCompletion) {
  ClusterConfig cfg;
  cfg.governor = GovernorPolicy::Ondemand;
  Cluster cluster(cfg);
  Node n("n0");
  n.add_device(make_cpu());
  cluster.add_node(std::move(n));
  for (u64 i = 1; i <= 3; ++i) cluster.submit(make_job(i, 0.5));

  ASSERT_TRUE(cluster.run_until_idle(500.0));
  EXPECT_EQ(cluster.dispatcher().completed(), 3u);
  EXPECT_GT(cluster.telemetry().it_energy_j, 0.0);
  EXPECT_GE(cluster.telemetry().facility_energy_j,
            cluster.telemetry().it_energy_j);
}

TEST(Cluster, RejectsCapabilitiesOnlyShardedClusterKeeps) {
  ClusterConfig governor;
  governor.governor = GovernorPolicy::EnergyAware;
  EXPECT_THROW(Cluster{governor}, Error);
  ClusterConfig placement;
  placement.placement = PlacementPolicy::EnergyAware;
  EXPECT_THROW(Cluster{placement}, Error);
  ClusterConfig cap;
  cap.facility_cap_w = 500.0;
  EXPECT_THROW(Cluster{cap}, Error);
  EXPECT_THROW(Dispatcher(PlacementPolicy::EnergyAware), Error);
}

TEST(Cluster, SummerAmbientWorsensFacilityEnergy) {
  auto run = [](double ambient) {
    ClusterConfig cfg;
    cfg.ambient_c = ambient;
    Cluster cluster(cfg);
    Node n("n0");
    n.add_device(make_cpu());
    cluster.add_node(std::move(n));
    Job j = make_job(1, 5.0);
    j.profiles.erase(DeviceType::Gpu);
    cluster.submit(std::move(j));
    EXPECT_TRUE(cluster.run_until_idle(4000.0));
    return cluster.telemetry();
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
  auto run = [](ClusterConfig cfg, double seconds) {
    cfg.governor = GovernorPolicy::Performance;
    auto c = cpu_cluster(cfg, 1, 2);
    for (u64 i = 1; i <= 2; ++i) c->submit(cpu_job(i, 50.0, simple_work(5.0)));
    c->run_for(seconds);
    return c;
  };
  const double peak_uncapped = run({}, 30.0)->telemetry().peak_it_power_w;

  ClusterConfig cfg;
  cfg.facility_cap_w = 0.7 * peak_uncapped;
  const auto capped = run(cfg, 60.0);
  // Transients are allowed (one control period); the bulk must respect it.
  EXPECT_LT(capped->telemetry().peak_it_power_w, peak_uncapped);
  EXPECT_LT(capped->it_power_w(), *cfg.facility_cap_w + 10.0);
}

TEST(ShardedCluster, ThermalGuardKeepsDevicesUnderCritical) {
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
