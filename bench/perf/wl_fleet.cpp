// fleet_hour: a 25k-node exascale-blueprint fleet under governance,
// monitoring and faults, stepped one simulated second per call.
//
// A seeded Poisson job stream is submitted between steps, a fault schedule
// crashes nodes and throttles devices, a MonitorFabric samples every 30 s,
// and a ShardedCapCoordinator holds a cap just above the fleet's idle floor.
// A pass simulates the first ten minutes of the hour from power-on: for about
// 450 s every device warms towards its thermal fixed point and steps in full,
// after which most nodes park and the plant step is cheap. Steps that run
// the control hook, close a cap epoch or take a monitoring sample form the
// slow mode of the step-latency distribution, which is where the cost of
// governance and observability shows.
//
// The fleet steps its shards on the calling thread, not on the pool. A step
// takes a few milliseconds; handing its shards to pool workers and back every
// step made the median step time of identical passes swing by ±20% on a
// shared 4-vCPU VM, where waking an idle vCPU costs whatever the host's
// scheduler makes it cost, against ±3% when stepped serially. At 100k nodes
// the fleet's ~60 MB of state lives in the last-level cache the host shares
// with other tenants, and the median step time spread 11% over ten seeds
// against 5-8% at 25k nodes. dock_campaign and nav_diurnal measure the pool.
//
// Step observers run in registration order. The benchmark registers one
// before the fabric, one between the fabric and the coordinator and one
// after the coordinator, which splits every step into plant, monitor and
// govern segments.
#include <cmath>
#include <memory>
#include <optional>

#include "fault/schedule.hpp"
#include "fault/shard_driver.hpp"
#include "govern/sharded_cap.hpp"
#include "harness.hpp"
#include "monitor/fabric.hpp"
#include "rtrm/sharded_cluster.hpp"
#include "support/strings.hpp"

namespace perf {

using namespace antarex;

namespace {
constexpr double kControlPeriod = 5.0;
constexpr double kJobsPerSecondPer100k = 25.0;
}  // namespace

Pass run_fleet(const Options& opts, exec::ThreadPool& /*pool*/, int /*index*/) {
  Pass p;
  const std::size_t nodes = opts.smoke ? 1000 : 25000;
  const double horizon_s = opts.smoke ? 30.0 : 600.0;
  const double scale = static_cast<double>(nodes) / 100000.0;

  const auto t_setup = Clock::now();
  rtrm::ShardedClusterConfig cfg;
  cfg.base.control_period_s = kControlPeriod;
  cfg.shards = std::max<std::size_t>(16, nodes / 4096);
  rtrm::ShardedCluster fleet(cfg);
  rtrm::ClusterBlueprint::exascale(opts.seed, nodes).build(fleet);

  Rng rng(opts.seed ^ 0xf1ee7ULL);
  std::vector<std::pair<double, rtrm::Job>> arrivals;
  for (double t = rng.exponential(kJobsPerSecondPer100k * scale); t < horizon_s;
       t += rng.exponential(kJobsPerSecondPer100k * scale)) {
    rtrm::Job job;
    job.id = arrivals.size() + 1;
    job.name = "job";
    job.units = rng.uniform(2.0, 6.0);
    power::WorkloadModel w;
    w.cpu_gcycles = rng.uniform(30.0, 80.0);
    w.cores_used = 12;
    job.profiles[power::DeviceType::Cpu] = w;
    arrivals.emplace_back(t, std::move(job));
  }

  fault::FaultModel faults;
  faults.crash_mtbf_s = 2.8e5;
  faults.throttle_rate_hz = 2.5e-7;
  fault::ShardFaultDriver fault_replay(
      fleet, fault::generate_schedule(faults, nodes, 2, horizon_s, opts.seed));

  // The coordinator reads the shard layout, which exists only after the
  // first step.
  fleet.run_for(1.0, 1.0);

  // In a traced pass the observers also open a bench.monitor span over the
  // fabric and a bench.govern span over the coordinator.
  Clock::time_point plant_done, monitor_done, govern_done;
  std::optional<telemetry::ScopedSpan> segment;
  fleet.add_step_observer([&](double, double, double) {
    plant_done = Clock::now();
    segment.emplace("bench.monitor");
  });
  monitor::FabricConfig fabric_cfg;
  fabric_cfg.sample_period_s = 30.0;
  monitor::MonitorFabric fabric(fabric_cfg);
  fabric.attach(fleet);
  fleet.add_step_observer([&](double, double, double) {
    segment.reset();
    monitor_done = Clock::now();
    segment.emplace("bench.govern");
  });
  double floor_w = 0.0;
  for (std::size_t i = 0; i < nodes; ++i) floor_w += fleet.node_floor_w(i);
  govern::ShardedCapConfig cap_cfg;
  cap_cfg.cluster_cap_w = 1.05 * floor_w;
  cap_cfg.epoch_s = 5.0;
  govern::ShardedCapCoordinator cap(fleet, cap_cfg);
  cap.attach();
  fleet.add_step_observer([&](double, double, double) {
    segment.reset();
    govern_done = Clock::now();
  });
  p.setup_s = seconds_since(t_setup);

  std::size_t next_job = 0;
  double plain_plant_s = 0.0, control_plant_s = 0.0, monitor_s = 0.0, govern_s = 0.0;
  u64 plain_steps = 0, control_steps = 0;
  const auto t_work = Clock::now();
  {
    telemetry::ScopedSpan pass_span("bench.pass");
    while (fleet.now_s() < horizon_s - 0.5) {
      const double now = fleet.now_s();
      for (; next_job < arrivals.size() && arrivals[next_job].first <= now; ++next_job)
        fleet.submit(std::move(arrivals[next_job].second));
      const auto t0 = Clock::now();
      {
        telemetry::ScopedSpan span("bench.rtrm");
        fleet.run_for(1.0, 1.0);
      }
      const double plant = std::chrono::duration<double>(plant_done - t0).count();
      if (std::fmod(now, kControlPeriod) == 0.0) {
        control_plant_s += plant;
        ++control_steps;
      } else {
        plain_plant_s += plant;
        ++plain_steps;
      }
      monitor_s += std::chrono::duration<double>(monitor_done - plant_done).count();
      govern_s += std::chrono::duration<double>(govern_done - monitor_done).count();
      p.latency_ms.push_back(
          std::chrono::duration<double, std::milli>(govern_done - t0).count());
    }
  }
  p.work_s = seconds_since(t_work);

  const rtrm::ShardedDispatcher& jobs = fleet.dispatcher();
  const std::size_t submitted = next_job;
  const u64 steps = plain_steps + control_steps;
  double node_energy_j = 0.0;
  for (std::size_t i = 0; i < nodes; ++i) node_energy_j += fleet.node_energy_j(i);
  const double it_energy_j = fleet.telemetry().it_energy_j;

  p.check(cap.stats().violations == 0,
          format("fleet: %llu cap-violation epochs",
                 static_cast<unsigned long long>(cap.stats().violations)));
  p.check(
      jobs.completed() + jobs.failed() + jobs.running() + jobs.queued() == submitted,
      "fleet: completed + failed + running + queued != submitted");
  p.check(std::abs(node_energy_j - it_energy_j) <= 1e-9 * it_energy_j,
          format("fleet: node energy %.17g J != IT energy %.17g J", node_energy_j,
                 it_energy_j));

  p.ops = steps * nodes;
  p.attempted = submitted;
  p.failed = jobs.failed();
  p.counts["rtrm.full_device_steps"] = static_cast<double>(fleet.full_device_steps());
  p.counts["rtrm.jobs_completed"] = static_cast<double>(jobs.completed());
  p.counts["rtrm.it_energy_j"] = it_energy_j;
  p.counts["govern.epochs"] = static_cast<double>(cap.stats().epochs);
  p.counts["govern.violations"] = static_cast<double>(cap.stats().violations);
  p.counts["govern.redistributions"] = static_cast<double>(cap.stats().redistributions);
  p.counts["monitor.samples"] = static_cast<double>(fabric.samples());
  p.counts["fault.applied"] = static_cast<double>(fault_replay.applied());
  for (const auto& [key, value] : p.counts)
    if (key != "rtrm.it_energy_j") p.layers[key] = value;

  const double plant_ms = plain_steps ? plain_plant_s * 1e3 / plain_steps : 0.0;
  p.layers["rtrm.plant_ms_per_step"] = plant_ms;
  p.layers["rtrm.control_ms_per_step"] =
      control_steps ? control_plant_s * 1e3 / control_steps - plant_ms : 0.0;
  p.layers["monitor.sample_ms_per_step"] = monitor_s * 1e3 / steps;
  p.layers["monitor.self_share"] =
      monitor_s > 0.0 ? fabric.self_seconds() / monitor_s : 0.0;
  p.layers["govern.epoch_ms_per_step"] = govern_s * 1e3 / steps;
  return p;
}

}  // namespace perf
