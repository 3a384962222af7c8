// CLAIM-GREEN500 (paper Sec. I): "On average, the efficiency of heterogeneous
// systems is almost three times that of homogeneous systems (i.e., 7,032
// MFLOPS/W vs 2,304 MFLOPS/W)" — Green500, June 2015.
//
// Two arms:
//  1. Closed form — build both node types from the device models and report
//     achieved MFLOPS/W running a dense-compute (HPL-like) workload flat out.
//  2. Fleet — run one identical job ledger through two simulated fleets on
//     rtrm::ShardedCluster (default 8192 nodes each, --nodes to scale): an
//     all-Xeon homogeneous machine and the heterogeneous exascale mix. The
//     heterogeneous fleet retires the same work for less integrated IT
//     energy, which is the Green500 ranking restated as a simulation.
#include <chrono>
#include <iterator>

#include "bench_common.hpp"
#include "exec/parallel.hpp"
#include "exec/pool.hpp"
#include "power/model.hpp"
#include "rtrm/sharded_cluster.hpp"

namespace {

using namespace antarex;
using namespace antarex::rtrm;

std::size_t parse_nodes(int argc, char** argv, std::size_t fallback) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--nodes")
      return static_cast<std::size_t>(std::atoll(argv[i + 1]));
  return fallback;
}

/// All-Xeon fleet drawn exactly like the exascale blueprint's thin-node arm
/// (same per-node seed streams), so the two fleets differ only in silicon.
ClusterBlueprint homogeneous_blueprint(u64 seed, std::size_t node_count) {
  ClusterBlueprint bp;
  bp.specs = {power::DeviceSpec::xeon_haswell()};
  bp.nodes.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    Rng rng(exec::stream_seed(seed, i));
    (void)rng.uniform();  // the mix draw the heterogeneous blueprint burns
    ClusterBlueprint::NodeDef nd;
    nd.base_power_w = rng.uniform(55.0, 95.0);
    nd.devices.emplace_back(0, power::Variability::sample(rng, 0.05));
    nd.devices.emplace_back(0, power::Variability::sample(rng, 0.05));
    bp.nodes.push_back(std::move(nd));
  }
  return bp;
}

/// One HPL-like ledger, profiled for every device class so each fleet runs
/// it on whatever silicon it has.
void submit_ledger(ShardedCluster& cluster, u64 seed, std::size_t n_jobs) {
  Rng rng(seed ^ 0x9500ULL);
  for (std::size_t j = 0; j < n_jobs; ++j) {
    Job job;
    job.id = j + 1;
    job.name = "hpl" + std::to_string(job.id);
    job.units = 2.0 + 3.0 * rng.uniform();
    power::WorkloadModel cpu;
    cpu.cpu_gcycles = 30.0 + 40.0 * rng.uniform();
    cpu.cores_used = 12;
    cpu.activity = 0.9;
    job.profiles[power::DeviceType::Cpu] = cpu;
    // Wider silicon retires the same flops in fewer clock cycles: scale the
    // cycle count by the device-class throughput advantage (GPGPU ~3.4x, MIC
    // ~2x a Xeon at equal flops), same as the differential suite's job mix.
    power::WorkloadModel gpu = cpu;
    gpu.cpu_gcycles = cpu.cpu_gcycles / 3.4;
    gpu.cores_used = 40;
    gpu.activity = 0.85;
    job.profiles[power::DeviceType::Gpu] = gpu;
    power::WorkloadModel mic = cpu;
    mic.cpu_gcycles = cpu.cpu_gcycles / 2.0;
    mic.cores_used = 60;
    mic.activity = 0.85;
    job.profiles[power::DeviceType::Mic] = mic;
    cluster.submit(std::move(job));
  }
}

struct FleetResult {
  double it_energy_j = 0.0;
  u64 completed = 0;
  double time_s = 0.0;
};

FleetResult run_fleet(const ClusterBlueprint& bp, u64 seed, std::size_t jobs,
                      int threads) {
  ShardedClusterConfig cfg;
  cfg.base.governor = GovernorPolicy::EnergyAware;
  cfg.base.placement = PlacementPolicy::EnergyAware;
  cfg.base.control_period_s = 2.0;
  cfg.shards = std::max<std::size_t>(8, bp.nodes.size() / 1024);
  ShardedCluster fleet(cfg);
  bp.build(fleet);
  submit_ledger(fleet, seed, jobs);
  exec::ThreadPool pool(threads);
  fleet.set_pool(&pool);
  fleet.run_until_idle(5000.0, 0.5);  // energy-to-drain: no idle-window tail
  FleetResult r;
  r.it_energy_j = fleet.telemetry().it_energy_j;
  r.completed = fleet.telemetry().jobs_completed;
  r.time_s = fleet.telemetry().time_s;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace antarex::power;

  bench::parse_telemetry(argc, argv);
  const int threads = bench::parse_threads(argc, argv, 8);
  const std::size_t fleet_nodes = parse_nodes(argc, argv, 4096);
  bench::header("CLAIM-GREEN500",
                "heterogeneous vs homogeneous efficiency (Green500 claim)");

  // --- arm 1: closed-form node efficiencies --------------------------------
  constexpr double kCpuEff = 0.75;
  constexpr double kAccelEff = 0.72;

  struct NodeDef {
    const char* name;
    int cpus;
    int accels;
    bool accel_is_gpu;
    double host_freq_ghz;  // CPU clock while hosting accelerators
  };
  const NodeDef defs[] = {
      {"homogeneous (2x Xeon)", 2, 0, false, 3.6},
      {"heterogeneous (2x Xeon + 4x GPGPU)", 2, 4, true, 1.2},
      {"heterogeneous (2x Xeon + 2x MIC)", 2, 2, false, 1.2},
  };

  Table t({"node type", "achieved GFLOPS", "node power (W)", "MFLOPS/W"});
  double homo_eff = 0.0, het_gpu_eff = 0.0;

  for (const NodeDef& def : defs) {
    double gflops = 0.0;
    double watts = 80.0;  // node base (board, memory, fans)

    const DeviceSpec cpu = DeviceSpec::xeon_haswell();
    PowerModel cpu_pm(cpu);
    const bool hosting = def.accels > 0;
    const OperatingPoint cpu_op = cpu.dvfs.at_least(def.host_freq_ghz);
    for (int i = 0; i < def.cpus; ++i) {
      if (hosting) {
        // Hosts feed the accelerators: low activity, no counted flops.
        watts += cpu_pm.total_power_w(cpu_op, 0.25, 55.0);
      } else {
        gflops += cpu.peak_gflops(cpu_op) * kCpuEff;
        watts += cpu_pm.total_power_w(cpu_op, 0.90, 70.0);
      }
    }
    const DeviceSpec accel =
        def.accel_is_gpu ? DeviceSpec::gpgpu() : DeviceSpec::xeon_phi();
    PowerModel accel_pm(accel);
    for (int i = 0; i < def.accels; ++i) {
      gflops += accel.peak_gflops(accel.dvfs.highest()) * kAccelEff;
      watts += accel_pm.total_power_w(accel.dvfs.highest(), 0.90, 70.0);
    }

    const double mflops_per_w = 1000.0 * gflops / watts;
    t.add_row({def.name, format("%.0f", gflops), format("%.0f", watts),
               format("%.0f", mflops_per_w)});
    if (def.accels == 0) homo_eff = mflops_per_w;
    if (def.accel_is_gpu && def.accels > 0) het_gpu_eff = mflops_per_w;
  }
  t.print();

  // --- arm 2: identical ledger through both simulated fleets ---------------
  const u64 kSeed = 2026;
  const std::size_t jobs = fleet_nodes * 6;
  const auto t0 = std::chrono::steady_clock::now();
  const FleetResult homo =
      run_fleet(homogeneous_blueprint(kSeed, fleet_nodes), kSeed, jobs, threads);
  const FleetResult het = run_fleet(
      ClusterBlueprint::exascale(kSeed, fleet_nodes), kSeed, jobs, threads);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const double fleet_ratio = homo.it_energy_j / het.it_energy_j;

  Table ft({"fleet (ShardedCluster)", "nodes", "jobs done", "IT energy (MJ)",
            "makespan (s)"});
  ft.add_row({"homogeneous (2x Xeon/node)", format("%zu", fleet_nodes),
              format("%llu", static_cast<unsigned long long>(homo.completed)),
              format("%.1f", homo.it_energy_j / 1e6),
              format("%.0f", homo.time_s)});
  ft.add_row({"heterogeneous (exascale mix)", format("%zu", fleet_nodes),
              format("%llu", static_cast<unsigned long long>(het.completed)),
              format("%.1f", het.it_energy_j / 1e6),
              format("%.0f", het.time_s)});
  ft.print();
  std::printf("same ledger, %.2fx less IT energy on the heterogeneous fleet "
              "(%.1fs wall for both runs)\n\n", fleet_ratio, wall);

  const double ratio = het_gpu_eff / homo_eff;
  bench::metric("iterations", static_cast<double>(std::size(defs)));
  bench::metric("homogeneous_mflops_per_w", homo_eff);
  bench::metric("heterogeneous_mflops_per_w", het_gpu_eff);
  bench::metric("efficiency_ratio", ratio);
  bench::metric("fleet_nodes", static_cast<double>(fleet_nodes));
  bench::metric("fleet_jobs_completed",
                static_cast<double>(homo.completed + het.completed));
  bench::metric("fleet_homogeneous_joules", homo.it_energy_j);
  bench::metric("fleet_heterogeneous_joules", het.it_energy_j);
  bench::metric("fleet_energy_ratio", fleet_ratio);
  bench::metric("simulated_joules", homo.it_energy_j + het.it_energy_j);
  bench::metric("measured_wall_seconds", wall);
  bench::verdict(
      "7032 vs 2304 MFLOPS/W, heterogeneous ~3.05x more efficient",
      format("%.0f vs %.0f MFLOPS/W, ratio %.2fx; simulated %zu-node fleets "
             "retire one ledger with %.2fx less IT energy heterogeneous",
             het_gpu_eff, homo_eff, ratio, fleet_nodes, fleet_ratio),
      ratio > 2.0 && ratio < 4.5 && homo.completed == jobs &&
          het.completed == jobs && fleet_ratio > 1.1);
  return 0;
}
