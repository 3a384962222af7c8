// CLAIM-EXASCALE-GAP (paper Sec. I): Exascale = 10^18 FLOPS within a 20-30 MW
// envelope, i.e. >= 33-50 GFLOPS/W — while 2015-era heterogeneous systems
// deliver ~7 GFLOPS/W ("two orders of magnitude lower" in the paper's loose
// phrasing when measured against homogeneous technology).
//
// Two arms:
//  1. Closed form — extrapolate the node models to a full machine and report
//     the efficiency gap factors the ANTAREX software stack must help close.
//  2. Engine scale — actually *simulate* an exascale-class fleet through
//     rtrm::ShardedCluster (default 100k heterogeneous nodes, --nodes up to
//     1M): compact SoA state bounds memory per node, shard calendars park
//     settled nodes so idle ticks cost nothing, and a small-N run that
//     reproduces a fixture recorded from the legacy per-object stepper
//     (tests/golden/exascale_equiv_2026.txt) proves the numbers are the same
//     physics.
//
// Gated metrics are deterministic (node counts, bytes/node, device steps,
// simulated joules, equivalence); wall-clock throughput is measured_* only.
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench_common.hpp"
#include "exec/pool.hpp"
#include "power/cooling.hpp"
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

void submit_fleet_jobs(ShardedCluster& cluster, u64 seed, std::size_t n_jobs) {
  Rng rng(seed ^ 0xf1ee7ULL);
  for (std::size_t j = 0; j < n_jobs; ++j) {
    Job job;
    job.id = j + 1;
    job.name = "hpl" + std::to_string(job.id);
    job.units = 2.0 + 4.0 * rng.uniform();
    power::WorkloadModel w;
    w.cpu_gcycles = 30.0 + 50.0 * rng.uniform();
    w.cores_used = 12;
    w.activity = 0.9;
    job.profiles[power::DeviceType::Cpu] = w;
    cluster.submit(std::move(job));
  }
}

void submit_equiv_jobs(ShardedCluster& cluster) {
  Rng rng(99);
  for (std::size_t j = 0; j < 48; ++j) {
    Job job;
    job.id = j + 1;
    job.name = "eq" + std::to_string(job.id);
    job.units = 1.0 + 3.0 * rng.uniform();
    power::WorkloadModel w;
    w.cpu_gcycles = 25.0 + 40.0 * rng.uniform();
    w.cores_used = 12;
    w.activity = 0.9;
    job.profiles[power::DeviceType::Cpu] = w;
    cluster.submit(std::move(job));
  }
}

/// The compared end state at %.17g: telemetry, then per-node energy and
/// per-device P-state, temperature and energy — the format of
/// tests/golden/exascale_equiv_2026.txt.
std::string equiv_document(ShardedCluster& c) {
  const ClusterTelemetry& t = c.telemetry();
  std::string out =
      format("final t=%.17g it_e=%.17g fac_e=%.17g peak=%.17g done=%llu\n",
             t.time_s, t.it_energy_j, t.facility_energy_j, t.peak_it_power_w,
             static_cast<unsigned long long>(t.jobs_completed));
  for (std::size_t i = 0; i < c.node_count(); ++i) {
    out += format("node %zu e=%.17g\n", i, c.node_energy_j(i));
    for (std::size_t d = 0; d < c.node_device_count(i); ++d)
      out += format("  dev %zu op=%zu temp=%.17g e=%.17g\n", d,
                    c.device_op_index(i, d), c.device_temperature_c(i, d),
                    c.device_energy_j(i, d));
  }
  return out;
}

/// The fixture recorded from the legacy stepper, in the tests' golden dir.
std::string equiv_fixture() {
  const std::string path =
      std::string(ANTAREX_GOLDEN_DIR) + "/exascale_equiv_2026.txt";
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Small-N differential check: the sharded engine must land on the
/// bit-identical state the legacy per-object stepper recorded in the fixture
/// for the same blueprint + jobs.
bool engines_equivalent(int threads) {
  constexpr std::size_t kNodes = 64;
  constexpr u64 kSeed = 2026;
  ShardedClusterConfig cfg;
  cfg.base.governor = GovernorPolicy::EnergyAware;
  cfg.base.placement = PlacementPolicy::FastestFirst;
  cfg.shards = 7;
  ShardedCluster sharded(cfg);
  ClusterBlueprint::exascale(kSeed, kNodes).build(sharded);
  submit_equiv_jobs(sharded);
  exec::ThreadPool pool(threads);
  sharded.set_pool(&pool);
  sharded.run_for(120.0, 0.25);

  const std::string fixture = equiv_fixture();
  return !fixture.empty() && equiv_document(sharded) == fixture;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace antarex::power;

  bench::parse_telemetry(argc, argv);
  const int threads = bench::parse_threads(argc, argv, 8);
  const std::size_t fleet_nodes = parse_nodes(argc, argv, 100000);
  bench::header("CLAIM-EXASCALE-GAP",
                "node-model extrapolation + sharded 100k-node fleet simulation");

  // --- arm 1: closed-form extrapolation ------------------------------------
  constexpr double kExaflops = 1e9;  // GFLOPS
  constexpr double kBudgetW = 20e6;
  const double required_gflops_per_w = kExaflops / kBudgetW;  // 50

  struct Tech {
    const char* name;
    double gflops;
    double watts;
  };
  const DeviceSpec cpu = DeviceSpec::xeon_haswell();
  const DeviceSpec gpu = DeviceSpec::gpgpu();
  PowerModel cpu_pm(cpu), gpu_pm(gpu);
  const double cpu_gf = cpu.peak_gflops(cpu.dvfs.highest()) * 0.75;
  const double cpu_w = cpu_pm.total_power_w(cpu.dvfs.highest(), 0.9, 70.0);
  const double gpu_gf = gpu.peak_gflops(gpu.dvfs.highest()) * 0.72;
  const double gpu_w = gpu_pm.total_power_w(gpu.dvfs.highest(), 0.9, 70.0);
  const Tech techs[] = {
      {"homogeneous node (2x Xeon)", 2 * cpu_gf, 2 * cpu_w + 80.0},
      {"heterogeneous node (2x Xeon host + 4x GPGPU)",
       4 * gpu_gf, 4 * gpu_w + 2 * cpu_pm.total_power_w(cpu.dvfs.lowest(), 0.25, 55.0) + 80.0},
  };

  CoolingModel cooling;
  Table t({"technology", "GFLOPS/W (IT)", "machine power @1 EFLOPS (MW)",
           "facility power w/ cooling (MW)", "gap to 20 MW"});
  double het_gap = 0.0, homo_gap = 0.0;
  for (const Tech& tech : techs) {
    const double eff = tech.gflops / tech.watts;
    const double machine_mw = kExaflops / eff / 1e6;
    const double facility_mw = machine_mw * cooling.pue(machine_mw * 1e6, 18.0);
    const double gap = facility_mw / 20.0;
    t.add_row({tech.name, format("%.2f", eff), format("%.0f", machine_mw),
               format("%.0f", facility_mw), format("%.0fx", gap)});
    if (tech.gflops == 4 * gpu_gf) het_gap = gap;
    else homo_gap = gap;
  }
  t.print();
  std::printf("required: %.0f GFLOPS/W for 1 EFLOPS in 20 MW\n\n",
              required_gflops_per_w);

  // --- arm 2: sharded fleet simulation at exascale-class node counts -------
  const bool equivalent = engines_equivalent(threads);

  ShardedClusterConfig cfg;
  cfg.base.control_period_s = 5.0;
  cfg.shards = std::max<std::size_t>(16, fleet_nodes / 4096);
  ShardedCluster fleet(cfg);
  ClusterBlueprint::exascale(2026, fleet_nodes).build(fleet);
  submit_fleet_jobs(fleet, 2026, fleet_nodes / 64);
  exec::ThreadPool pool(threads);
  fleet.set_pool(&pool);

  const auto t0 = std::chrono::steady_clock::now();
  fleet.run_for(3600.0, 1.0);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::size_t total_devices = 0;
  for (std::size_t i = 0; i < fleet.node_count(); ++i)
    total_devices += fleet.node_device_count(i);
  const double naive_steps =
      static_cast<double>(total_devices) * static_cast<double>(fleet.steps());
  const double full_steps = static_cast<double>(fleet.full_device_steps());
  const double bytes_per_node =
      static_cast<double>(fleet.approx_state_bytes()) /
      static_cast<double>(fleet.node_count());
  // What the legacy AoS layout costs per node before any heap spill (Node +
  // Device objects, names, per-device history vectors). The two sizes are
  // sizeof of that plant's Node and Device classes, measured with gcc 12 on
  // x86-64 before the per-object plant was deleted.
  constexpr double kLegacyNodeBytes = 136.0;
  constexpr double kLegacyDeviceBytes = 344.0;
  const double avg_devices =
      static_cast<double>(total_devices) / static_cast<double>(fleet.node_count());
  const double legacy_bytes_per_node =
      kLegacyNodeBytes + avg_devices * kLegacyDeviceBytes + 64.0;

  Table fleet_t({"fleet metric", "value"});
  fleet_t.add_row({"nodes", format("%zu", fleet.node_count())});
  fleet_t.add_row({"devices", format("%zu", total_devices)});
  fleet_t.add_row({"SoA bytes/node", format("%.0f", bytes_per_node)});
  fleet_t.add_row({"legacy AoS bytes/node (sizeof)", format("%.0f", legacy_bytes_per_node)});
  fleet_t.add_row({"plant steps", format("%llu", static_cast<unsigned long long>(fleet.steps()))});
  fleet_t.add_row({"full device steps", format("%.3g", full_steps)});
  fleet_t.add_row({"naive device steps", format("%.3g", naive_steps)});
  fleet_t.add_row({"parking saving", format("%.1fx", naive_steps / full_steps)});
  fleet_t.add_row({"simulated IT energy (MJ)",
                   format("%.1f", fleet.telemetry().it_energy_j / 1e6)});
  fleet_t.add_row({"wall seconds", format("%.2f", wall)});
  fleet_t.add_row({"node-steps/sec", format("%.3g",
                   static_cast<double>(fleet.node_count()) *
                       static_cast<double>(fleet.steps()) / wall)});
  fleet_t.add_row({"small-N equivalence vs legacy", equivalent ? "exact" : "DIVERGED"});
  fleet_t.print();

  bench::metric("iterations", static_cast<double>(fleet.steps()));
  bench::metric("nodes", static_cast<double>(fleet.node_count()));
  bench::metric("devices", static_cast<double>(total_devices));
  bench::metric("bytes_per_node", bytes_per_node);
  bench::metric("legacy_bytes_per_node", legacy_bytes_per_node);
  bench::metric("full_device_steps", full_steps);
  bench::metric("parking_saving_ratio", naive_steps / full_steps);
  bench::metric("simulated_joules", fleet.telemetry().it_energy_j);
  bench::metric("equivalence", equivalent ? 1.0 : 0.0);
  bench::metric("gap_heterogeneous", het_gap);
  bench::metric("gap_homogeneous", homo_gap);
  bench::metric("measured_wall_seconds", wall);
  bench::metric("measured_steps_per_sec",
                static_cast<double>(fleet.steps()) / wall);
  bench::metric("measured_node_steps_per_sec",
                static_cast<double>(fleet.node_count()) *
                    static_cast<double>(fleet.steps()) / wall);

  bench::verdict(
      "2015 technology is orders of magnitude short of the 20 MW Exascale "
      "target; closing it needs full-machine simulation, not toy clusters",
      format("facility gap: het %.0fx, homo %.0fx; sharded engine ran "
             "%zu heterogeneous nodes at %.0f SoA bytes/node (legacy %.0f), "
             "%.1fx device-step parking saving, legacy-equivalent at small N",
             het_gap, homo_gap, fleet.node_count(), bytes_per_node,
             legacy_bytes_per_node, naive_steps / full_steps),
      het_gap > 5.0 && homo_gap > 15.0 && equivalent &&
          fleet.node_count() >= 100000 &&
          bytes_per_node < legacy_bytes_per_node &&
          naive_steps / full_steps > 2.0);
  return 0;
}
