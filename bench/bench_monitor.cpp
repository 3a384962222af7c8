// bench_monitor — the Examon-style monitoring fabric at Exascale node counts.
//
// ANTAREX's runtime layer must watch very large machines without perturbing
// them: Examon samples out-of-band and aggregates hierarchically so the
// monitoring footprint does not grow with the plant. We scale the simulated
// cluster 1k -> 10k -> 100k nodes under a fault environment with a constant
// expected number of cluster-wide events, and measure:
//
//   - fabric-core memory (broker + aggregator + detector): capacity-shaped,
//     gated to stay within 2x from 1k to 100k nodes (the per-device sampler
//     edge state, which necessarily scales with the plant, is reported
//     separately);
//   - monitoring cost: wall seconds inside the fabric's observer per
//     node-sample (one frame sampled, published, aggregated and screened),
//     gated at <= 1 us at 100k nodes. The ratio to the plant's own wall time
//     is reported too, but not gated: it moves with the plant's speed, not
//     the fabric's;
//   - detection quality against antarex::fault ground truth: precision and
//     recall per anomaly kind, gated at >= 0.8 for the progress-drop kinds
//     (throttle, slow-node) at every scale;
//   - determinism: the health JSON and the scores must be byte-identical
//     across exec pool sizes 1/2/8 (checked at the 1k scale).
//
// All quality/memory metrics are pure functions of the scenario seed and
// land in BENCH_MONITOR.json for the CI regression gate; wall-clock figures
// carry the measured_ prefix so the gate ignores them.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "exec/pool.hpp"
#include "fault/fault.hpp"
#include "monitor/monitor.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace antarex {
namespace {

constexpr u64 kSeed = 42;
constexpr double kHorizonS = 30.0;
constexpr double kDtS = 0.5;
/// The verdict's cost bound: fabric wall time per node-sample at 100k nodes.
constexpr double kMaxNsPerNodeSample = 1000.0;

struct ScaleResult {
  std::size_t nodes = 0;
  u64 frames = 0;
  std::size_t core_bytes = 0;
  std::size_t sampler_bytes = 0;
  std::size_t episodes = 0;
  double overhead_pct = 0.0;
  double ns_per_node_sample = 0.0;
  double wall_s = 0.0;
  monitor::EvalResult eval;
  std::string digest;
};

/// One monitored faulted run. Everything except the wall-clock figures is a
/// pure function of (nodes, kSeed); `threads` must not change any output.
ScaleResult run_scale(std::size_t n_nodes, int threads) {
  ScaleResult res;
  res.nodes = n_nodes;

  rtrm::ShardedCluster cluster(rtrm::ShardedClusterConfig{});
  const u32 cpu = cluster.add_spec(power::DeviceSpec::xeon_haswell());
  for (std::size_t i = 0; i < n_nodes; ++i) cluster.add_node(40.0, {{cpu, {}}});
  // Homogeneous ranks of one long application (shard-level baselines assume
  // partition-homogeneous work), moderate activity so the thermal guard
  // stays out of the picture.
  power::WorkloadModel w;
  w.cpu_gcycles = 50.0;
  w.cores_used = 12;
  w.activity = 0.7;
  for (std::size_t j = 0; j < n_nodes; ++j) {
    rtrm::Job job;
    job.id = j + 1;
    job.name = "rank" + std::to_string(j);
    job.units = 500.0;
    job.profiles[power::DeviceType::Cpu] = w;
    cluster.submit(std::move(job));
  }

  // Constant expected cluster-wide event counts at every scale, so the
  // quality figures compare like for like while the per-node rates fall
  // 100x from 1k to 100k nodes.
  fault::FaultModel model;
  model.glitch_rate_hz = 20.0 / (static_cast<double>(n_nodes) * kHorizonS);
  model.glitch_magnitude_j = 150.0;
  model.glitch_duration_s = 2.0;
  model.throttle_rate_hz = 40.0 / (static_cast<double>(n_nodes) * kHorizonS);
  model.throttle_duration_s = 6.0;
  model.slowdown_rate_hz = 30.0 / (static_cast<double>(n_nodes) * kHorizonS);
  model.slowdown_factor = 2.0;
  model.slowdown_duration_s = 10.0;

  monitor::FabricConfig fcfg;
  fcfg.shards = 64;
  monitor::MonitorFabric fabric(fcfg);
  fabric.attach(cluster);

  fault::ShardFaultDriver driver(
      cluster, monitor::strip_warmup_faults(fault::generate_schedule(
                   model, n_nodes, 1, kHorizonS, kSeed)));

  exec::ThreadPool pool(threads);
  cluster.set_pool(&pool);
  const auto t0 = std::chrono::steady_clock::now();
  cluster.run_for(kHorizonS, kDtS);
  res.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const double self_s = fabric.self_seconds();
  const double plant_s = res.wall_s - self_s;
  res.overhead_pct = plant_s > 0.0 ? 100.0 * self_s / plant_s : 0.0;
  res.frames = fabric.broker().delivered();
  res.ns_per_node_sample =
      res.frames ? 1e9 * self_s / static_cast<double>(res.frames) : 0.0;
  res.core_bytes = fabric.approx_bytes();
  res.sampler_bytes = fabric.sampler_bytes();
  const std::vector<monitor::Episode> episodes = fabric.detector().episodes();
  res.episodes = episodes.size();
  res.eval = evaluate(
      monitor::ground_truth(driver.schedule(), fcfg.sample_period_s), episodes);

  res.digest = fabric.health_json();
  for (std::size_t k = 0; k < monitor::kAnomalyKindCount; ++k) {
    const monitor::KindScore& s = res.eval.kinds[k];
    res.digest += format(
        "\n%s p=%.17g r=%.17g gt=%llu det=%llu",
        anomaly_kind_name(static_cast<monitor::AnomalyKind>(k)),
        s.precision(), s.recall(), (unsigned long long)s.gt_qualifying,
        (unsigned long long)s.detected);
  }
  return res;
}

int run(int argc, char** argv) {
  bench::parse_telemetry(argc, argv);
  bench::header("MONITOR",
                "Examon-style monitoring fabric at 1k/10k/100k nodes: "
                "bounded memory, <= 1 us per node-sample, ground-truthed detection");
  const int threads = bench::parse_threads(
      argc, argv, static_cast<int>(std::thread::hardware_concurrency()));

  const std::vector<std::pair<std::size_t, const char*>> scales = {
      {1000, "1k"}, {10000, "10k"}, {100000, "100k"}};

  Table table({"nodes", "frames", "core KiB", "sampler KiB", "ns/sample",
               "overhead %", "P/R throttle", "P/R slow", "episodes"});
  std::vector<ScaleResult> results;
  u64 total_frames = 0;
  for (const auto& [n, label] : scales) {
    ScaleResult r = run_scale(n, threads);
    const monitor::KindScore& st = r.eval.of(monitor::AnomalyKind::Throttle);
    const monitor::KindScore& ss = r.eval.of(monitor::AnomalyKind::SlowNode);
    const monitor::KindScore& sp = r.eval.of(monitor::AnomalyKind::PowerSpike);
    table.add_row({std::to_string(n), std::to_string(r.frames),
               format("%.1f", r.core_bytes / 1024.0),
               format("%.1f", r.sampler_bytes / 1024.0),
               format("%.0f", r.ns_per_node_sample),
               format("%.2f", r.overhead_pct),
               format("%.2f/%.2f", st.precision(), st.recall()),
               format("%.2f/%.2f", ss.precision(), ss.recall()),
               std::to_string(r.episodes)});
    bench::metric(format("frames_%s", label), static_cast<double>(r.frames));
    bench::metric(format("core_bytes_%s", label),
                  static_cast<double>(r.core_bytes));
    bench::metric(format("episodes_%s", label),
                  static_cast<double>(r.episodes));
    bench::metric(format("p_throttle_%s", label), st.precision());
    bench::metric(format("r_throttle_%s", label), st.recall());
    bench::metric(format("p_slow_%s", label), ss.precision());
    bench::metric(format("r_slow_%s", label), ss.recall());
    bench::metric(format("p_spike_%s", label), sp.precision());
    bench::metric(format("measured_overhead_pct_%s", label), r.overhead_pct);
    bench::metric(format("measured_ns_per_node_sample_%s", label),
                  r.ns_per_node_sample);
    bench::metric(format("measured_wall_s_%s", label), r.wall_s);
    total_frames += r.frames;
    results.push_back(std::move(r));
  }
  table.print();

  // Determinism across pool sizes, checked at the smallest scale: the whole
  // monitoring pipeline runs on the simulation thread, so the exec pool must
  // not be able to change a single byte of what it reports.
  const ScaleResult d1 = run_scale(1000, 1);
  const ScaleResult d2 = run_scale(1000, 2);
  const ScaleResult d8 = run_scale(1000, 8);
  const bool identical = d1.digest == d2.digest && d1.digest == d8.digest;

  const ScaleResult& small = results.front();
  const ScaleResult& big = results.back();
  const double mem_ratio = static_cast<double>(big.core_bytes) /
                           static_cast<double>(small.core_bytes);
  const monitor::KindScore& st = big.eval.of(monitor::AnomalyKind::Throttle);
  const monitor::KindScore& ss = big.eval.of(monitor::AnomalyKind::SlowNode);
  const bool quality_ok = st.precision() >= 0.8 && st.recall() >= 0.8 &&
                          ss.precision() >= 0.8 && ss.recall() >= 0.8;
  const bool cost_ok = big.ns_per_node_sample <= kMaxNsPerNodeSample;
  const bool shape = mem_ratio <= 2.0 && cost_ok && quality_ok && identical;

  bench::metric("iterations", static_cast<double>(total_frames));
  bench::metric("mem_ratio_100k_over_1k", mem_ratio);
  bench::metric("det_identical", identical ? 1.0 : 0.0);

  std::printf("\ncore memory 1k -> 100k: %.1f KiB -> %.1f KiB (x%.2f)\n",
              small.core_bytes / 1024.0, big.core_bytes / 1024.0, mem_ratio);
  std::printf("pool-size determinism (1k nodes, threads 1/2/8): %s\n",
              identical ? "byte-identical" : "DIVERGED");
  bench::verdict(
      "Examon-style hierarchical monitoring scales to Exascale node counts "
      "with bounded footprint and negligible overhead",
      // The cost is wall-clock-dependent; keep the verdict string stable for
      // the baseline gate and report the exact figure as a measured_ metric.
      format("core RAM x%.2f at 100x nodes, fabric %s 1 us/node-sample "
             "budget at 100k, throttle P/R %.2f/%.2f, slow-node P/R "
             "%.2f/%.2f, %s",
             mem_ratio, cost_ok ? "within" : "OVER",
             st.precision(), st.recall(),
             ss.precision(), ss.recall(),
             identical ? "deterministic" : "nondeterministic"),
      shape);
  return shape ? 0 : 1;
}

}  // namespace
}  // namespace antarex

int main(int argc, char** argv) { return antarex::run(argc, argv); }
