// dock_campaign: a docking campaign over a seeded heavy-tailed ligand library.
//
// The library is docked by dock::run_parallel in fixed-size batches, one call
// per batch, so the pool sees coarse tasks of very uneven size and every
// batch gives one latency sample. Scoring is nearly all of the work. The
// receptor pocket is the campaign's fixed target; the seed draws the library.
//
// A batch is 1024 ligands. At 256 a batch took ~14 ms, and the wait at its
// end for the last worker's task made the batch p90 spread 16-20% over ten
// seeds on a shared 4-vCPU VM; at 1024 (~55 ms) it spread 6-10%.
#include <algorithm>
#include <cmath>

#include "dock/dock.hpp"
#include "dock/parallel.hpp"
#include "harness.hpp"
#include "support/strings.hpp"

namespace perf {

using namespace antarex;

namespace {
constexpr std::size_t kBatchLigands = 1024;  // ligands per run_parallel call
constexpr int kGrain = 4;                   // ligands per pool task
constexpr std::size_t kReferenceLigands = 256;
constexpr u64 kReceptorSeed = 24;

/// Add one reading of ThreadPool::stats() to a running total: run_parallel
/// resets the pool's statistics at entry, so the pass reads them after
/// every call.
void accumulate(exec::PoolStats& total, const exec::PoolStats& reading) {
  if (total.worker_busy_s.size() < reading.worker_busy_s.size()) {
    total.worker_busy_s.resize(reading.worker_busy_s.size(), 0.0);
    total.worker_tasks.resize(reading.worker_tasks.size(), 0);
  }
  for (std::size_t w = 0; w < reading.worker_busy_s.size(); ++w) {
    total.worker_busy_s[w] += reading.worker_busy_s[w];
    total.worker_tasks[w] += reading.worker_tasks[w];
  }
  total.tasks += reading.tasks;
  total.steals += reading.steals;
  total.inline_runs += reading.inline_runs;
  total.retries += reading.retries;
  total.waited_tasks += reading.waited_tasks;
  total.queue_wait_total_s += reading.queue_wait_total_s;
  total.queue_wait_max_s =
      std::max(total.queue_wait_max_s, reading.queue_wait_max_s);
}

}  // namespace

Pass run_dock(const Options& opts, exec::ThreadPool& pool, int index) {
  Pass p;
  const std::size_t ligands = opts.smoke ? 2 * kBatchLigands : 64 * kBatchLigands;
  const dock::DockParams params;

  const auto t_setup = Clock::now();
  Rng receptor_rng(kReceptorSeed);
  const dock::AffinityGrid grid =
      dock::AffinityGrid::synthetic_pocket(receptor_rng, 24, 1.0, 3);
  // Atom counts follow random_ligand's heavy tail (8 + Pareto(6, 1.3)) capped
  // at 120 atoms, a drug-like bound: at random_ligand's own cap of 400 a few
  // ligands that never prune hold most of the work, and a library's cost
  // swings with the seed. Sizes come from stratified quantiles dealt largest
  // first across the batches, so every batch holds the same spread of sizes;
  // the seed shuffles each batch and draws every atom.
  Rng rng(opts.seed);
  std::vector<std::vector<dock::Molecule>> batches(ligands / kBatchLigands);
  for (std::size_t i = 0; i < ligands; ++i) {
    const double u =
        (static_cast<double>(i) + rng.uniform()) / static_cast<double>(ligands);
    const int atoms =
        static_cast<int>(std::min(120.0, 8.0 + 6.0 / std::pow(u, 1.0 / 1.3)));
    batches[i % batches.size()].push_back(dock::random_ligand(rng, atoms, atoms));
  }
  for (auto& batch : batches) rng.shuffle(batch);
  p.setup_s = seconds_since(t_setup);

  const auto run_seed = [&](std::size_t b) { return opts.seed * 1000003 + b; };
  std::vector<dock::LibraryRunResult> runs;
  runs.reserve(batches.size());
  exec::PoolStats pool_stats;
  p.latency_ms.reserve(batches.size());
  const auto t_work = Clock::now();
  {
    telemetry::ScopedSpan pass_span("bench.pass");
    for (std::size_t b = 0; b < batches.size(); ++b) {
      const auto t0 = Clock::now();
      {
        telemetry::ScopedSpan span("bench.dock");
        runs.push_back(
            dock::run_parallel(pool, grid, batches[b], params, run_seed(b), kGrain));
      }
      p.latency_ms.push_back(seconds_since(t0) * 1e3);
      accumulate(pool_stats, pool.stats());
    }
  }
  p.work_s = seconds_since(t_work);

  double score_sum = 0.0;
  u64 poses = 0;
  for (const auto& run : runs)
    for (const dock::DockResult& r : run.results) {
      score_sum += r.best_score;
      poses += r.poses_evaluated;
    }

  // The parallel results must equal the serial reference on a prefix. Ligand
  // i of a call is docked with stream_seed(run seed, i), so the prefix docked
  // alone gets the same seeds.
  if (index == 0) {
    const std::vector<dock::Molecule> prefix(
        batches[0].begin(),
        batches[0].begin() + std::min(kReferenceLigands, batches[0].size()));
    const dock::LibraryRunResult serial =
        dock::dock_library_serial(grid, prefix, params, run_seed(0));
    for (std::size_t i = 0; i < serial.results.size(); ++i)
      p.check(serial.results[i].best_score == runs[0].results[i].best_score &&
                  serial.results[i].poses_evaluated ==
                      runs[0].results[i].poses_evaluated,
              format("dock: ligand %zu differs from the serial reference", i));
  }

  p.ops = ligands;
  p.attempted = ligands;
  p.counts["dock.poses"] = static_cast<double>(poses);
  p.counts["dock.mean_best_score"] = score_sum / static_cast<double>(ligands);

  p.layers["dock.poses"] = static_cast<double>(poses);
  p.layers["dock.ns_per_pose"] =
      pool_stats.total_busy_s() * 1e9 / static_cast<double>(poses);
  add_pool_metrics(p, pool_stats, p.work_s);
  return p;
}

}  // namespace perf
