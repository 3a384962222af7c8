// Shared property-based invariant suite for antarex::fault.
//
// Each seed builds a randomized small rtrm::ShardedCluster + fault
// environment, runs it through a faulted window plus a drain phase, and
// checks the three core resilience invariants:
//   1. No lost jobs — every submitted job ends Done or Failed.
//   2. Energy conservation — the cluster's integrated IT energy equals the
//      sum of the per-node energies (glitches corrupt readings, never the
//      ground truth).
//   3. Monotone virtual time — step observers and applied fault events see
//      strictly/weakly increasing timestamps.
//
// The suite is instantiated twice: test_fuzz.cpp pulls a small seed range
// into the default tier; test_fault_long.cpp instantiates the 1k-seed sweep
// behind the `long` ctest label.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "fault/fault.hpp"
#include "support/rng.hpp"
#include "telemetry/telemetry.hpp"

namespace antarex::fault {

struct ScenarioResult {
  u64 submitted = 0;
  u64 completed = 0;
  u64 failed = 0;
  double it_energy_j = 0.0;
  double rapl_sum_j = 0.0;
  bool drained = false;
  bool monotone_steps = true;
  bool monotone_events = true;
  std::string trace;
};

inline ScenarioResult run_fault_scenario(u64 seed) {
  telemetry::Registry::global().reset();
  Rng rng(seed * 0x9e3779b9ULL + 1);

  rtrm::ClusterConfig cfg;
  cfg.backfill = rng.bernoulli(0.5);
  cfg.placement = rng.bernoulli(0.5) ? rtrm::PlacementPolicy::FirstFit
                                     : rtrm::PlacementPolicy::FastestFirst;
  rtrm::ShardedClusterConfig scfg;
  scfg.base = cfg;
  rtrm::ShardedCluster cluster(scfg);

  const std::size_t n_nodes = 2 + rng.index(3);
  const u32 cpu = cluster.add_spec(power::DeviceSpec::xeon_haswell());
  for (std::size_t i = 0; i < n_nodes; ++i) cluster.add_node(40.0, {{cpu, {}}});

  const std::size_t n_jobs = 6 + rng.index(8);
  for (std::size_t j = 0; j < n_jobs; ++j) {
    rtrm::Job job;
    job.id = j + 1;
    job.name = "job" + std::to_string(job.id);
    job.units = 1.0 + 3.0 * rng.uniform();
    job.checkpoint_units = rng.bernoulli(0.5) ? 0.5 : 0.0;
    job.max_attempts = 1 + static_cast<int>(rng.index(4));
    power::WorkloadModel w;
    w.cpu_gcycles = 20.0 + 60.0 * rng.uniform();
    w.cores_used = 12;
    w.activity = 0.9;
    job.profiles[power::DeviceType::Cpu] = w;
    cluster.submit(std::move(job));
  }

  const double horizon_s = 60.0;
  FaultModel model;
  model.crash_mtbf_s = 25.0 + 50.0 * rng.uniform();
  model.crash_weibull_shape = 1.2;
  model.repair_mean_s = 4.0 + 8.0 * rng.uniform();
  model.glitch_rate_hz = 0.05;
  model.glitch_magnitude_j = 100.0;
  model.glitch_duration_s = 1.5;
  model.throttle_rate_hz = 0.02;
  model.throttle_duration_s = 4.0;
  model.slowdown_rate_hz = 0.01;
  model.slowdown_factor = 2.0;
  model.slowdown_duration_s = 10.0;

  ShardFaultDriver driver(
      cluster, generate_schedule(model, n_nodes, 1, horizon_s, seed));

  ScenarioResult res;
  double last_now = 0.0;
  cluster.add_step_observer([&](double now, double, double) {
    if (now <= last_now) res.monotone_steps = false;
    last_now = now;
  });

  cluster.run_for(horizon_s, 0.25);
  // Past the horizon only repair/clear/end events remain in the schedule, so
  // the drain phase converges: crashed nodes come back, backoffs expire, and
  // every job runs to completion or exhausts its retry budget.
  res.drained = cluster.run_until_idle(5000.0, 0.25);

  res.submitted = n_jobs;
  res.completed = cluster.dispatcher().completed();
  res.failed = cluster.dispatcher().failed();
  res.it_energy_j = cluster.telemetry().it_energy_j;
  for (std::size_t i = 0; i < n_nodes; ++i) res.rapl_sum_j += cluster.node_energy_j(i);

  double last_event_s = 0.0;
  for (std::size_t i = 0; i < driver.applied(); ++i) {
    const double t = driver.schedule().events[i].at_s;
    if (t < last_event_s) res.monotone_events = false;
    last_event_s = t;
  }
  res.trace = driver.replay_trace();
  return res;
}

class FaultScheduleProps : public ::testing::TestWithParam<u64> {};

TEST_P(FaultScheduleProps, ResilienceInvariantsHold) {
  const ScenarioResult r = run_fault_scenario(GetParam());

  // 1. No lost jobs.
  EXPECT_TRUE(r.drained) << "cluster failed to drain after the fault window";
  EXPECT_EQ(r.submitted, r.completed + r.failed);

  // 2. Energy conservation: ground truth survives sensor glitches.
  const double denom = std::max(1.0, std::fabs(r.it_energy_j));
  EXPECT_LT(std::fabs(r.it_energy_j - r.rapl_sum_j) / denom, 1e-9);

  // 3. Monotone virtual time.
  EXPECT_TRUE(r.monotone_steps);
  EXPECT_TRUE(r.monotone_events);
}

}  // namespace antarex::fault
