// Exactness property of ShardedCluster's post-step power cache.
//
// The plant keeps each device's model power from its last live step and
// serves it to the step's energy integral, the node power controllers, the
// facility power manager, node_floor_w and device_power_w until a mutation
// invalidates it. The cache is sound only if every value it serves is the
// value power::PowerModel gives for the device's current state. Each seed
// runs a random sequence of the mutations that reach that state (placement,
// forced throttles, crashes and repairs, slowdowns, node budgets, ambient
// and governor changes, and runs long enough to park and then unpark the
// fleet) and, after every mutation and every plant step, re-evaluates the
// model from public state alone: the blueprint's spec and variability, the
// running job's workload, and the device's P-state, busy, throttle and
// temperature getters. Every device power and node floor must match it bit
// for bit.
//
// test_sharded_cluster.cpp instantiates a small seed range in the default
// tier; test_sharded_long.cpp instantiates the 1000-seed sweep.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <string>
#include <vector>

#include "exec/pool.hpp"
#include "sharded_common.hpp"

namespace antarex::rtrm {

namespace power_cache_detail {

/// First-mismatch recorder: the checks run thousands of times per seed, so
/// only the first divergence is reported.
struct Mismatch {
  std::string first;
  void note(const char* where, const char* what, std::size_t index,
            double got, double want) {
    if (!first.empty()) return;
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s: %s %zu = %.17g, model gives %.17g",
                  where, what, index, got, want);
    first = buf;
  }
};

/// The device power PowerModel gives for the device's observable state.
inline double model_device_power_w(const ShardedCluster& c,
                                   const ClusterBlueprint& bp, std::size_t node,
                                   std::size_t dev,
                                   const power::WorkloadModel* running) {
  const auto& [sid, var] = bp.nodes[node].devices[dev];
  const power::DeviceSpec& spec = bp.specs[sid];
  const double v_nom = spec.dvfs.highest().voltage_v;
  const std::size_t op_index =
      c.device_throttled(node, dev) ? 0 : c.device_op_index(node, dev);
  const power::OperatingPoint& op = spec.dvfs.at(op_index);
  const double temp = c.device_temperature_c(node, dev);
  if (!c.device_busy(node, dev))
    return power::PowerModel::idle_power_w(spec, var, v_nom, op, temp);
  const double mem_frac = running->memory_boundedness(op);
  const double a = running->activity;
  const double act = a * (1.0 - mem_frac) + 0.25 * a * mem_frac;
  return power::PowerModel::total_power_w(spec, var, v_nom, op, act, temp);
}

inline bool same_bits(double a, double b) {
  return std::bit_cast<u64>(a) == std::bit_cast<u64>(b);
}

/// Compare every device power and node floor against the model.
inline void check_against_model(const ShardedCluster& c,
                                const ClusterBlueprint& bp, const char* where,
                                Mismatch& out) {
  if (!out.first.empty()) return;
  // The workload each busy device runs, by global (node-major) index.
  std::vector<power::DeviceType> type_of;
  for (const auto& nd : bp.nodes)
    for (const auto& [sid, var] : nd.devices)
      type_of.push_back(bp.specs[sid].type);
  std::vector<const power::WorkloadModel*> running(c.device_count(), nullptr);
  const ShardedDispatcher& disp = c.dispatcher();
  for (const Job& job : disp.running_jobs()) {
    const u32 d = disp.device_of(job.id);
    running[d] = &job.profile(type_of[d]);
  }
  u32 d = 0;
  for (std::size_t i = 0; i < c.node_count(); ++i) {
    double floor = c.node_base_power_w(i);
    for (std::size_t j = 0; j < c.node_device_count(i); ++j, ++d) {
      const auto& [sid, var] = bp.nodes[i].devices[j];
      const power::DeviceSpec& spec = bp.specs[sid];
      floor += power::PowerModel::idle_power_w(
          spec, var, spec.dvfs.highest().voltage_v, spec.dvfs.lowest(),
          c.device_temperature_c(i, j));
      if (c.device_busy(i, j) && running[d] == nullptr) {
        out.note(where, "busy device without a running job", d, 0.0, 0.0);
        return;
      }
      const double want = model_device_power_w(c, bp, i, j, running[d]);
      const double got = c.device_power_w(d);
      if (!same_bits(got, want)) {
        out.note(where, "device_power_w of device", d, got, want);
        return;
      }
    }
    const double got = c.node_floor_w(i);
    if (!same_bits(got, floor)) {
      out.note(where, "node_floor_w of node", i, got, floor);
      return;
    }
  }
}

}  // namespace power_cache_detail

/// One seeded mutation sequence; returns the first mismatch ("" if none).
inline std::string run_power_cache_scenario(u64 seed) {
  using power_cache_detail::check_against_model;
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 7);

  ShardedClusterConfig cfg;
  const std::size_t n_nodes = 4 + rng.index(9);
  cfg.shards = 1 + rng.index(4);
  cfg.base.backfill = rng.bernoulli(0.5);
  const GovernorPolicy governors[] = {
      GovernorPolicy::Performance, GovernorPolicy::Powersave,
      GovernorPolicy::Ondemand, GovernorPolicy::EnergyAware};
  const PlacementPolicy placements[] = {PlacementPolicy::FirstFit,
                                        PlacementPolicy::FastestFirst,
                                        PlacementPolicy::EnergyAware};
  cfg.base.governor = governors[rng.index(4)];
  cfg.base.placement = placements[rng.index(3)];
  cfg.base.control_period_s = rng.bernoulli(0.5) ? 1.0 : 2.5;
  // The facility power manager runs node_controller_step on every node.
  if (rng.bernoulli(0.4))
    cfg.base.facility_cap_w =
        (100.0 + 80.0 * rng.uniform()) * static_cast<double>(n_nodes);
  const ClusterBlueprint bp = ClusterBlueprint::exascale(seed, n_nodes);
  ShardedCluster c(cfg);
  bp.build(c);
  exec::ThreadPool pool(1 + static_cast<int>(seed % 2));
  if (seed % 2) c.set_pool(&pool);

  power_cache_detail::Mismatch mismatch;
  char where[96];
  std::snprintf(where, sizeof(where), "seed %llu step",
                static_cast<unsigned long long>(seed));
  const std::string step_where = where;
  c.add_step_observer([&](double, double, double) {
    check_against_model(c, bp, step_where.c_str(), mismatch);
  });

  u64 next_job = 1;
  const auto submit_jobs = [&](std::size_t n) {
    for (std::size_t k = 0; k < n; ++k) {
      Job job;
      job.id = next_job++;
      job.name = "job" + std::to_string(job.id);
      job.units = 0.5 + 3.0 * rng.uniform();
      job.priority = rng.bernoulli(0.3) ? 2.0 : 1.0;
      power::WorkloadModel cpu;
      cpu.cpu_gcycles = 10.0 + 50.0 * rng.uniform();
      cpu.mem_seconds = rng.bernoulli(0.5) ? 0.4 * rng.uniform() : 0.0;
      cpu.cores_used = 12;
      cpu.activity = 0.6 + 0.35 * rng.uniform();
      job.profiles[power::DeviceType::Cpu] = cpu;
      if (rng.bernoulli(0.5)) {
        power::WorkloadModel acc;
        acc.cpu_gcycles = 6.0 + 18.0 * rng.uniform();
        acc.mem_seconds = 0.2 * rng.uniform();
        acc.cores_used = 40;
        acc.activity = 0.8;
        job.profiles[rng.bernoulli(0.5) ? power::DeviceType::Gpu
                                        : power::DeviceType::Mic] = acc;
      }
      c.submit(std::move(job));
    }
  };
  const double dts[] = {0.25, 0.5, 1.0};
  std::vector<double> weights(c.device_count(), 1.0);

  submit_jobs(2 + rng.index(n_nodes));
  c.run_for(1.0, 0.25);  // finalizes the topology
  // Three phases: random mutations interleaved with short runs, then a run
  // long enough for idle devices to reach their thermal fixed point and park;
  // the next phase's mutations unpark them.
  for (int phase = 0; phase < 3 && mismatch.first.empty(); ++phase) {
    const std::size_t ops = 10 + rng.index(15);
    for (std::size_t k = 0; k < ops && mismatch.first.empty(); ++k) {
      const std::size_t node = rng.index(n_nodes);
      const std::size_t dev = rng.index(c.node_device_count(node));
      const char* what = "";
      switch (rng.index(10)) {
        case 0:
          what = "submit";
          submit_jobs(1 + rng.index(3));
          break;
        case 1:
          what = "force_throttle";
          c.force_throttle(node, dev, 0.5 + 4.5 * rng.uniform());
          break;
        case 2:
          what = "fail_node";
          c.fail_node(node);
          break;
        case 3:
          what = "repair_node";
          c.repair_node(node);
          break;
        case 4:
          what = "set_node_slowdown";
          c.set_node_slowdown(node, 1.0 + 2.0 * rng.uniform());
          break;
        case 5: {
          what = "apply_node_budget";
          for (double& w : weights) w = rng.bernoulli(0.3) ? 2.0 : 1.0;
          const double budget =
              c.node_floor_w(node) * (0.7 + 1.2 * rng.uniform());
          c.apply_node_budget(node, budget,
                              rng.bernoulli(0.5) ? &weights : nullptr);
          break;
        }
        case 6:
          what = "set_ambient_c";
          c.set_ambient_c(16.0 + 8.0 * rng.uniform());
          break;
        case 7:
          what = "set_governor";
          c.set_governor(governors[rng.index(4)]);
          c.set_op_step_down(rng.bernoulli(0.3) ? 1 + rng.index(2) : 0);
          break;
        default:
          what = "run_for";
          c.run_for(0.25 + 4.0 * rng.uniform(), dts[rng.index(3)]);
          break;
      }
      std::snprintf(where, sizeof(where), "seed %llu phase %d after %s",
                    static_cast<unsigned long long>(seed), phase, what);
      check_against_model(c, bp, where, mismatch);
    }
    // Park: repair everything so no crash keeps a node awake, then idle.
    for (std::size_t i = 0; i < n_nodes; ++i) c.repair_node(i);
    c.run_for(700.0, 1.0);
    std::snprintf(where, sizeof(where), "seed %llu phase %d after park",
                  static_cast<unsigned long long>(seed), phase);
    check_against_model(c, bp, where, mismatch);
  }
  return mismatch.first;
}

class PowerCacheProps : public ::testing::TestWithParam<u64> {};

TEST_P(PowerCacheProps, CachedPowerEqualsModelAfterEveryMutationAndStep) {
  EXPECT_EQ(run_power_cache_scenario(GetParam()), "");
}

}  // namespace antarex::rtrm
