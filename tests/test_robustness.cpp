// Robustness and invariant tests: error paths, contract checks, and
// conservation laws across the stack that the per-module suites do not cover.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "cir/analysis.hpp"
#include "cir/parser.hpp"
#include "dock/dock.hpp"
#include "dsl/weaver.hpp"
#include "nav/nav.hpp"
#include "power/model.hpp"
#include "rtrm/sharded_cluster.hpp"
#include "tuner/autotuner.hpp"
#include "vm/engine.hpp"

namespace antarex {
namespace {

// --------------------------------------------------------------------------
// Weaver error paths
// --------------------------------------------------------------------------

TEST(WeaverErrors, InsertWithoutCallJoinPoint) {
  auto m = cir::parse_module(
      "void f() { int x = 0; for (int i = 0; i < 3; i++) { x = x + i; } }");
  dsl::Weaver w(*m);
  w.load_source(R"(
    aspectdef Bad
      select loop end
      apply
        insert before %{monitor_begin('x');}%;
      end
    end
  )");
  EXPECT_THROW(w.run("Bad"), Error);
}

TEST(WeaverErrors, LoopUnrollRequiresLoopJoinPoint) {
  auto m = cir::parse_module("int g() { return 1; } void f() { g(); }");
  dsl::Weaver w(*m);
  w.load_source(R"(
    aspectdef Bad
      select fCall end
      apply
        do LoopUnroll('full');
      end
    end
  )");
  EXPECT_THROW(w.run("Bad"), Error);
}

TEST(WeaverErrors, UnknownDoActionAndCallee) {
  auto m = cir::parse_module("int g() { return 1; } void f() { g(); }");
  dsl::Weaver w(*m);
  w.load_source(R"(
    aspectdef BadDo
      select fCall end
      apply
        do Vectorize(8);
      end
    end
    aspectdef BadCall
      call Nonexistent(1);
    end
  )");
  EXPECT_THROW(w.run("BadDo"), Error);
  EXPECT_THROW(w.run("BadCall"), Error);
}

TEST(WeaverErrors, MalformedTemplateSplice) {
  auto m = cir::parse_module("int g() { return 1; } void f() { g(); }");
  dsl::Weaver w(*m);
  w.load_source(R"(
    aspectdef Bad
      select fCall end
      apply
        insert before %{probe([[unterminated);}%;
      end
    end
  )");
  EXPECT_THROW(w.run("Bad"), Error);
}

TEST(WeaverErrors, SpliceOfUnboundVariable) {
  auto m = cir::parse_module("int g() { return 1; } void f() { g(); }");
  dsl::Weaver w(*m);
  w.load_source(R"(
    aspectdef Bad
      select fCall end
      apply
        insert before %{probe([[noSuchVar]]);}%;
      end
    end
  )");
  EXPECT_THROW(w.run("Bad"), Error);
}

TEST(WeaverErrors, RecursiveAspectsAreCut) {
  auto m = cir::parse_module("void f() { }");
  dsl::Weaver w(*m);
  w.load_source("aspectdef Loop call Loop(); end");
  EXPECT_THROW(w.run("Loop"), Error);
}

// --------------------------------------------------------------------------
// Cluster conservation laws
// --------------------------------------------------------------------------

/// One node with one Xeon (a one-node cluster has one shard).
void add_cpu_node(rtrm::ShardedCluster& cluster) {
  const u32 cpu = cluster.add_spec(power::DeviceSpec::xeon_haswell());
  cluster.add_node(60.0, {{cpu, {}}});
}

TEST(ClusterInvariants, EnergyMonotoneAndFacilityAboveIt) {
  rtrm::ShardedCluster cluster;
  add_cpu_node(cluster);

  rtrm::Job j;
  j.id = 1;
  j.units = 50.0;
  power::WorkloadModel w;
  w.cpu_gcycles = 10.0;
  w.cores_used = 12;
  j.profiles[power::DeviceType::Cpu] = w;
  cluster.submit(std::move(j));

  double last_it = 0.0, last_fac = 0.0;
  for (int i = 0; i < 20; ++i) {
    cluster.run_for(1.0, 0.25);
    const auto& t = cluster.telemetry();
    EXPECT_GE(t.it_energy_j, last_it);          // energy never decreases
    EXPECT_GE(t.facility_energy_j, t.it_energy_j);  // PUE >= 1
    last_it = t.it_energy_j;
    last_fac = t.facility_energy_j;
  }
  EXPECT_GT(last_it, 0.0);
  EXPECT_GT(last_fac, last_it);
}

TEST(ClusterInvariants, JobAccountingBalances) {
  rtrm::ShardedCluster cluster;
  add_cpu_node(cluster);
  for (u64 id = 1; id <= 5; ++id) {
    rtrm::Job j;
    j.id = id;
    j.units = 1.0;
    power::WorkloadModel w;
    w.cpu_gcycles = 5.0;
    w.cores_used = 12;
    j.profiles[power::DeviceType::Cpu] = w;
    cluster.submit(std::move(j));
  }
  ASSERT_TRUE(cluster.run_until_idle(5000.0));
  const auto& d = cluster.dispatcher();
  EXPECT_EQ(d.queued() + d.running() + d.completed(), 5u);
  EXPECT_EQ(d.completed(), 5u);
  // Every completed job has coherent timestamps.
  for (const rtrm::Job& j : d.completed_jobs()) {
    EXPECT_GE(j.start_time_s, j.submit_time_s);
    EXPECT_GT(j.finish_time_s, j.start_time_s);
    EXPECT_FALSE(j.device_name.empty());
  }
}

// --------------------------------------------------------------------------
// Model sanity sweeps (parameterized)
// --------------------------------------------------------------------------

class PowerSweep : public ::testing::TestWithParam<int> {};

TEST_P(PowerSweep, PowerMonotoneInPState) {
  const auto spec = power::DeviceSpec::xeon_haswell();
  power::PowerModel pm(spec);
  const double activity = 0.1 * static_cast<double>(GetParam());
  double last = 0.0;
  for (std::size_t i = 0; i < spec.dvfs.size(); ++i) {
    const double p = pm.total_power_w(spec.dvfs.at(i), activity, 60.0);
    EXPECT_GT(p, last);  // strictly increasing in the P-state index
    last = p;
  }
}

TEST_P(PowerSweep, ExecutionTimeMonotoneInFrequency) {
  const auto spec = power::DeviceSpec::xeon_haswell();
  power::WorkloadModel w;
  w.cpu_gcycles = 8.0;
  w.cores_used = 12;
  w.mem_seconds = 0.05 * static_cast<double>(GetParam());
  double last = 1e300;
  for (std::size_t i = 0; i < spec.dvfs.size(); ++i) {
    const double t = w.execution_time_s(spec.dvfs.at(i));
    EXPECT_LT(t, last);
    last = t;
  }
}

INSTANTIATE_TEST_SUITE_P(ActivityAndMemLevels, PowerSweep,
                         ::testing::Values(1, 3, 5, 7, 9));

// --------------------------------------------------------------------------
// Routing invariants under randomized queries
// --------------------------------------------------------------------------

class RoutingInvariants : public ::testing::TestWithParam<u64> {};

TEST_P(RoutingInvariants, TriangleAndNonNegativity) {
  Rng rng(GetParam());
  const nav::RoadGraph g = nav::RoadGraph::grid_city(rng, 16, 16);
  nav::SpeedProfiles p;
  Rng qrng(GetParam() ^ 0x9999);
  for (int q = 0; q < 10; ++q) {
    const u32 a = static_cast<u32>(qrng.index(g.num_nodes()));
    const u32 b = static_cast<u32>(qrng.index(g.num_nodes()));
    const u32 c = static_cast<u32>(qrng.index(g.num_nodes()));
    const double depart = qrng.uniform(0.0, 86400.0);
    const nav::Route ab = nav::shortest_path_td(g, p, a, b, depart);
    if (!ab.found()) continue;
    EXPECT_GE(ab.travel_time_s, 0.0);
    // FIFO triangle inequality: going via c can never beat the direct
    // optimum (with time-dependence, the via-route departs legs later).
    const nav::Route ac = nav::shortest_path_td(g, p, a, c, depart);
    if (!ac.found()) continue;
    const nav::Route cb =
        nav::shortest_path_td(g, p, c, b, depart + ac.travel_time_s);
    if (!cb.found()) continue;
    EXPECT_LE(ab.travel_time_s,
              ac.travel_time_s + cb.travel_time_s + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingInvariants,
                         ::testing::Values(21, 22, 23, 24));

// --------------------------------------------------------------------------
// Docking determinism across schedulers
// --------------------------------------------------------------------------

TEST(DockInvariants, ScheduleResultsConserveWorkForAnyBatch) {
  Rng rng(77);
  std::vector<double> costs;
  for (int i = 0; i < 300; ++i) costs.push_back(rng.pareto(1.0, 1.5));
  double total = 0.0;
  for (double c : costs) total += c;

  for (int batch : {1, 3, 7, 50}) {
    const dock::ScheduleResult r = dock::schedule_dynamic(costs, 8, batch, 0.0);
    double busy = 0.0;
    for (double b : r.worker_busy) busy += b;
    EXPECT_NEAR(busy, total, 1e-9) << "batch " << batch;
    EXPECT_GE(r.makespan + 1e-9, total / 8.0) << "batch " << batch;
  }
}

}  // namespace
}  // namespace antarex
