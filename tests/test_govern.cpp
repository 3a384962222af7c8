// antarex::govern: actuator ladders, the cap coordinator's budget split and
// priority weighting over one and several shards, fault composition, the
// capreport golden fixtures, and determinism of the whole loop across pool
// sizes.
#include "govern/govern.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "causal/ledger.hpp"
#include "exec/pool.hpp"
#include "nav/nav.hpp"
#include "nav/server.hpp"
#include "sharded_common.hpp"
#include "support/rng.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace antarex;
using namespace antarex::govern;

class GovernTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::set_enabled(true);
    telemetry::Registry::global().reset();
  }
  void TearDown() override { telemetry::set_enabled(false); }
};

rtrm::ShardedClusterConfig layout(std::size_t shards = 1) {
  rtrm::ShardedClusterConfig cfg;
  cfg.base.control_period_s = 0.25;
  cfg.shards = shards;
  return cfg;
}

void add_nodes(rtrm::ShardedCluster& cluster, std::size_t n_nodes) {
  const u32 cpu = cluster.add_spec(power::DeviceSpec::xeon_haswell());
  for (std::size_t i = 0; i < n_nodes; ++i)
    cluster.add_node(40.0, {{cpu, power::Variability{}}});
}

void submit_jobs(rtrm::ShardedCluster& cluster, int count,
                 double priority = 1.0, u64 first_id = 1) {
  for (int j = 0; j < count; ++j) {
    rtrm::Job job;
    job.id = first_id + static_cast<u64>(j);
    job.name = "job" + std::to_string(job.id);
    job.units = 4.0;
    job.priority = priority;
    power::WorkloadModel w;
    w.cpu_gcycles = 30.0;
    w.mem_seconds = 0.3;
    w.cores_used = 12;
    w.activity = 0.9;
    job.profiles[power::DeviceType::Cpu] = w;
    cluster.submit(std::move(job));
  }
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double node_budget_sum(const ShardedCapCoordinator& c, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += c.node_budget_w(i);
  return s;
}

// --- actuators --------------------------------------------------------------

TEST_F(GovernTest, DvfsActuatorWalksTheFullLadderAndBack) {
  rtrm::ShardedCluster cluster(layout());
  add_nodes(cluster, 1);
  DvfsActuator dvfs(cluster);
  // xeon_haswell has 13 P-states: 12 notches below nominal.
  EXPECT_EQ(dvfs.max_steps(), 12u);
  EXPECT_DOUBLE_EQ(dvfs.level(), 1.0);

  std::size_t restricts = 0;
  while (dvfs.restrict()) ++restricts;
  EXPECT_EQ(restricts, 12u);
  EXPECT_EQ(cluster.op_step_down(), 12u);
  EXPECT_DOUBLE_EQ(dvfs.level(), 0.0);
  EXPECT_FALSE(dvfs.restrict()) << "bottom of the ladder must refuse";

  dvfs.reset();
  EXPECT_EQ(cluster.op_step_down(), 0u);
  EXPECT_DOUBLE_EQ(dvfs.level(), 1.0);
  EXPECT_FALSE(dvfs.relax()) << "nominal must refuse to relax";
  EXPECT_EQ(telemetry::Registry::global()
                .counter("govern.actuator_restricts")
                .value(),
            12u);
}

TEST_F(GovernTest, NavActuatorHalvesTheAdmissionWindow) {
  Rng rng(11);
  const nav::RoadGraph graph = nav::RoadGraph::grid_city(rng, 4, 4);
  nav::SpeedProfiles profiles;
  nav::NavServer server(graph, profiles);

  NavActuator shed(server, /*nominal_window=*/16, /*min_window=*/2);
  EXPECT_EQ(server.admission_cap(), 16u);
  EXPECT_EQ(shed.max_steps(), 3u);  // 16 -> 8 -> 4 -> 2

  EXPECT_TRUE(shed.restrict());
  EXPECT_EQ(server.admission_cap(), 8u);
  EXPECT_TRUE(shed.restrict());
  EXPECT_TRUE(shed.restrict());
  EXPECT_EQ(server.admission_cap(), 2u);
  EXPECT_EQ(shed.window(), 2u);
  EXPECT_FALSE(shed.restrict()) << "window floor reached";

  shed.reset();
  EXPECT_EQ(server.admission_cap(), 16u);
}

// --- cap coordinator, at 1 and 4 shards x 1/2/8 workers ----------------------

struct Layout {
  std::size_t shards;
  int workers;
};

class CoordinatorTest : public GovernTest,
                        public ::testing::WithParamInterface<Layout> {
 protected:
  void SetUp() override {
    GovernTest::SetUp();
    pool_ = std::make_unique<exec::ThreadPool>(GetParam().workers);
  }

  /// Adds the nodes to a cluster built with config() and attaches the pool.
  void build(rtrm::ShardedCluster& c, std::size_t n_nodes) {
    add_nodes(c, n_nodes);
    c.set_pool(pool_.get());
  }
  rtrm::ShardedClusterConfig config() const {
    return layout(GetParam().shards);
  }

  std::unique_ptr<exec::ThreadPool> pool_;
};

TEST_P(CoordinatorTest, BudgetsConserveTheEffectiveCap) {
  rtrm::ShardedCluster c(config());
  build(c, 3);
  submit_jobs(c, 6);
  ShardedCapConfig cfg;
  cfg.cluster_cap_w = 360.0;
  cfg.guard_fraction = 0.05;
  ShardedCapCoordinator coordinator(c, cfg);
  coordinator.attach();
  c.run_for(10.0, 0.25);

  for (std::size_t i = 0; i < 3; ++i) EXPECT_GT(coordinator.node_budget_w(i), 0.0);
  EXPECT_NEAR(node_budget_sum(coordinator, 3), 360.0 * 0.95, 1e-6);
  EXPECT_NEAR(sum(coordinator.shard_budgets_w()), 360.0 * 0.95, 1e-6);
  EXPECT_EQ(coordinator.stats().epochs, 10u);
  EXPECT_EQ(coordinator.stats().violations, 0u);
  EXPECT_GT(coordinator.last_epoch_mean_w(), 0.0);
  coordinator.detach();
}

TEST_P(CoordinatorTest, PriorityJobsEarnTheirNodeALargerBudget) {
  rtrm::ShardedCluster c(config());
  build(c, 2);
  // Node 0 runs the priority-4 job, node 1 the priority-1 job; with identical
  // workloads the weighted split must favour node 0.
  submit_jobs(c, 1, /*priority=*/4.0, /*first_id=*/1);
  submit_jobs(c, 1, /*priority=*/1.0, /*first_id=*/2);
  ShardedCapConfig cfg;
  cfg.cluster_cap_w = 220.0;  // tight enough that the split matters
  ShardedCapCoordinator coordinator(c, cfg);
  coordinator.attach();
  c.run_for(5.0, 0.25);

  EXPECT_GT(coordinator.node_budget_w(0), coordinator.node_budget_w(1))
      << "priority weighting must favour the node running the heavier job";
  EXPECT_EQ(coordinator.stats().violations, 0u);
  coordinator.detach();
}

TEST_P(CoordinatorTest, CrashRedistributesTheDeadNodesShare) {
  rtrm::ShardedCluster c(config());
  build(c, 3);
  submit_jobs(c, 9);
  ShardedCapConfig cfg;
  cfg.cluster_cap_w = 330.0;
  ShardedCapCoordinator coordinator(c, cfg);
  coordinator.attach();
  c.run_for(3.0, 0.25);

  const double before_n1 = coordinator.node_budget_w(1);
  c.fail_node(0);
  c.run_for(1.0, 0.25);

  EXPECT_DOUBLE_EQ(coordinator.node_budget_w(0), 0.0)
      << "dead node must hold no budget";
  EXPECT_GT(coordinator.node_budget_w(1), before_n1)
      << "survivors inherit the freed share";
  EXPECT_GE(coordinator.stats().redistributions, 1u);
  EXPECT_NEAR(node_budget_sum(coordinator, 3),
              330.0 * (1.0 - cfg.guard_fraction), 1e-6);

  c.repair_node(0);
  c.run_for(1.0, 0.25);
  EXPECT_GT(coordinator.node_budget_w(0), 0.0)
      << "repaired node re-enters the split";
  EXPECT_EQ(coordinator.stats().violations, 0u);
  coordinator.detach();
}

TEST_P(CoordinatorTest, DetachStopsActuationAndReattachDoesNotDoubleCount) {
  rtrm::ShardedCluster c(config());
  build(c, 2);
  submit_jobs(c, 4);
  ShardedCapConfig cfg;
  cfg.cluster_cap_w = 200.0;
  ShardedCapCoordinator coordinator(c, cfg);
  coordinator.attach();
  c.run_for(4.0, 0.25);
  coordinator.detach();
  const double consumed_attached = coordinator.stats().consumed_j;
  EXPECT_GT(consumed_attached, 0.0);

  // Detached: the loop neither accounts nor clamps.
  c.run_for(2.0, 0.25);
  EXPECT_DOUBLE_EQ(coordinator.stats().consumed_j, consumed_attached);

  // Re-attach: exactly one live observer, so attached-time integration must
  // match the cluster's own ledger over the attached windows.
  const double before_j = c.telemetry().it_energy_j;
  coordinator.attach();
  c.run_for(2.0, 0.25);
  coordinator.detach();
  const double window_j = c.telemetry().it_energy_j - before_j;
  EXPECT_NEAR(coordinator.stats().consumed_j - consumed_attached, window_j,
              1e-6);
}

TEST_P(CoordinatorTest, JobLedgerIsOrderedAndBounded) {
  rtrm::ShardedCluster c(config());
  build(c, 2);
  submit_jobs(c, 4);
  ShardedCapConfig cfg;
  cfg.cluster_cap_w = 240.0;
  ShardedCapCoordinator coordinator(c, cfg);
  coordinator.attach();
  c.run_until_idle(500.0, 0.25);
  coordinator.detach();

  const double ledger = coordinator.job_energy().total_joules();
  EXPECT_GT(ledger, 0.0);
  EXPECT_LE(ledger, c.telemetry().it_energy_j * (1.0 + 1e-9))
      << "base power is unattributed, so the ledger is a strict subset";
  const auto rows = coordinator.job_energy().rows();
  ASSERT_EQ(rows.size(), 4u);
  for (std::size_t i = 1; i < rows.size(); ++i)
    EXPECT_GE(rows[i - 1].joules, rows[i].joules);
  EXPECT_EQ(coordinator.stats().violations, 0u);
}

TEST_P(CoordinatorTest, AttachBeforeTheFirstRunHoldsTheCap) {
  // 16 nodes over 4 shards: the shard layout exists before any step.
  rtrm::ShardedCluster c(config());
  build(c, 16);
  submit_jobs(c, 32);
  ShardedCapConfig cfg;
  cfg.cluster_cap_w = 16 * 95.0;
  ShardedCapCoordinator coordinator(c, cfg);
  coordinator.attach();
  EXPECT_EQ(coordinator.shard_budgets_w().size(),
            std::min<std::size_t>(GetParam().shards, 16));
  EXPECT_NEAR(node_budget_sum(coordinator, 16), cfg.cluster_cap_w * 0.92,
              1e-6);
  c.run_until_idle(2000.0, 0.25);
  coordinator.detach();
  EXPECT_EQ(c.dispatcher().completed(), 32u);
  EXPECT_GT(coordinator.stats().epochs, 0u);
  EXPECT_EQ(coordinator.stats().violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ShardsByWorkers, CoordinatorTest,
    ::testing::Values(Layout{1, 1}, Layout{1, 2}, Layout{1, 8}, Layout{4, 1},
                      Layout{4, 2}, Layout{4, 8}),
    [](const ::testing::TestParamInfo<Layout>& info) {
      return "shards" + std::to_string(info.param.shards) + "_workers" +
             std::to_string(info.param.workers);
    });

TEST_F(GovernTest, DeadShardsSliceFlowsToTheOtherShards) {
  rtrm::ShardedCluster cluster(layout(/*shards=*/4));
  add_nodes(cluster, 8);
  submit_jobs(cluster, 16);
  ShardedCapConfig cfg;
  cfg.cluster_cap_w = 8 * 110.0;
  ShardedCapCoordinator coordinator(cluster, cfg);
  coordinator.attach();
  cluster.run_for(3.0, 0.25);
  const std::vector<double> before = coordinator.shard_budgets_w();
  ASSERT_EQ(before.size(), 4u);

  const auto [first, last] = cluster.shard_node_range(1);
  for (std::size_t i = first; i < last; ++i) cluster.fail_node(i);
  cluster.run_for(0.25, 0.25);

  const std::vector<double>& after = coordinator.shard_budgets_w();
  const double eff_cap = cfg.cluster_cap_w * (1.0 - cfg.guard_fraction);
  EXPECT_DOUBLE_EQ(after[1], 0.0) << "a dead shard holds no budget";
  for (std::size_t i = first; i < last; ++i)
    EXPECT_DOUBLE_EQ(coordinator.node_budget_w(i), 0.0);
  EXPECT_NEAR(after[0] + after[2] + after[3], eff_cap, 1e-6)
      << "the dead shard's whole slice flows to the survivors";
  for (std::size_t s : {0u, 2u, 3u}) EXPECT_GT(after[s], before[s]);
  EXPECT_NEAR(node_budget_sum(coordinator, 8), eff_cap, 1e-6);
  coordinator.detach();
}

// --- capreport: the faulted, prioritized, DVFS-laddered closed loop ---------

// tests/golden/capreport_{7,29}.txt were recorded from the single-level
// coordinator over the per-object Cluster that this two-level coordinator
// replaced: every budget renegotiation, ladder move, job-ledger row and
// decision record at full precision. On one shard the survivor must
// reproduce them byte for byte.
constexpr std::size_t kReportNodes = 6;
constexpr std::size_t kReportJobs = 60;
constexpr double kReportHorizonS = 60.0;

void line(std::string& out, const char* fmt, ...) {
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

void submit_report_jobs(rtrm::ShardedCluster& cluster, u64 seed) {
  Rng rng(seed ^ 0xca9ULL);
  const double prio[] = {0.5, 1.0, 2.0, 4.0};
  for (std::size_t j = 0; j < kReportJobs; ++j) {
    rtrm::Job job;
    job.id = j + 1;
    job.name = "job" + std::to_string(job.id);
    job.units = 2.0 + 6.0 * rng.uniform();
    job.priority = prio[rng.index(4)];
    job.checkpoint_units = 0.5;
    job.max_attempts = 3;
    power::WorkloadModel cpu;
    cpu.cpu_gcycles = 30.0 + 50.0 * rng.uniform();
    cpu.mem_seconds = 0.4 * rng.uniform();
    cpu.cores_used = 12;
    cpu.activity = 0.9;
    job.profiles[power::DeviceType::Cpu] = cpu;
    if (rng.bernoulli(0.5)) {
      power::WorkloadModel gpu;
      gpu.cpu_gcycles = 8.0 + 16.0 * rng.uniform();
      gpu.mem_seconds = 0.2 * rng.uniform();
      gpu.cores_used = 40;
      gpu.activity = 0.8;
      job.profiles[power::DeviceType::Gpu] = gpu;
    }
    cluster.submit(std::move(job));
  }
}

std::string capreport(u64 seed, std::size_t shards, int workers) {
  causal::DecisionLedger::global().clear();
  rtrm::ShardedClusterConfig cfg;
  cfg.base.backfill = true;
  cfg.base.control_period_s = 2.0;
  cfg.shards = shards;
  rtrm::ShardedCluster cluster(cfg);
  rtrm::ClusterBlueprint::exascale(seed, kReportNodes).build(cluster);
  submit_report_jobs(cluster, seed);
  exec::ThreadPool pool(workers);
  cluster.set_pool(&pool);

  // The cap sits 40% above the idle floor: tight enough that budgets alone
  // overshoot between the 2 s control steps and the DVFS ladder moves.
  double floor_w = 0.0;
  for (std::size_t i = 0; i < kReportNodes; ++i)
    floor_w += cluster.node_floor_w(i);
  ShardedCapConfig gc;
  gc.cluster_cap_w = 1.4 * floor_w;
  gc.epoch_s = 1.0;
  gc.guard_fraction = 0.01;
  gc.fairness_alpha = 0.75;
  ShardedCapCoordinator coordinator(cluster, gc);
  const auto dvfs = std::make_shared<DvfsActuator>(cluster);
  coordinator.add_actuator(dvfs);
  coordinator.set_node_weight(1, 0.5);
  coordinator.attach();
  fault::ShardFaultDriver driver(
      cluster, rtrm::make_fault_schedule(kReportNodes, kReportHorizonS, seed));

  std::string out;
  line(out, "capreport seed=%llu nodes=%zu cap_w=%.17g\n",
       static_cast<unsigned long long>(seed), kReportNodes, gc.cluster_cap_w);
  u64 seen[4] = {0, 0, 0, 0};
  cluster.add_step_observer([&](double now_s, double, double) {
    const ShardedCapStats& s = coordinator.stats();
    const u64 now[4] = {s.epochs, s.redistributions, s.restricts, s.relaxes};
    if (std::equal(now, now + 4, seen)) return;
    std::copy(now, now + 4, seen);
    line(out,
         "t=%.17g epochs=%llu redist=%llu restricts=%llu relaxes=%llu "
         "dvfs=%zu mean=%.17g budgets",
         now_s, static_cast<unsigned long long>(now[0]),
         static_cast<unsigned long long>(now[1]),
         static_cast<unsigned long long>(now[2]),
         static_cast<unsigned long long>(now[3]),
         dvfs->steps(), coordinator.last_epoch_mean_w());
    for (std::size_t i = 0; i < kReportNodes; ++i)
      line(out, " %.17g", coordinator.node_budget_w(i));
    out += "\n";
  });

  cluster.run_for(kReportHorizonS, 0.25);
  cluster.run_until_idle(4000.0, 0.25);
  coordinator.detach();

  const ShardedCapStats& s = coordinator.stats();
  line(out,
       "stats epochs=%llu violations=%llu worst=%.17g consumed=%.17g "
       "restricts=%llu relaxes=%llu redist=%llu\n",
       static_cast<unsigned long long>(s.epochs),
       static_cast<unsigned long long>(s.violations), s.worst_overshoot_w,
       s.consumed_j, static_cast<unsigned long long>(s.restricts),
       static_cast<unsigned long long>(s.relaxes),
       static_cast<unsigned long long>(s.redistributions));
  const rtrm::ClusterTelemetry& t = cluster.telemetry();
  line(out, "final t=%.17g it_e=%.17g done=%llu fail=%llu\n", t.time_s,
       t.it_energy_j, static_cast<unsigned long long>(t.jobs_completed),
       static_cast<unsigned long long>(t.jobs_failed));
  for (const auto& r : coordinator.job_energy().rows())
    line(out, "job %s joules=%.17g seconds=%.17g\n", r.key.c_str(), r.joules,
         r.seconds);
  for (const auto& d : causal::DecisionLedger::global().snapshot())
    line(out, "decision %llu t=%.17g %s %s | %s | %.17g | %s | %.17g\n",
         static_cast<unsigned long long>(d.seq), d.t_s, d.actor.c_str(),
         d.action.c_str(), d.cause.c_str(), d.cause_value, d.effect.c_str(),
         d.effect_value);
  return out;
}

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(ANTAREX_GOLDEN_DIR) + "/" + name);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST_F(GovernTest, OneShardReproducesTheCapreportGoldens) {
  for (u64 seed : {7u, 29u}) {
    const std::string golden =
        read_golden("capreport_" + std::to_string(seed) + ".txt");
    ASSERT_FALSE(golden.empty()) << "missing capreport_" << seed << ".txt";
    const std::string got = capreport(seed, /*shards=*/1, /*workers=*/1);
    EXPECT_EQ(golden, got) << "seed " << seed;
    // The fixtures exercise every path the fold must keep exact.
    EXPECT_NE(got.find("restrict:dvfs"), std::string::npos);
    EXPECT_NE(got.find("relax:dvfs"), std::string::npos);
    EXPECT_NE(got.find("renegotiate"), std::string::npos);
  }
}

// The full loop (cap + ladder + faults) must be byte-identical across pool
// sizes: all coordinator callbacks run on the simulation thread from
// serially committed state, whatever the shard count.
TEST_F(GovernTest, GovernedRunIsDeterministicAcrossPoolSizes) {
  for (std::size_t shards : {1u, 4u}) {
    const std::string one = capreport(29u, shards, 1);
    EXPECT_EQ(one, capreport(29u, shards, 2)) << "shards=" << shards;
    EXPECT_EQ(one, capreport(29u, shards, 8)) << "shards=" << shards;
  }
}

}  // namespace
