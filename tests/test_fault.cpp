// Tests for antarex::fault: schedule generation, each injection kind's
// plant-level semantics on rtrm::ShardedCluster, checkpoint/restart + backoff
// rescheduling, and the golden replay fixtures proving a faulted run is
// byte-identical across shard counts and exec thread counts.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>

#include "exec/pool.hpp"
#include "fault/fault.hpp"
#include "telemetry/telemetry.hpp"

namespace antarex::fault {
namespace {

using power::DeviceSpec;
using power::DeviceType;
using power::WorkloadModel;

// ~1.4 s per work unit at the top P-state: long enough that jobs are still
// in flight when the tests crash their node.
WorkloadModel cpu_work(double gcycles = 60.0) {
  WorkloadModel w;
  w.cpu_gcycles = gcycles;
  w.cores_used = 12;
  w.activity = 0.9;
  return w;
}

rtrm::Job make_job(u64 id, double units = 1.0) {
  rtrm::Job j;
  j.id = id;
  j.name = "job" + std::to_string(id);
  j.units = units;
  j.profiles[DeviceType::Cpu] = cpu_work();
  return j;
}

/// The IT power of the latest committed step, read the way govern, monitor
/// and the fault driver read it: through a step observer.
std::shared_ptr<double> watch_it_power(rtrm::ShardedCluster& c) {
  auto it_w = std::make_shared<double>(0.0);
  c.add_step_observer([it_w](double, double p, double) { *it_w = p; });
  return it_w;
}

/// `nodes` single-Xeon nodes (40 W base) on the sharded plant, split into
/// `shards` plant shards.
std::unique_ptr<rtrm::ShardedCluster> make_cluster(std::size_t nodes,
                                                   rtrm::ClusterConfig cfg = {},
                                                   std::size_t shards = 8) {
  rtrm::ShardedClusterConfig scfg;
  scfg.base = cfg;
  scfg.shards = shards;
  auto c = std::make_unique<rtrm::ShardedCluster>(scfg);
  const u32 cpu = c->add_spec(DeviceSpec::xeon_haswell());
  for (std::size_t i = 0; i < nodes; ++i) c->add_node(40.0, {{cpu, {}}});
  return c;
}

// --------------------------------------------------------------------------
// Schedule generation
// --------------------------------------------------------------------------

TEST(Schedule, DeterministicForSeed) {
  FaultModel m;
  m.crash_mtbf_s = 50.0;
  m.glitch_rate_hz = 0.1;
  m.throttle_rate_hz = 0.05;
  m.slowdown_rate_hz = 0.02;
  const FaultSchedule a = generate_schedule(m, 4, 2, 500.0, 99);
  const FaultSchedule b = generate_schedule(m, 4, 2, 500.0, 99);
  const FaultSchedule c = generate_schedule(m, 4, 2, 500.0, 100);
  EXPECT_EQ(a.to_text(), b.to_text());
  EXPECT_NE(a.to_text(), c.to_text());
  EXPECT_FALSE(a.events.empty());
}

TEST(Schedule, EventsSortedAndPaired) {
  FaultModel m;
  m.crash_mtbf_s = 40.0;
  m.glitch_rate_hz = 0.1;
  const FaultSchedule s = generate_schedule(m, 3, 1, 400.0, 7);
  double last = 0.0;
  int crashes = 0, repairs = 0, glitches = 0, clears = 0;
  for (const FaultEvent& e : s.events) {
    EXPECT_GE(e.at_s, last);
    last = e.at_s;
    if (e.kind == FaultKind::NodeCrash) ++crashes;
    if (e.kind == FaultKind::NodeRepair) ++repairs;
    if (e.kind == FaultKind::SensorGlitch) ++glitches;
    if (e.kind == FaultKind::GlitchClear) ++clears;
  }
  // Sequential per-node timelines always emit the end with its begin.
  EXPECT_EQ(crashes, repairs);
  EXPECT_EQ(glitches, clears);
  EXPECT_GT(crashes, 0);
}

TEST(Schedule, ZeroRatesInjectNothing) {
  const FaultSchedule s = generate_schedule(FaultModel{}, 8, 2, 1000.0, 1);
  EXPECT_TRUE(s.events.empty());
}

TEST(Schedule, StreamsAreIndependent) {
  // Enabling a second fault class must not move the first class's events.
  FaultModel crashes_only;
  crashes_only.crash_mtbf_s = 60.0;
  FaultModel both = crashes_only;
  both.glitch_rate_hz = 0.2;
  const FaultSchedule a = generate_schedule(crashes_only, 2, 1, 300.0, 11);
  const FaultSchedule b = generate_schedule(both, 2, 1, 300.0, 11);
  std::vector<double> a_crashes, b_crashes;
  for (const auto& e : a.events)
    if (e.kind == FaultKind::NodeCrash) a_crashes.push_back(e.at_s);
  for (const auto& e : b.events)
    if (e.kind == FaultKind::NodeCrash) b_crashes.push_back(e.at_s);
  EXPECT_EQ(a_crashes, b_crashes);
}

// --------------------------------------------------------------------------
// Node crash / repair semantics
// --------------------------------------------------------------------------

TEST(Crash, DownNodeDrawsNoPowerAndCools) {
  auto c = make_cluster(1);
  const auto it_w = watch_it_power(*c);
  c->submit(make_job(1, 20.0));
  c->run_for(5.0);
  EXPECT_GT(*it_w, 0.0);

  c->fail_node(0);
  EXPECT_EQ(c->nodes_down(), 1u);
  EXPECT_EQ(c->node_power_w(0), 0.0);
  const double e0 = c->node_energy_j(0);
  const double t0 = c->device_temperature_c(0, 0);
  c->run_for(10.0);
  EXPECT_EQ(*it_w, 0.0);
  EXPECT_DOUBLE_EQ(c->node_energy_j(0), e0);
  EXPECT_LT(c->device_temperature_c(0, 0), t0);
  EXPECT_GT(c->node_downtime_s(0), 9.0);
}

TEST(Crash, InterruptedJobRequeuesAndCompletesAfterRepair) {
  auto c = make_cluster(1);
  c->dispatcher().set_backoff_base_s(1.0);
  c->submit(make_job(1, 4.0));
  c->run_for(2.0);
  ASSERT_EQ(c->dispatcher().running(), 1u);

  c->fail_node(0);
  EXPECT_EQ(c->dispatcher().running(), 0u);
  EXPECT_EQ(c->dispatcher().queued(), 1u);
  EXPECT_EQ(c->dispatcher().requeued_jobs(), 1u);

  c->repair_node(0);
  ASSERT_TRUE(c->run_until_idle(500.0));
  EXPECT_EQ(c->dispatcher().completed(), 1u);
  EXPECT_EQ(c->dispatcher().failed(), 0u);
  EXPECT_EQ(c->telemetry().jobs_completed, 1u);
}

TEST(Crash, CheckpointedJobKeepsBankedProgress) {
  // Without checkpoints the restart owes everything again; with them only
  // the tail past the last whole checkpoint is repeated.
  auto c = make_cluster(1);
  rtrm::Job j = make_job(1, 10.0);
  j.checkpoint_units = 1.0;
  c->submit(std::move(j));
  // Devices boot at the top P-state, where the busy job runs.
  const double unit_s =
      cpu_work().execution_time_s(c->device_spec(0, 0).dvfs.highest());
  c->run_for(5.5 * unit_s);  // ~5.5 units of progress
  ASSERT_EQ(c->dispatcher().running(), 1u);

  c->fail_node(0);
  ASSERT_EQ(c->dispatcher().queued(), 1u);
  c->repair_node(0);
  ASSERT_TRUE(c->run_until_idle(1000.0));
  ASSERT_EQ(c->dispatcher().completed(), 1u);
  const rtrm::Job& done = c->dispatcher().completed_jobs()[0];
  EXPECT_EQ(done.attempts, 1);
  EXPECT_DOUBLE_EQ(done.units_done, done.units);

  // From-scratch control: same crash point, no checkpointing.
  auto c2 = make_cluster(1);
  c2->submit(make_job(1, 10.0));
  c2->run_for(5.5 * unit_s);
  c2->fail_node(0);
  c2->repair_node(0);
  ASSERT_TRUE(c2->run_until_idle(1000.0));
  EXPECT_LT(c->telemetry().time_s, c2->telemetry().time_s);
}

TEST(Crash, ExponentialBackoffDelaysRestart) {
  auto c = make_cluster(1);
  c->dispatcher().set_backoff_base_s(8.0);
  c->submit(make_job(1, 2.0));
  c->run_for(1.0);
  c->fail_node(0);
  c->repair_node(0);
  // Attempt 1 backoff = 8 s: the node is healthy but the job must wait.
  c->run_for(4.0);
  EXPECT_EQ(c->dispatcher().running(), 0u);
  EXPECT_EQ(c->dispatcher().queued(), 1u);
  c->run_for(6.0);  // past not_before
  EXPECT_EQ(c->dispatcher().running(), 1u);
}

TEST(Crash, BackoffJobDoesNotBlockOthers) {
  auto c = make_cluster(1);
  c->dispatcher().set_backoff_base_s(50.0);
  c->submit(make_job(1, 2.0));
  c->run_for(1.0);
  c->fail_node(0);
  c->repair_node(0);
  c->submit(make_job(2, 3.0));  // arrives while job 1 is in backoff
  c->run_for(2.0);
  EXPECT_EQ(c->dispatcher().running(), 1u);  // job 2 runs, job 1 waits
  ASSERT_TRUE(c->run_until_idle(500.0));
  EXPECT_EQ(c->dispatcher().completed(), 2u);
}

TEST(Crash, RetryBudgetExhaustionFailsJob) {
  auto c = make_cluster(1);
  c->dispatcher().set_backoff_base_s(0.25);
  rtrm::Job j = make_job(1, 50.0);  // long enough to never finish between crashes
  j.max_attempts = 2;
  c->submit(std::move(j));
  // Crash it three times against a budget of two attempts.
  for (int k = 0; k < 3; ++k) {
    // Step until the job is actually running, then pull the node.
    for (int s = 0; s < 100 && c->dispatcher().running() == 0; ++s)
      c->run_for(0.25);
    ASSERT_EQ(c->dispatcher().running(), 1u);
    c->fail_node(0);
    c->repair_node(0);
  }
  EXPECT_EQ(c->dispatcher().failed(), 1u);
  EXPECT_EQ(c->dispatcher().queued(), 0u);
  EXPECT_EQ(c->dispatcher().failed_jobs()[0].state, rtrm::JobState::Failed);
  EXPECT_EQ(c->dispatcher().failed_jobs()[0].attempts, 3);
  ASSERT_TRUE(c->run_until_idle(100.0));
  EXPECT_EQ(c->telemetry().jobs_failed, 1u);
}

// --------------------------------------------------------------------------
// Sensor glitches, throttles, slowdowns
// --------------------------------------------------------------------------

TEST(Glitch, CorruptsReadingNotGroundTruth) {
  // The counter view carries the glitch offset; the device's energy books
  // do not, so conservation invariants survive injection.
  auto c = make_cluster(1);
  c->run_for(10.0);
  const u32 honest = c->device_counter_uj(0, 0);
  const double truth = c->device_energy_j(0, 0);
  c->set_reading_offset_j(0, 0, 50.0);
  EXPECT_NE(c->device_counter_uj(0, 0), honest);
  EXPECT_DOUBLE_EQ(c->device_energy_j(0, 0), truth);
  c->set_reading_offset_j(0, 0, 0.0);
  EXPECT_EQ(c->device_counter_uj(0, 0), honest);
}

TEST(Glitch, InjectionBumpsPoisonEpoch) {
  auto c = make_cluster(1);
  FaultModel m;
  m.glitch_rate_hz = 0.5;
  ShardFaultDriver drv(*c, generate_schedule(m, 1, 1, 30.0, 3));
  const u64 epoch0 = telemetry::poison_epoch();
  c->submit(make_job(1, 10.0));
  c->run_for(30.0);
  EXPECT_GT(drv.stats().glitches, 0u);
  EXPECT_GT(telemetry::poison_epoch(), epoch0);
}

TEST(Throttle, ForcesLowestPState) {
  // The performance governor keeps proposing the top P-state; a forced
  // throttle overrides it for its hold, then the device runs at the top
  // again on its own.
  rtrm::ClusterConfig cfg;
  cfg.governor = rtrm::GovernorPolicy::Performance;
  auto c = make_cluster(1, cfg);
  c->submit(make_job(1, 500.0));
  c->run_for(1.0);
  const std::size_t top = c->device_spec(0, 0).dvfs.size() - 1;
  ASSERT_EQ(c->device_op_index(0, 0), top);
  const double top_rate = c->device_progress_rate_ups(0, 0);

  c->force_throttle(0, 0, 5.0);
  EXPECT_TRUE(c->device_throttled(0, 0));
  EXPECT_LT(c->device_progress_rate_ups(0, 0), top_rate);
  c->run_for(6.0);
  EXPECT_FALSE(c->device_throttled(0, 0));
  EXPECT_EQ(c->device_op_index(0, 0), top);
  EXPECT_DOUBLE_EQ(c->device_progress_rate_ups(0, 0), top_rate);
}

TEST(Slowdown, StretchesExecutionTime) {
  auto fast = make_cluster(1);
  auto slow = make_cluster(1);
  slow->set_node_slowdown(0, 2.0);
  EXPECT_DOUBLE_EQ(slow->device_slowdown(0, 0), 2.0);
  EXPECT_THROW(slow->set_node_slowdown(1, 2.0), Error);  // one node only
  EXPECT_THROW(slow->set_node_slowdown(0, 0.5), Error);
  fast->submit(make_job(1, 4.0));
  slow->submit(make_job(1, 4.0));
  // Fine dt so idle detection doesn't quantize the measured makespans.
  ASSERT_TRUE(fast->run_until_idle(1000.0, 0.05));
  ASSERT_TRUE(slow->run_until_idle(1000.0, 0.05));
  EXPECT_GT(slow->telemetry().time_s, 1.5 * fast->telemetry().time_s);
}

TEST(Slowdown, PerNodeAccessorsRejectIndicesPastTheEnd) {
  auto c = make_cluster(2);  // two nodes, one device each
  c->run_for(1.0);
  for (std::size_t node : {std::size_t{0}, std::size_t{1}}) {
    EXPECT_GT(c->node_power_w(node), 0.0);
    EXPECT_FALSE(c->node_failed(node));
    EXPECT_GT(c->node_budget_w(node), 0.0);
    EXPECT_DOUBLE_EQ(c->node_base_power_w(node), 40.0);
    EXPECT_EQ(c->node_crashes(node), 0u);
    EXPECT_EQ(c->node_device_count(node), 1u);
    EXPECT_EQ(c->node_of_device(static_cast<u32>(node)), node);
    EXPECT_GT(c->device_power_w(static_cast<u32>(node)), 0.0);
  }
  EXPECT_THROW(c->node_power_w(2), Error);
  EXPECT_THROW(c->node_failed(2), Error);
  EXPECT_THROW(c->node_budget_w(2), Error);
  EXPECT_THROW(c->node_base_power_w(2), Error);
  EXPECT_THROW(c->node_crashes(2), Error);
  EXPECT_THROW(c->node_device_count(2), Error);
  EXPECT_THROW(c->node_of_device(2), Error);  // global device index
  EXPECT_THROW(c->device_power_w(2), Error);
}

// --------------------------------------------------------------------------
// Fault driver accounting
// --------------------------------------------------------------------------

TEST(FaultDriver, TracksTimeUnderFault) {
  auto c = make_cluster(2);
  FaultSchedule s;
  s.horizon_s = 30.0;
  s.events.push_back({5.0, FaultKind::NodeCrash, 0, 0, 0.0, 10.0});
  s.events.push_back({15.0, FaultKind::NodeRepair, 0, 0, 0.0, 0.0});
  ShardFaultDriver drv(*c, s);
  c->run_for(30.0);
  EXPECT_EQ(drv.stats().crashes, 1u);
  EXPECT_EQ(drv.stats().repairs, 1u);
  EXPECT_NEAR(drv.stats().time_under_fault_s, 10.0, 0.5);
  EXPECT_NEAR(drv.stats().node_downtime_s, 10.0, 0.5);
}

TEST(FaultDriver, LogIsReplayableFromSameSeed) {
  auto run = [](u64 seed) {
    telemetry::Registry::global().reset();
    auto c = make_cluster(2);
    for (u64 j = 1; j <= 6; ++j) c->submit(make_job(j, 2.0));
    FaultModel m;
    m.crash_mtbf_s = 20.0;
    m.repair_mean_s = 5.0;
    m.glitch_rate_hz = 0.05;
    ShardFaultDriver drv(*c, generate_schedule(m, 2, 1, 40.0, seed));
    c->run_for(40.0);
    c->run_until_idle(2000.0);
    return drv.replay_trace();
  };
  EXPECT_EQ(run(21), run(21));
  EXPECT_NE(run(21), run(22));
}

// --------------------------------------------------------------------------
// Golden replay: tests/golden/fault_replay_*.txt were recorded from the
// per-object plant this repo used to carry; the sharded plant must
// reproduce them byte for byte at any shard count and exec pool size.
// --------------------------------------------------------------------------

std::string golden_run(u64 seed, std::size_t shards, int threads) {
  // Counters are commutative atomic sums, so their final values — unlike
  // exec.* scheduling details — must be identical across thread counts; run
  // with telemetry on so the replay trace actually captures them.
  telemetry::ScopedEnable telemetry_on;
  telemetry::Registry::global().reset();
  rtrm::ClusterConfig cfg;
  cfg.backfill = true;
  auto cluster = make_cluster(4, cfg, shards);
  for (u64 j = 1; j <= 12; ++j) {
    rtrm::Job job = make_job(j, 8.0 + static_cast<double>(j % 4));
    job.checkpoint_units = (j % 2 == 0) ? 0.5 : 0.0;
    cluster->submit(std::move(job));
  }
  FaultModel m;
  m.crash_mtbf_s = 30.0;
  m.repair_mean_s = 6.0;
  m.glitch_rate_hz = 0.04;
  m.throttle_rate_hz = 0.02;
  m.slowdown_rate_hz = 0.01;
  ShardFaultDriver driver(*cluster, generate_schedule(m, 4, 1, 80.0, seed));
  exec::ThreadPool pool(threads);
  cluster->set_pool(&pool);
  cluster->run_for(80.0, 0.25);
  cluster->run_until_idle(3000.0, 0.25);
  return driver.replay_trace();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class GoldenReplay : public ::testing::TestWithParam<u64> {};

TEST_P(GoldenReplay, TraceMatchesFixtureAcrossShardsAndThreads) {
  const u64 seed = GetParam();
  const std::string path = std::string(ANTAREX_GOLDEN_DIR) +
                           "/fault_replay_" + std::to_string(seed) + ".txt";
  const std::string fixture = read_file(path);
  ASSERT_FALSE(fixture.empty()) << "missing fixture " << path;
  for (const std::size_t shards : {1u, 4u})
    for (const int threads : {1, 2, 8})
      EXPECT_EQ(golden_run(seed, shards, threads), fixture)
          << "shards=" << shards << " threads=" << threads;
}

INSTANTIATE_TEST_SUITE_P(Fixtures, GoldenReplay, ::testing::Values(42u, 1337u));

}  // namespace
}  // namespace antarex::fault
