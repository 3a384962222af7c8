// Differential shard-equivalence suite: the SoA ShardedCluster must be an
// exact drop-in for the per-object (one Node/Device object per instance)
// stepper this repo used to carry. Every scenario's canonical state trace
// (tests/sharded_common.hpp) — every per-node and per-device observable at
// full %.17g precision — plus its fault log was recorded from that stepper
// into tests/golden/sharded_diff_<seed>.txt,
// and the sharded engine must reproduce it byte-for-byte across 1/4/16
// shards and 1/2/8 exec workers, with and without injected crash/repair
// schedules. The sharded_replay_* fixtures pin the golden scenario the same
// way, mirroring fault_replay_*. PowerCacheProps checks the plant's cached
// device powers against the power model after random mutations.
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "exec/pool.hpp"
#include "power_cache_props.hpp"
#include "sharded_common.hpp"
#include "telemetry/telemetry.hpp"

namespace antarex::rtrm {
namespace {

constexpr std::size_t kNodes = 24;
constexpr std::size_t kJobs = 36;
constexpr double kHorizon = 40.0;
constexpr double kDt = 0.25;
constexpr double kIdleLimit = 2000.0;

struct Scenario {
  GovernorPolicy governor = GovernorPolicy::Ondemand;
  PlacementPolicy placement = PlacementPolicy::FirstFit;
  bool backfill = false;
  std::optional<double> facility_cap_w;
  bool faults = false;
  std::size_t op_step_down = 0;
};

/// The scenario each differential fixture was recorded from.
Scenario diff_scenario(u64 seed) {
  Scenario sc;
  switch (seed) {
    case 11:
      sc.governor = GovernorPolicy::EnergyAware;
      sc.placement = PlacementPolicy::EnergyAware;
      sc.backfill = true;
      break;
    case 13:
      sc.governor = GovernorPolicy::EnergyAware;
      sc.placement = PlacementPolicy::FastestFirst;
      sc.backfill = true;
      sc.faults = true;
      sc.op_step_down = 1;
      break;
    case 17:
      sc.placement = PlacementPolicy::EnergyAware;
      sc.facility_cap_w = 120.0 * static_cast<double>(kNodes);
      sc.faults = true;
      break;
    case 29:
      sc.faults = true;
      break;
    default:  // 7: healthy Ondemand first-fit
      break;
  }
  return sc;
}

ClusterConfig base_config(const Scenario& sc) {
  ClusterConfig cfg;
  cfg.governor = sc.governor;
  cfg.placement = sc.placement;
  cfg.backfill = sc.backfill;
  cfg.facility_cap_w = sc.facility_cap_w;
  return cfg;
}

/// One scenario's run in the golden_document format every fixture uses: the
/// state trace, then the fault/dispatcher log. A positive `idle_tail_s` runs
/// the idle plant that long after the jobs drain, then submits six more CPU
/// jobs and runs kHorizon more.
std::string sharded_document(u64 seed, const Scenario& sc, std::size_t shards,
                             int threads, double idle_tail_s = 0.0) {
  ShardedClusterConfig cfg;
  cfg.base = base_config(sc);
  cfg.shards = shards;
  ShardedCluster cluster(cfg);
  ClusterBlueprint::exascale(seed, kNodes).build(cluster);
  if (sc.op_step_down > 0) cluster.set_op_step_down(sc.op_step_down);
  submit_job_mix(cluster, seed, kJobs);
  std::optional<fault::ShardFaultDriver> driver;
  if (sc.faults)
    driver.emplace(cluster, make_fault_schedule(kNodes, kHorizon, seed));
  exec::ThreadPool pool(threads);
  cluster.set_pool(&pool);
  cluster.run_for(kHorizon, kDt);
  cluster.run_until_idle(kIdleLimit, kDt);
  if (idle_tail_s > 0.0) {
    cluster.run_for(idle_tail_s, kDt);
    for (u64 id = 1001; id <= 1006; ++id) {
      Job job;
      job.id = id;
      job.name = "wake" + std::to_string(id);
      job.units = 2.0;
      power::WorkloadModel cpu;
      cpu.cpu_gcycles = 30.0;
      cpu.cores_used = 12;
      cpu.activity = 0.9;
      job.profiles[power::DeviceType::Cpu] = cpu;
      cluster.submit(std::move(job));
    }
    cluster.run_for(kHorizon, kDt);
  }
  std::string doc = state_trace(cluster);
  doc += "--- fault log ---\n";
  if (driver) {
    for (const std::string& line : driver->log()) {
      doc += line;
      doc += '\n';
    }
  }
  return doc;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The differential fixture of one scenario, recorded from the legacy
/// stepper (no regenerate path: the legacy engine is the oracle).
std::string diff_fixture(u64 seed) {
  const std::string path = std::string(ANTAREX_GOLDEN_DIR) + "/sharded_diff_" +
                           std::to_string(seed) + ".txt";
  return read_file(path);
}

struct ShardCase {
  std::size_t shards;
  int threads;
};
constexpr ShardCase kShardCases[] = {{1, 1}, {4, 2}, {16, 8}};

void expect_equivalent(u64 seed) {
  const std::string fixture = diff_fixture(seed);
  ASSERT_FALSE(fixture.empty()) << "missing fixture sharded_diff_" << seed;
  for (const ShardCase& c : kShardCases) {
    EXPECT_EQ(sharded_document(seed, diff_scenario(seed), c.shards, c.threads),
              fixture)
        << "diverged at shards=" << c.shards << " threads=" << c.threads
        << " seed=" << seed;
  }
}

TEST(ShardedDifferential, HealthyOndemandFirstFit) { expect_equivalent(7u); }

TEST(ShardedDifferential, HealthyEnergyAwarePlacementAndGovernor) {
  expect_equivalent(11u);
}

TEST(ShardedDifferential, FaultedFastestFirstBackfill) {
  expect_equivalent(13u);
}

TEST(ShardedDifferential, FaultedFacilityCap) { expect_equivalent(17u); }

TEST(ShardedDifferential, OddShardCountsMatchToo) {
  // Shard counts that do not divide the node count exercise the uneven
  // range partition; the merge must still commit in node order.
  const std::string fixture = diff_fixture(29u);
  ASSERT_FALSE(fixture.empty()) << "missing fixture sharded_diff_29";
  for (std::size_t shards : {3u, 5u, 7u, 24u}) {
    EXPECT_EQ(sharded_document(29u, diff_scenario(29u), shards, 2), fixture)
        << "shards=" << shards;
  }
}

// The power.* counters the legacy stepper's per-node and per-device
// RaplDomains fed over each differential run with a 600.1 s idle tail and
// six late jobs, recorded from that stepper: one sample per node and per
// device each step, and the microjoules of each sample truncated as
// RaplDomain::accumulate truncates them. In the idle tail every device and
// node parks and the last step is 0.1 s, so the parked energy is counted at
// both step sizes; the late jobs then wake parked devices.
constexpr double kIdleTail = 600.1;
struct RaplCounts {
  u64 seed;
  u64 samples;
  u64 energy_uj;
};
constexpr RaplCounts kLegacyRapl[] = {{7, 229908, 2575577227253},
                                      {11, 224434, 2345357194431},
                                      {13, 224434, 2326691899804},
                                      {17, 229908, 2475193006987},
                                      {29, 221697, 2413513489610}};

TEST(ShardedDifferential, RaplCountersMatchLegacyStepper) {
  auto& reg = telemetry::Registry::global();
  for (const RaplCounts& want : kLegacyRapl) {
    for (const ShardCase& c : kShardCases) {
      reg.reset();
      telemetry::set_enabled(true);
      sharded_document(want.seed, diff_scenario(want.seed), c.shards,
                       c.threads, kIdleTail);
      telemetry::set_enabled(false);
      EXPECT_EQ(reg.counter("power.rapl_samples").value(), want.samples)
          << "seed=" << want.seed << " shards=" << c.shards;
      EXPECT_EQ(reg.counter("power.energy_uj").value(), want.energy_uj)
          << "seed=" << want.seed << " shards=" << c.shards;
    }
  }
  reg.reset();
}

// --------------------------------------------------------------------------
// Golden fixtures: the legacy stepper recorded them, the sharded engine must
// reproduce them byte-for-byte.
// --------------------------------------------------------------------------

Scenario golden_scenario() {
  Scenario sc;
  sc.governor = GovernorPolicy::EnergyAware;
  sc.placement = PlacementPolicy::FastestFirst;
  sc.backfill = true;
  sc.faults = true;
  return sc;
}

class GoldenSharded : public ::testing::TestWithParam<u64> {};

TEST_P(GoldenSharded, LegacyGeneratedFixtureMatchesShardedEngine) {
  const u64 seed = GetParam();
  const std::string path = std::string(ANTAREX_GOLDEN_DIR) +
                           "/sharded_replay_" + std::to_string(seed) + ".txt";
  const std::string fixture = read_file(path);
  ASSERT_FALSE(fixture.empty()) << "missing fixture " << path;
  EXPECT_EQ(sharded_document(seed, golden_scenario(), 4, 2), fixture);
}

INSTANTIATE_TEST_SUITE_P(Fixtures, GoldenSharded,
                         ::testing::Values(42u, 1337u));

// The power cache's exactness property (tests/power_cache_props.hpp);
// test_sharded_long.cpp runs the 1000-seed sweep.
INSTANTIATE_TEST_SUITE_P(Seeds, PowerCacheProps, ::testing::Range<u64>(1, 49));

}  // namespace
}  // namespace antarex::rtrm
