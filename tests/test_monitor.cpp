// Tests for antarex::monitor: the sharded broker's delivery order and drop
// accounting, the bounded-memory aggregation pieces (retention ring,
// space-saving top-K, per-shard histograms), the anomaly detector's per-kind
// semantics on synthetic frames, ground-truth evaluation, and the assembled
// fabric end-to-end on a small faulted cluster, pinned by a golden health
// fixture; a second fixture pins every alert open/close transition of the
// policy engine, the detector and the SLO tracker.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "causal/ledger.hpp"
#include "causal/slo.hpp"
#include "exec/pool.hpp"
#include "fault/fault.hpp"
#include "govern/sharded_cap.hpp"
#include "monitor/monitor.hpp"
#include "obs/policy.hpp"
#include "rtrm/sharded_cluster.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "telemetry/telemetry.hpp"

namespace antarex::monitor {
namespace {

using power::DeviceSpec;
using power::DeviceType;
using power::WorkloadModel;

MetricFrame make_frame(double t_s, u32 node, u16 shard, float power_w,
                       float temp_c, float util, float progress_ups) {
  MetricFrame f;
  f.t_s = t_s;
  f.node = node;
  f.shard = shard;
  f.busy_devices = util > 0.0f ? 1 : 0;
  f.power_w = power_w;
  f.temp_c = temp_c;
  f.util = util;
  f.progress_ups = progress_ups;
  return f;
}

// --------------------------------------------------------------------------
// Broker
// --------------------------------------------------------------------------

TEST(Broker, DrainsShardsInOrderFifoWithinShard) {
  Broker broker(2);
  for (u32 n = 0; n < 6; ++n)
    broker.publish(make_frame(1.0, n, static_cast<u16>(n % 2), 100, 50, 1, 1));
  std::vector<u32> seen;
  EXPECT_EQ(broker.drain([&](const MetricFrame& f) { seen.push_back(f.node); }),
            6u);
  // Shard 0 first (nodes 0,2,4 FIFO), then shard 1 (1,3,5).
  EXPECT_EQ(seen, (std::vector<u32>{0, 2, 4, 1, 3, 5}));
  EXPECT_EQ(broker.published(), 6u);
  EXPECT_EQ(broker.delivered(), 6u);
  EXPECT_EQ(broker.total_dropped(), 0u);
  // The queues are empty after a drain.
  EXPECT_EQ(broker.drain([&](const MetricFrame&) { ADD_FAILURE(); }), 0u);
}

TEST(Broker, FullQueueDropsAreCountedPerShardAndInTelemetry) {
  telemetry::set_enabled(true);
  telemetry::Registry::global().reset();
  // Per-shard drops as the metrics JSON "drops" section reports them.
  const auto drops = [](const std::string& shard) -> u64 {
    for (const auto& [name, counter] :
         telemetry::Registry::global().drop_counters())
      if (name == "monitor.broker.dropped.cluster/" + shard)
        return counter->value();
    return 0;
  };
  Broker broker(2);
  for (std::size_t i = 0; i < Broker::kQueueCapacity; ++i)
    broker.publish(make_frame(1.0, 0, 0, 100, 50, 1, 1));
  EXPECT_EQ(broker.total_dropped(), 0u);  // exactly full is not a drop
  for (int i = 0; i < 3; ++i)
    broker.publish(make_frame(1.0, 0, 0, 100, 50, 1, 1));
  EXPECT_EQ(drops("0"), 3u);
  EXPECT_EQ(drops("1"), 0u);
  EXPECT_EQ(broker.total_dropped(), 3u);
  EXPECT_EQ(broker.published(), Broker::kQueueCapacity + 3);
  EXPECT_EQ(broker.drain([](const MetricFrame&) {}), Broker::kQueueCapacity);
  telemetry::set_enabled(false);
}

// --------------------------------------------------------------------------
// TopK (SpaceSaving)
// --------------------------------------------------------------------------

TEST(TopK, RanksAndInheritsOnEviction) {
  TopK top(2);
  top.offer(1, 5.0);
  top.offer(2, 3.0);
  top.offer(3, 4.0);  // evicts key 2 (min), inherits its count as error
  const auto ranked = top.ranked();
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].key, 3u);
  EXPECT_DOUBLE_EQ(ranked[0].weight, 7.0);
  EXPECT_DOUBLE_EQ(ranked[0].error, 3.0);
  EXPECT_EQ(ranked[1].key, 1u);
  EXPECT_DOUBLE_EQ(ranked[1].weight, 5.0);
  EXPECT_DOUBLE_EQ(ranked[1].error, 0.0);
  EXPECT_DOUBLE_EQ(top.total_weight(), 12.0);
}

TEST(TopK, HeavyHitterAlwaysSurvives) {
  // SpaceSaving guarantee: any key with true weight > total/K is present.
  TopK top(4);
  for (int round = 0; round < 100; ++round) {
    top.offer(7, 3.0);                        // the heavy hitter
    top.offer(static_cast<u32>(100 + round)); // churn of singletons
  }
  bool present = false;
  for (const auto& e : top.ranked())
    if (e.key == 7) {
      present = true;
      EXPECT_GT(e.weight - e.error, 0.0);  // a guaranteed true weight
    }
  EXPECT_TRUE(present);
}

// --------------------------------------------------------------------------
// RetentionRing
// --------------------------------------------------------------------------

TEST(Ring, FoldsTenPushesIntoTheCoarserLevel) {
  RetentionRing ring(4);
  for (int i = 1; i <= 40; ++i) ring.push(i);
  EXPECT_EQ(ring.pushes(), 40u);

  const auto fine = ring.history(0);
  ASSERT_EQ(fine.size(), 4u);
  EXPECT_DOUBLE_EQ(fine.back().mean, 40.0);
  EXPECT_DOUBLE_EQ(fine.front().mean, 37.0);

  // Level 1 holds means-of-10 with the group's min/max envelope.
  const auto coarse = ring.history(1);
  ASSERT_EQ(coarse.size(), 4u);
  EXPECT_DOUBLE_EQ(coarse[0].mean, 5.5);
  EXPECT_DOUBLE_EQ(coarse[0].min, 1.0);
  EXPECT_DOUBLE_EQ(coarse[0].max, 10.0);
  EXPECT_DOUBLE_EQ(coarse[3].mean, 35.5);

  EXPECT_TRUE(ring.history(2).empty());  // needs 100 pushes per cell
}

TEST(Ring, OldestFineCellsSurviveOnlyCoarsened) {
  RetentionRing ring(4);
  for (int i = 1; i <= 1000; ++i) ring.push(i);
  const auto coarsest = ring.history(2);
  ASSERT_EQ(coarsest.size(), 4u);
  // Means-of-100: groups ending at 700, 800, 900, 1000.
  EXPECT_DOUBLE_EQ(coarsest[0].mean, 650.5);
  EXPECT_DOUBLE_EQ(coarsest[3].mean, 950.5);
  EXPECT_DOUBLE_EQ(coarsest[3].min, 901.0);
  EXPECT_DOUBLE_EQ(coarsest[3].max, 1000.0);
}

// --------------------------------------------------------------------------
// ShardAggregator
// --------------------------------------------------------------------------

TEST(Aggregator, ShardStatsRollUpToClusterStats) {
  ShardAggregator agg(2);
  agg.ingest(make_frame(1.0, 0, 0, 100, 50, 1, 1));
  agg.ingest(make_frame(1.0, 1, 1, 200, 60, 1, 2));
  agg.ingest(make_frame(1.0, 2, 0, 300, 40, 1, 3));
  EXPECT_EQ(agg.frames(), 3u);

  EXPECT_EQ(agg.shard_stat(0, Metric::PowerW).count, 2u);
  EXPECT_DOUBLE_EQ(agg.shard_stat(0, Metric::PowerW).mean(), 200.0);
  EXPECT_EQ(agg.shard_stat(1, Metric::PowerW).count, 1u);

  const StreamStat cluster = agg.cluster_stat(Metric::PowerW);
  EXPECT_EQ(cluster.count, 3u);
  EXPECT_DOUBLE_EQ(cluster.sum, 600.0);
  EXPECT_DOUBLE_EQ(cluster.min, 100.0);
  EXPECT_DOUBLE_EQ(cluster.max, 300.0);

  // Conservation: per-shard sums account for every delivered watt.
  double shard_sum = 0.0;
  for (std::size_t s = 0; s < agg.shards(); ++s)
    shard_sum += agg.shard_stat(s, Metric::PowerW).sum;
  EXPECT_DOUBLE_EQ(shard_sum, cluster.sum);

  const std::vector<double> q =
      agg.cluster_quantiles(Metric::PowerW, {0.0, 0.5, 0.95, 1.0});
  EXPECT_GE(q[1], 100.0);
  EXPECT_LE(q[1], 300.0);
  EXPECT_TRUE(std::is_sorted(q.begin(), q.end()));
  // One merge serves every quantile: a single read agrees with it.
  EXPECT_EQ(agg.cluster_quantiles(Metric::PowerW, {0.95}).front(), q[2]);
}

TEST(Aggregator, InfiniteReadingsClampIntoTheEdgeBins) {
  ShardAggregator agg(1);
  agg.ingest(make_frame(1.0, 0, 0, INFINITY, 50, 1, 1));
  agg.ingest(make_frame(1.0, 1, 0, -INFINITY, 50, 1, 1));
  EXPECT_EQ(agg.cluster_quantiles(Metric::PowerW, {0.0, 1.0}),
            (std::vector<double>{0.0, agg.config().power_hi_w}));
  EXPECT_THROW(agg.ingest(make_frame(1.0, 2, 0, NAN, 50, 1, 1)), Error);
}

TEST(Aggregator, RollStepFeedsRingsAndHotNodesTrackOutliers) {
  ShardAggregator agg(1);
  agg.ingest(make_frame(1.0, 0, 0, 100, 90, 1, 1));  // 20 C over the hot mark
  agg.ingest(make_frame(1.0, 1, 0, 100, 50, 1, 1));
  EXPECT_EQ(agg.ring(Metric::PowerW).pushes(), 0u);
  agg.roll_step();
  EXPECT_EQ(agg.ring(Metric::PowerW).pushes(), 1u);
  EXPECT_DOUBLE_EQ(agg.ring(Metric::PowerW).history(0).back().mean, 100.0);
  EXPECT_DOUBLE_EQ(agg.ring(Metric::TempC).history(0).back().mean, 70.0);

  const auto hot = agg.hot_nodes().ranked();
  ASSERT_EQ(hot.size(), 1u);  // only the 90 C node crossed the mark
  EXPECT_EQ(hot[0].key, 0u);
  EXPECT_DOUBLE_EQ(hot[0].weight, 20.0);

  // Memory bound is configuration-shaped, not load-shaped.
  const std::size_t before = agg.approx_bytes();
  for (u32 n = 0; n < 10000; ++n)
    agg.ingest(make_frame(2.0, n, 0, 100, 50, 1, 1));
  EXPECT_EQ(agg.approx_bytes(), before);
}

// --------------------------------------------------------------------------
// AnomalyDetector on synthetic frames
// --------------------------------------------------------------------------

constexpr float kP = 100.0f, kT = 50.0f, kG = 1.0f;  // the healthy operating point

void warm_up(AnomalyDetector& det, double* t, u16 shard = 0, int samples = 12) {
  for (int i = 0; i < samples; ++i)
    det.observe(make_frame((*t)++, 0, shard, kP, kT, 1.0f, kG));
}

TEST(Detector, WarmupSuppressesJudgment) {
  AnomalyDetector det(1);
  double t = 0.0;
  for (int i = 0; i < 4; ++i)
    det.observe(make_frame(t++, 0, 0, 900.0f, 120.0f, 1.0f, 0.01f));
  EXPECT_TRUE(det.episodes().empty());
  EXPECT_EQ(det.flagged_samples(), 0u);
}

TEST(Detector, PowerSpikeOpensInOneSampleAndClosesAfterQuiet) {
  AnomalyDetector det(1);
  double t = 0.0;
  warm_up(det, &t);
  det.observe(make_frame(t++, 0, 0, 600.0f, kT, 1.0f, kG));  // the spike
  EXPECT_EQ(det.active(), 1u);
  ASSERT_EQ(det.episodes().size(), 1u);
  EXPECT_EQ(det.episodes()[0].kind, AnomalyKind::PowerSpike);
  EXPECT_TRUE(det.episodes()[0].open);
  for (int i = 0; i < 3; ++i)  // three quiet samples close
    det.observe(make_frame(t++, 0, 0, kP, kT, 1.0f, kG));
  EXPECT_EQ(det.active(), 0u);
  ASSERT_EQ(det.closed().size(), 1u);
  const Episode& e = det.closed()[0];
  EXPECT_EQ(e.node, 0u);
  EXPECT_FALSE(e.open);
  EXPECT_GT(e.peak_z, AnomalyDetector::kFlagZ);
  EXPECT_DOUBLE_EQ(e.open_t_s, e.close_t_s);  // one-sample anomaly
}

TEST(Detector, PowerSignatureSplitsThrottleFromSlowNode) {
  AnomalyDetector det(1);
  double t = 0.0;
  warm_up(det, &t);
  // Node 1: progress collapse with a matching power drop -> Throttle.
  // Node 2: same collapse at normal power -> SlowNode.
  for (int i = 0; i < 2; ++i) {  // open_after = 2
    det.observe(make_frame(t, 1, 0, 55.0f, kT, 1.0f, 0.3f));
    det.observe(make_frame(t, 2, 0, kP, kT, 1.0f, 0.3f));
    t += 1.0;
  }
  const auto episodes = det.episodes();
  ASSERT_EQ(episodes.size(), 2u);
  EXPECT_EQ(episodes[0].node, 1u);
  EXPECT_EQ(episodes[0].kind, AnomalyKind::Throttle);
  EXPECT_EQ(episodes[1].node, 2u);
  EXPECT_EQ(episodes[1].kind, AnomalyKind::SlowNode);
}

TEST(Detector, ThermalRunawayOnTemperature) {
  AnomalyDetector det(1);
  double t = 0.0;
  warm_up(det, &t);
  for (int i = 0; i < 2; ++i)
    det.observe(make_frame(t++, 3, 0, kP, 95.0f, 1.0f, kG));
  ASSERT_EQ(det.episodes().size(), 1u);
  EXPECT_EQ(det.episodes()[0].kind, AnomalyKind::ThermalRunaway);
}

TEST(Detector, IdleSamplesAreNeverJudgedAndCountAsQuiet) {
  AnomalyDetector det(1);
  double t = 0.0;
  warm_up(det, &t);
  // An idle node with absurd readings is not an anomaly.
  det.observe(make_frame(t++, 4, 0, 600.0f, 95.0f, 0.0f, 0.0f));
  EXPECT_TRUE(det.episodes().empty());
  // An open episode closes when the node goes idle for three samples.
  det.observe(make_frame(t++, 5, 0, 600.0f, kT, 1.0f, kG));
  EXPECT_EQ(det.active(), 1u);
  for (int i = 0; i < 3; ++i)
    det.observe(make_frame(t++, 5, 0, 0.0f, 30.0f, 0.0f, 0.0f));
  EXPECT_EQ(det.active(), 0u);
  EXPECT_EQ(det.closed().size(), 1u);
}

TEST(Detector, AnomaliesDoNotContaminateTheBaseline) {
  AnomalyDetector det(1);
  double t = 0.0;
  warm_up(det, &t);
  // A stuck throttle held for far longer than 1/alpha samples must stay one
  // open episode: if flagged samples taught the baseline, the anomaly would
  // become "normal" and the episode would close on its own.
  for (int i = 0; i < 60; ++i)
    det.observe(make_frame(t++, 1, 0, 55.0f, kT, 1.0f, 0.3f));
  EXPECT_EQ(det.active(), 1u);
  ASSERT_EQ(det.episodes().size(), 1u);
  EXPECT_EQ(det.episodes()[0].kind, AnomalyKind::Throttle);
  // Healthy frames still read as healthy against the unpoisoned baseline.
  for (int i = 0; i < 3; ++i)
    det.observe(make_frame(t++, 1, 0, kP, kT, 1.0f, kG));
  EXPECT_EQ(det.active(), 0u);
  EXPECT_EQ(det.closed().size(), 1u);
}

TEST(Detector, TrackedMapIsBoundedAndOverflowIsCounted) {
  AnomalyDetector det(1);
  double t = 0.0;
  warm_up(det, &t);
  const u32 nodes = static_cast<u32>(AnomalyDetector::kMaxTracked) + 1;
  for (u32 n = 1; n <= nodes; ++n)
    det.observe(make_frame(t, n, 0, 600.0f, kT, 1.0f, kG));
  // The last node found no slot: counted, not tracked.
  EXPECT_EQ(det.active(), AnomalyDetector::kMaxTracked);
  EXPECT_EQ(det.tracked_overflow(), 1u);
  EXPECT_EQ(det.episodes().size(), AnomalyDetector::kMaxTracked);
}

// --------------------------------------------------------------------------
// Ground truth + evaluation
// --------------------------------------------------------------------------

fault::FaultEvent event(double at_s, fault::FaultKind kind, u32 node,
                        double magnitude = 0.0, double duration_s = 0.0) {
  fault::FaultEvent e;
  e.at_s = at_s;
  e.kind = kind;
  e.node = node;
  e.magnitude = magnitude;
  e.duration_s = duration_s;
  return e;
}

TEST(Eval, GroundTruthLabelsAndQualification) {
  fault::FaultSchedule sched;
  sched.horizon_s = 50.0;
  sched.events = {
      event(10.0, fault::FaultKind::NodeCrash, 0),  // no episode
      event(15.0, fault::FaultKind::SensorGlitch, 3, 200.0),
      event(17.0, fault::FaultKind::GlitchClear, 3),
      event(20.0, fault::FaultKind::ThermalThrottle, 1, 0.0, 6.0),
      event(25.0, fault::FaultKind::NodeRepair, 0),
      event(30.0, fault::FaultKind::SlowNode, 2, 2.0),
      event(48.0, fault::FaultKind::SlowNode, 4, 2.0),  // unended: to horizon
  };
  sched.events.push_back(event(40.0, fault::FaultKind::SlowNodeEnd, 2));
  std::sort(sched.events.begin(), sched.events.end(),
            [](const fault::FaultEvent& a, const fault::FaultEvent& b) {
              return a.at_s < b.at_s;
            });

  const auto gt = ground_truth(sched, 1.0);
  ASSERT_EQ(gt.size(), 4u);  // crash/repair produce nothing

  // Sorted by start: glitch(15), throttle(20), slow(30), slow(48).
  EXPECT_EQ(gt[0].kind, AnomalyKind::PowerSpike);
  EXPECT_FALSE(gt[0].qualifies);  // 2 samples inside, 3 needed
  EXPECT_EQ(gt[1].kind, AnomalyKind::Throttle);
  EXPECT_EQ(gt[1].node, 1u);
  EXPECT_DOUBLE_EQ(gt[1].end_s, 26.0);
  EXPECT_TRUE(gt[1].qualifies);
  EXPECT_EQ(gt[2].kind, AnomalyKind::SlowNode);
  EXPECT_DOUBLE_EQ(gt[2].end_s, 40.0);
  EXPECT_TRUE(gt[2].qualifies);
  EXPECT_DOUBLE_EQ(gt[3].end_s, 50.0);  // ran to the horizon
  EXPECT_FALSE(gt[3].qualifies);        // only 2 instants inside
}

// Qualification counts the scored fabric's own sampling instants: a 1.6 s
// slowdown holds three instants at 0.5 s (20.5, 21.0, 21.5) but one at 1 s.
TEST(Eval, QualificationFollowsTheSamplePeriod) {
  fault::FaultSchedule sched;
  sched.horizon_s = 50.0;
  sched.events = {event(20.2, fault::FaultKind::SlowNode, 2, 2.0),
                  event(21.8, fault::FaultKind::SlowNodeEnd, 2)};
  const auto at_half = ground_truth(sched, 0.5);
  const auto at_one = ground_truth(sched, 1.0);
  ASSERT_EQ(at_half.size(), 1u);
  ASSERT_EQ(at_one.size(), 1u);
  EXPECT_TRUE(at_half[0].qualifies);
  EXPECT_FALSE(at_one[0].qualifies);
  EXPECT_THROW(ground_truth(sched, 0.0), Error);
}

Episode detection(u32 node, AnomalyKind kind, double open_s, double close_s) {
  Episode e;
  e.node = node;
  e.kind = kind;
  e.open_t_s = open_s;
  e.close_t_s = close_s;
  return e;
}

TEST(Eval, PrecisionAndRecallScoring) {
  std::vector<GroundTruthEpisode> truth = {
      {1, AnomalyKind::Throttle, 20.0, 26.0, true},
      {2, AnomalyKind::SlowNode, 30.0, 40.0, true},
      {5, AnomalyKind::SlowNode, 10.0, 20.0, false},  // unobservable
  };
  const std::vector<Episode> detections = {
      detection(1, AnomalyKind::Throttle, 22.0, 27.0),   // TP (overlap)
      detection(2, AnomalyKind::SlowNode, 41.0, 44.0),   // TP via slack
      detection(9, AnomalyKind::SlowNode, 5.0, 6.0),     // false positive
  };
  const EvalResult r = evaluate(truth, detections);

  const KindScore& throttle = r.of(AnomalyKind::Throttle);
  EXPECT_EQ(throttle.detected, 1u);
  EXPECT_EQ(throttle.true_positives, 1u);
  EXPECT_DOUBLE_EQ(throttle.precision(), 1.0);
  EXPECT_DOUBLE_EQ(throttle.recall(), 1.0);

  const KindScore& slow = r.of(AnomalyKind::SlowNode);
  EXPECT_EQ(slow.gt_total, 2u);
  EXPECT_EQ(slow.gt_qualifying, 1u);
  EXPECT_EQ(slow.detected, 2u);
  EXPECT_EQ(slow.true_positives, 1u);
  EXPECT_DOUBLE_EQ(slow.precision(), 0.5);
  EXPECT_DOUBLE_EQ(slow.recall(), 1.0);

  // Nothing detected, nothing qualifying: both scores degenerate to 1.
  const KindScore& thermal = r.of(AnomalyKind::ThermalRunaway);
  EXPECT_DOUBLE_EQ(thermal.precision(), 1.0);
  EXPECT_DOUBLE_EQ(thermal.recall(), 1.0);
}

TEST(Eval, CrossKindMatchOnlyWhereSignaturesGenuinelyBlend) {
  // Node 1 has only a SlowNode GT: a Throttle detection there is wrong.
  // Node 2 has overlapping Throttle + SlowNode GT: either label matches.
  const std::vector<GroundTruthEpisode> truth = {
      {1, AnomalyKind::SlowNode, 20.0, 30.0, true},
      {2, AnomalyKind::SlowNode, 20.0, 30.0, true},
      {2, AnomalyKind::Throttle, 22.0, 28.0, true},
  };
  const std::vector<Episode> detections = {
      detection(1, AnomalyKind::Throttle, 21.0, 29.0),
      detection(2, AnomalyKind::Throttle, 21.0, 29.0),
  };
  const EvalResult r = evaluate(truth, detections);
  EXPECT_EQ(r.of(AnomalyKind::Throttle).detected, 2u);
  EXPECT_EQ(r.of(AnomalyKind::Throttle).true_positives, 1u);
  EXPECT_EQ(r.of(AnomalyKind::SlowNode).gt_matched, 1u);  // node 2's, via blend
}

// --------------------------------------------------------------------------
// MonitorFabric end-to-end on a faulted cluster
// --------------------------------------------------------------------------

WorkloadModel cpu_work() {
  WorkloadModel w;
  w.cpu_gcycles = 60.0;
  w.cores_used = 12;
  w.activity = 0.9;
  return w;
}

/// `nodes` single-Xeon nodes (40 W base) on the sharded plant.
std::unique_ptr<rtrm::ShardedCluster> make_cluster(std::size_t nodes) {
  auto c = std::make_unique<rtrm::ShardedCluster>(rtrm::ShardedClusterConfig{});
  const u32 cpu = c->add_spec(DeviceSpec::xeon_haswell());
  for (std::size_t i = 0; i < nodes; ++i) c->add_node(40.0, {{cpu, {}}});
  return c;
}

void submit_long_jobs(rtrm::ShardedCluster& c, std::size_t jobs) {
  for (std::size_t j = 1; j <= jobs; ++j) {
    rtrm::Job job;
    job.id = j;
    job.name = "job" + std::to_string(j);
    job.units = 500.0;  // far longer than any horizon used here
    job.profiles[DeviceType::Cpu] = cpu_work();
    c.submit(std::move(job));
  }
}

fault::FaultSchedule faulted_schedule(double horizon_s) {
  fault::FaultSchedule s;
  s.horizon_s = horizon_s;
  s.events = {
      event(20.0, fault::FaultKind::ThermalThrottle, 2, 0.0, 10.0),
      event(25.0, fault::FaultKind::SensorGlitch, 3, 200.0),
      event(27.0, fault::FaultKind::GlitchClear, 3),
      event(30.0, fault::FaultKind::SlowNode, 5, 2.0),
      event(45.0, fault::FaultKind::SlowNodeEnd, 5),
  };
  return s;
}

std::string run_monitored(int threads, double horizon_s,
                          std::string* health_out) {
  auto cluster = make_cluster(8);
  submit_long_jobs(*cluster, 8);

  FabricConfig cfg;
  cfg.shards = 4;
  MonitorFabric fabric(cfg);
  fabric.attach(*cluster);
  fault::ShardFaultDriver driver(*cluster, faulted_schedule(horizon_s));

  exec::ThreadPool pool(threads);
  cluster->set_pool(&pool);
  cluster->run_for(horizon_s, 0.25);

  const auto gt = ground_truth(driver.schedule(), cfg.sample_period_s);
  const EvalResult r = evaluate(gt, fabric.detector().episodes());
  std::string digest;
  for (std::size_t k = 0; k < kAnomalyKindCount; ++k)
    digest += format("%s p=%.3f r=%.3f d=%llu\n",
                     anomaly_kind_name(static_cast<AnomalyKind>(k)),
                     r.kinds[k].precision(), r.kinds[k].recall(),
                     (unsigned long long)r.kinds[k].detected);
  if (health_out) *health_out = fabric.health_json();
  return digest;
}

TEST(Fabric, DetectsInjectedFaultsWithCleanPrecision) {
  auto cluster = make_cluster(8);
  submit_long_jobs(*cluster, 8);

  FabricConfig cfg;
  cfg.shards = 4;
  MonitorFabric fabric(cfg);
  fabric.attach(*cluster);
  fault::ShardFaultDriver driver(*cluster, faulted_schedule(60.0));
  cluster->run_for(60.0, 0.25);

  // One frame per alive node per 1 s sampling sweep, zero drops.
  EXPECT_GE(fabric.samples(), 58u);
  EXPECT_EQ(fabric.broker().published(), 8 * fabric.samples());
  EXPECT_EQ(fabric.broker().total_dropped(), 0u);
  EXPECT_EQ(fabric.aggregator().frames(), fabric.broker().delivered());

  const auto gt = ground_truth(driver.schedule(), cfg.sample_period_s);
  const EvalResult r = evaluate(gt, fabric.detector().episodes());

  // The injected throttle and slowdown are found, with nothing spurious.
  EXPECT_DOUBLE_EQ(r.of(AnomalyKind::Throttle).recall(), 1.0);
  EXPECT_DOUBLE_EQ(r.of(AnomalyKind::SlowNode).recall(), 1.0);
  for (std::size_t k = 0; k < kAnomalyKindCount; ++k)
    EXPECT_DOUBLE_EQ(r.kinds[k].precision(), 1.0)
        << anomaly_kind_name(static_cast<AnomalyKind>(k));
  // The sensor glitch shows up as a power spike detection (its GT window is
  // too short to qualify for recall, but the detection itself matches it).
  EXPECT_GE(r.of(AnomalyKind::PowerSpike).detected, 1u);
}

TEST(Fabric, HealthJsonCarriesTheDashboardSections) {
  std::string health;
  run_monitored(1, 60.0, &health);
  EXPECT_NE(health.find("\"schema\":\"antarex.monitor.health/v1\""),
            std::string::npos);
  EXPECT_NE(health.find("\"shards\":4"), std::string::npos);
  EXPECT_NE(health.find("\"metrics\":{\"power_w\""), std::string::npos);
  EXPECT_NE(health.find("\"shard_mean\""), std::string::npos);
  EXPECT_NE(health.find("\"ring\""), std::string::npos);
  EXPECT_NE(health.find("\"episodes\":[{"), std::string::npos);
  EXPECT_NE(health.find("\"kind\":\"throttle\""), std::string::npos);
  EXPECT_NE(health.find("\"kind\":\"slow_node\""), std::string::npos);
}

TEST(Fabric, ByteIdenticalAcrossExecThreadCounts) {
  std::string health1, health2, health8;
  const std::string d1 = run_monitored(1, 40.0, &health1);
  const std::string d2 = run_monitored(2, 40.0, &health2);
  const std::string d8 = run_monitored(8, 40.0, &health8);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(d1, d8);
  EXPECT_EQ(health1, health2);
  EXPECT_EQ(health1, health8);
}

TEST(Fabric, DownedNodesStopPublishing) {
  auto cluster = make_cluster(4);
  submit_long_jobs(*cluster, 4);
  MonitorFabric fabric;
  fabric.attach(*cluster);

  fault::FaultSchedule s;
  s.horizon_s = 30.0;
  s.events = {event(10.0, fault::FaultKind::NodeCrash, 0),
              event(20.0, fault::FaultKind::NodeRepair, 0)};
  fault::ShardFaultDriver driver(*cluster, s);
  cluster->run_for(30.0, 0.25);

  // Node 0 was silent for ~10 of ~29 sampling sweeps.
  EXPECT_LT(fabric.broker().published(), 4 * fabric.samples());
  EXPECT_GT(fabric.broker().published(), 3 * fabric.samples());
}

/// Health JSON plus every metric's cluster quantiles at full precision.
std::string fabric_digest(const MonitorFabric& fabric) {
  std::string doc = "health " + fabric.health_json() + "\n";
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    const auto metric = static_cast<Metric>(m);
    doc += format("cluster %s", metric_name(metric));
    for (const double v : fabric.aggregator().cluster_quantiles(
             metric, {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}))
      doc += format(" %.17g", v);
    doc += "\n";
  }
  return doc;
}

/// Twelve single-Xeon nodes (40 W base, 10% variability drawn from seed 15),
/// each running one CPU job far longer than any horizon used here.
rtrm::ClusterBlueprint twelve_node_blueprint() {
  rtrm::ClusterBlueprint bp;
  bp.specs = {DeviceSpec::xeon_haswell()};
  Rng var_rng(15);
  for (int i = 0; i < 12; ++i)
    bp.nodes.push_back({40.0, {{0, power::Variability::sample(var_rng, 0.1)}}});
  return bp;
}

void submit_blueprint_jobs(rtrm::ShardedCluster& cluster) {
  for (u64 j = 1; j <= 12; ++j) {
    rtrm::Job job;
    job.id = j;
    job.name = "job" + std::to_string(j);
    job.units = 500.0;
    job.profiles[DeviceType::Cpu] = cpu_work();
    cluster.submit(std::move(job));
  }
}

constexpr double kBlueprintHorizonS = 130.0;

/// fabric_digest of the twelve-node blueprint on the sharded engine (3 plant
/// shards) over faulted_schedule, monitored with `cfg`.
std::string sharded_blueprint_digest(const FabricConfig& cfg) {
  rtrm::ShardedClusterConfig ccfg;
  ccfg.shards = 3;
  rtrm::ShardedCluster cluster(ccfg);
  twelve_node_blueprint().build(cluster);
  submit_blueprint_jobs(cluster);
  MonitorFabric fabric(cfg);
  fabric.attach(cluster);
  fault::ShardFaultDriver driver(cluster, faulted_schedule(kBlueprintHorizonS));
  cluster.run_for(kBlueprintHorizonS, 0.25);
  return fabric_digest(fabric);
}

std::string read_golden(const std::string& name) {
  const std::string path = std::string(ANTAREX_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// tests/golden/monitor_attach.txt is the fabric_digest the per-object plant
// this repo used to carry published over the same blueprint and schedule,
// through its own attach path and accessors: the sharded attach must
// publish the same frames, so everything downstream of the broker agrees
// byte for byte.
TEST(Fabric, ShardedAttachMatchesPerObjectFixture) {
  const std::string fixture = read_golden("monitor_attach.txt");
  ASSERT_FALSE(fixture.empty()) << "missing fixture monitor_attach.txt";
  FabricConfig cfg;
  cfg.shards = 4;
  EXPECT_EQ(sharded_blueprint_digest(cfg), fixture);
}

// --------------------------------------------------------------------------
// Golden fixture: tests/golden/monitor_health.txt was recorded when the
// monitor's quantile sketch and telemetry's histogram each carried their own
// binning and quantile code. Every later version must reproduce it byte for
// byte.
// --------------------------------------------------------------------------

/// A faulted 12-node run on the sharded engine (3 plant shards, 4 topic
/// shards) long enough to wrap ring level 1, with value ranges narrow enough
/// that the glitch frames clamp into the top bin: the health JSON, then every
/// metric's cluster quantiles at full precision. Then telemetry histograms
/// over seeded samples with out-of-range values on both sides: buckets and
/// approx_quantiles at full precision.
std::string monitor_golden() {
  FabricConfig cfg;
  cfg.shards = 4;
  cfg.aggregator.sketch_bins = 32;
  cfg.aggregator.ring_capacity = 8;
  cfg.aggregator.power_hi_w = 400.0;
  cfg.aggregator.progress_hi_ups = 1.0;
  std::string doc = sharded_blueprint_digest(cfg);

  const telemetry::ScopedEnable on(true);
  for (const u64 seed : {1, 2, 3}) {
    Rng rng(seed);
    const double lo = rng.uniform(-10.0, 10.0);
    const double hi = lo + rng.uniform(1.0, 100.0);
    const std::size_t bins = 3 + rng.index(30);
    telemetry::Histogram h(lo, hi, bins);
    const double span = hi - lo;
    for (int i = 0; i < 200; ++i) h.add(rng.normal(lo + 0.6 * span, 0.4 * span));
    h.add(lo - 1e6);
    h.add(hi + 1e6);
    h.add(hi);
    h.add(lo);
    doc += format("telemetry seed=%llu lo=%.17g hi=%.17g bins=%zu count=%llu buckets",
                  static_cast<unsigned long long>(seed), lo, hi, bins,
                  static_cast<unsigned long long>(h.count()));
    for (std::size_t b = 0; b < h.bins(); ++b)
      doc += format(" %llu", static_cast<unsigned long long>(h.bucket(b)));
    doc += " quantiles";
    for (const double v : h.approx_quantiles({0.0, 0.5, 0.95, 0.99, 1.0}))
      doc += format(" %.17g", v);
    doc += "\n";
  }
  return doc;
}

TEST(MonitorGolden, HealthAndQuantilesMatchFixture) {
  const std::string fixture = read_golden("monitor_health.txt");
  ASSERT_FALSE(fixture.empty()) << "missing fixture monitor_health.txt";
  EXPECT_EQ(monitor_golden(), fixture);
}

// --------------------------------------------------------------------------
// Golden fixture: tests/golden/alert_transitions.txt was recorded when the
// policy engine, the detector's episodes and the SLO tracker each carried
// their own open/close state machine. Every later version must reproduce it
// byte for byte.
// --------------------------------------------------------------------------

std::string episode_line(const Episode& e) {
  return format("episode node=%u shard=%u kind=%s open_t=%.17g close_t=%.17g "
                "peak_z=%.17g samples=%u open=%d\n",
                e.node, static_cast<unsigned>(e.shard),
                anomaly_kind_name(e.kind), e.open_t_s, e.close_t_s, e.peak_z,
                e.samples, e.open ? 1 : 0);
}

std::string detector_counters(const AnomalyDetector& det) {
  return format("detector active=%zu flagged=%llu tracked_overflow=%llu "
                "closed_overflow=%llu closed=%zu\n",
                det.active(),
                static_cast<unsigned long long>(det.flagged_samples()),
                static_cast<unsigned long long>(det.tracked_overflow()),
                static_cast<unsigned long long>(det.closed_overflow()),
                det.closed().size());
}

/// A policy engine ticked over a scripted gauge sequence: a plain policy with
/// on_clear, an actuating policy with cause/effect metrics, and the built-ins.
std::string policy_transitions() {
  auto& reg = telemetry::Registry::global();
  obs::PolicyEngine engine;
  u64 clears = 0;
  engine.add(
      "golden.plain",
      [](const obs::PolicyContext& ctx) {
        const telemetry::Gauge& g = ctx.registry->gauge("golden.signal");
        return g.updates() > 0 && g.last() > 10.0;
      },
      [](const obs::PolicyContext&) {},
      [&clears](const obs::PolicyContext&) { ++clears; });
  obs::PolicyOptions opts;
  opts.cause_metric = "golden.signal";
  opts.effect_metric = "golden.effect";
  const int act = engine.add_actuating(
      "golden.actuate",
      [](const obs::PolicyContext& ctx) {
        const telemetry::Gauge& g = ctx.registry->gauge("golden.signal");
        return g.updates() > 0 && (g.last() > 10.0 || g.last() < 5.0);
      },
      [](const obs::PolicyContext& ctx) {
        const double v = ctx.registry->gauge("golden.signal").last();
        if (v > 10.0) return obs::PolicyAction::Restrict;
        if (v < 5.0) return obs::PolicyAction::Relax;
        return obs::PolicyAction::None;
      },
      opts);
  obs::install_builtin_policies(engine);

  struct Tick {
    double signal, effect, headroom_c, queue_depth;
    u64 phase_bumps;
  };
  const Tick script[] = {
      {7.0, 0.0, 30.0, 10.0, 0},  {12.0, 1.0, 30.0, 10.0, 0},
      {15.0, 2.0, 9.0, 47.0, 1},  {15.0, 3.0, 7.5, 48.0, 0},
      {8.0, 4.0, 7.5, 60.0, 0},   {3.0, 5.0, 8.0, 30.0, 2},
      {2.0, 6.0, 12.0, 30.0, 0},  {11.0, 7.0, 3.0, 48.0, 0},
      {4.0, 8.0, 3.0, 47.9, 1},   {7.0, 9.0, 30.0, 50.0, 0},
      {7.0, 10.0, 30.0, 50.0, 0}, {20.0, 11.0, 1.0, 0.0, 0},
  };
  std::string doc;
  double t = 0.0;
  u64 evaluations = 0;
  for (const Tick& s : script) {
    reg.gauge("golden.signal").set(s.signal);
    reg.gauge("golden.effect").set(s.effect);
    reg.gauge("rtrm.thermal_headroom_c").set(s.headroom_c);
    reg.gauge("nav.queue_depth").set(s.queue_depth);
    if (s.phase_bumps > 0) reg.counter("tuner.phase_changes").add(s.phase_bumps);
    engine.tick(t);
    ++evaluations;
    doc += format(
        "tick t=%g plain=%llu clears=%llu actuate=%llu restricts=%llu "
        "relaxes=%llu thermal=%llu phase=%llu backpressure=%llu "
        "backpressure_gauge=%g evaluations=%llu\n",
        t, static_cast<unsigned long long>(engine.fires("golden.plain")),
        static_cast<unsigned long long>(clears),
        static_cast<unsigned long long>(engine.fires("golden.actuate")),
        static_cast<unsigned long long>(engine.restricts(act)),
        static_cast<unsigned long long>(
            reg.counter("obs.policy_actions.relax").value()),
        static_cast<unsigned long long>(engine.fires("thermal.throttle_alert")),
        static_cast<unsigned long long>(engine.fires("tuner.phase_change")),
        static_cast<unsigned long long>(engine.fires("nav.backpressure")),
        reg.gauge("nav.backpressure").last(),
        static_cast<unsigned long long>(evaluations));
    t += 1.0;
  }
  return doc;
}

/// A two-shard detector fed hand-built frames covering every episode shape,
/// then a one-shard detector pushed one node past the tracked-node cap.
std::string detector_transitions() {
  std::string doc;
  AnomalyDetector det(2);
  double t = 0.0;
  // Shard 1 warms up on absurd readings: nothing is judged yet.
  for (int i = 0; i < 4; ++i)
    det.observe(make_frame(t++, 1, 1, 900.0f, 120.0f, 1.0f, 0.01f));
  doc += detector_counters(det);
  warm_up(det, &t);
  auto feed = [&](u32 node, float p, float temp, float g) {
    det.observe(make_frame(t++, node, 0, p, temp, 1.0f, g));
  };
  // One-sample power spike, closed by three quiet samples.
  feed(2, 600.0f, kT, kG);
  for (int i = 0; i < 3; ++i) feed(2, kP, kT, kG);
  // Throttle and slow-node episodes.
  for (int i = 0; i < 4; ++i) feed(3, 55.0f, kT, 0.3f);
  for (int i = 0; i < 3; ++i) feed(3, kP, kT, kG);
  for (int i = 0; i < 3; ++i) feed(4, kP, kT, 0.3f);
  for (int i = 0; i < 3; ++i) feed(4, kP, kT, kG);
  doc += detector_counters(det);
  // A flag run interrupted by a quiet sample restarts its count.
  feed(5, kP, 95.0f, kG);
  feed(5, kP, kT, kG);
  feed(5, kP, 96.0f, kG);
  doc += detector_counters(det);
  feed(5, kP, 97.0f, kG);
  // A quiet run interrupted by a flag restarts the close count.
  feed(5, kP, kT, kG);
  feed(5, kP, kT, kG);
  feed(5, kP, 98.0f, kG);
  feed(5, kP, kT, kG);
  feed(5, kP, kT, kG);
  doc += detector_counters(det);
  feed(5, kP, kT, kG);
  // Re-open after a close; the second episode stays open.
  feed(7, 650.0f, kT, kG);
  for (int i = 0; i < 3; ++i) feed(7, kP, kT, kG);
  feed(7, 700.0f, kT, kG);
  feed(7, 720.0f, kT, kG);
  // A spike's quiet run interrupted by a second spike keeps one episode.
  feed(9, 630.0f, kT, kG);
  feed(9, kP, kT, kG);
  feed(9, kP, kT, kG);
  doc += detector_counters(det);
  feed(9, 660.0f, kT, kG);
  for (int i = 0; i < 3; ++i) feed(9, kP, kT, kG);
  doc += detector_counters(det);
  // Idle samples count as quiet.
  feed(8, 610.0f, kT, kG);
  for (int i = 0; i < 3; ++i)
    det.observe(make_frame(t++, 8, 0, 0.0f, 30.0f, 0.0f, 0.0f));
  doc += detector_counters(det);
  for (const Episode& e : det.episodes()) doc += episode_line(e);
  doc += "ledger " + causal::DecisionLedger::global().json() + "\n";
  causal::DecisionLedger::global().clear();

  // 1,025 flagged nodes against the 1,024-node tracked cap.
  AnomalyDetector capped(1);
  double tc = 0.0;
  warm_up(capped, &tc);
  for (u32 n = 100; n < 100 + 1025; ++n)
    capped.observe(make_frame(tc, n, 0, 600.0f, kT, 1.0f, kG));
  tc += 1.0;
  doc += detector_counters(capped);
  for (int i = 0; i < 3; ++i, tc += 1.0)
    for (u32 n = 100; n < 100 + 1025; ++n)
      capped.observe(make_frame(tc, n, 0, kP, kT, 1.0f, kG));
  doc += detector_counters(capped);
  capped.observe(make_frame(tc, 100 + 1024, 0, 640.0f, kT, 1.0f, kG));
  doc += detector_counters(capped);
  const std::vector<Episode> eps = capped.episodes();
  for (const std::size_t i : {std::size_t{0}, std::size_t{1}, eps.size() - 2,
                              eps.size() - 1})
    doc += episode_line(eps[i]);
  causal::DecisionLedger::global().clear();
  return doc;
}

/// An SLO tracker's burn alerts across publishes, one of them with telemetry
/// off (no state change).
std::string slo_transitions() {
  causal::SloTracker slo({{"fast", 0.1, 0.1}, {"slow", 1.0, 0.25}}, 8);
  auto& reg = telemetry::Registry::global();
  struct Batch {
    int fast_ok, fast_bad, slow_ok, slow_bad;
    bool enabled;
  };
  const Batch script[] = {
      {8, 0, 8, 0, true}, {6, 2, 8, 0, true}, {8, 0, 6, 2, true},
      {0, 3, 0, 3, true}, {0, 1, 0, 1, true}, {8, 0, 8, 0, true},
      {0, 2, 8, 0, false}, {0, 0, 0, 0, true}, {8, 0, 0, 8, true},
      {1, 1, 2, 2, true},
  };
  std::string doc;
  for (const Batch& b : script) {
    for (int i = 0; i < b.fast_ok; ++i) slo.observe(0, 0.05);
    for (int i = 0; i < b.fast_bad; ++i) slo.observe(0, 0.5);
    for (int i = 0; i < b.slow_ok; ++i) slo.observe(1, 0.5);
    for (int i = 0; i < b.slow_bad; ++i) slo.observe(1, 5.0);
    {
      const telemetry::ScopedEnable gate(b.enabled);
      slo.publish();
    }
    doc += format("publish enabled=%d alerts=%llu fast_burn=%.17g "
                  "slow_burn=%.17g\n",
                  b.enabled ? 1 : 0,
                  static_cast<unsigned long long>(
                      reg.counter("causal.slo.alerts").value()),
                  slo.status(0).burn_rate, slo.status(1).burn_rate);
  }
  return doc;
}

std::string alert_golden() {
  const telemetry::ScopedEnable on(true);
  telemetry::Registry::global().reset();
  causal::DecisionLedger::global().clear();
  std::string doc = policy_transitions();
  doc += "ledger " + causal::DecisionLedger::global().json() + "\n";
  causal::DecisionLedger::global().clear();
  doc += detector_transitions();
  doc += slo_transitions();
  telemetry::Registry::global().reset();
  return doc;
}

TEST(AlertGolden, TransitionsMatchFixture) {
  const std::string fixture = read_golden("alert_transitions.txt");
  ASSERT_FALSE(fixture.empty()) << "missing fixture alert_transitions.txt";
  EXPECT_EQ(alert_golden(), fixture);
}

// --------------------------------------------------------------------------
// Closing the loop: governance
// --------------------------------------------------------------------------

TEST(Fabric, FeedGovernanceShavesAndRestoresNodeWeight) {
  rtrm::ShardedCluster cluster;
  const u32 cpu = cluster.add_spec(power::DeviceSpec::xeon_haswell());
  for (int i = 0; i < 2; ++i) cluster.add_node(40.0, {{cpu, {}}});
  govern::ShardedCapConfig gcfg;
  gcfg.cluster_cap_w = 500.0;
  govern::ShardedCapCoordinator coordinator(cluster, gcfg);

  FabricConfig cfg;
  cfg.shards = 1;
  MonitorFabric fabric(cfg);
  feed_governance(fabric, coordinator, 0.25);

  AnomalyDetector& det = fabric.detector();
  double t = 0.0;
  warm_up(det, &t);
  // A throttle on node 1 shaves its share; recovery restores it.
  for (int i = 0; i < 2; ++i)
    det.observe(make_frame(t++, 1, 0, 55.0f, kT, 1.0f, 0.3f));
  EXPECT_DOUBLE_EQ(coordinator.node_weight(1), 0.25);
  EXPECT_DOUBLE_EQ(coordinator.node_weight(0), 1.0);
  for (int i = 0; i < 3; ++i)
    det.observe(make_frame(t++, 1, 0, kP, kT, 1.0f, kG));
  EXPECT_DOUBLE_EQ(coordinator.node_weight(1), 1.0);

  // A sensor glitch (PowerSpike) is a broken reading, not a broken node:
  // its episodes never touch the weights.
  det.observe(make_frame(t++, 0, 0, 600.0f, kT, 1.0f, kG));
  EXPECT_EQ(det.active(), 1u);
  EXPECT_DOUBLE_EQ(coordinator.node_weight(0), 1.0);
}

}  // namespace
}  // namespace antarex::monitor
