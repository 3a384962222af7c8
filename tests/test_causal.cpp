// Tests for antarex::causal and the trace-context identity layer under it:
// deterministic id derivation, context propagation through ScopedSpan and
// the exec pool (async, async_retry, parallel_for, TaskGroup), flow-event
// export (golden Chrome trace), queue-wait accounting in exec::PoolStats,
// per-request tree reconstruction with orphan detection, latency
// decomposition, the SLO tracker, the decision ledger, and the
// obs::PolicyEngine provenance integration — closing with the nav
// serve_concurrent acceptance scenario: causally complete trees whose
// decomposition sums to each request's wall time, byte-identical across
// 1/2/8 workers.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <future>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "causal/causal.hpp"
#include "exec/pool.hpp"
#include "nav/nav.hpp"
#include "nav/server.hpp"
#include "obs/policy.hpp"
#include "support/rng.hpp"
#include "telemetry/telemetry.hpp"

namespace antarex::causal {
namespace {

using telemetry::ContextScope;
using telemetry::Registry;
using telemetry::TraceContext;
using telemetry::TraceEvent;

// Deterministic timestamp source: +1us per call.
u64 g_fake_ns = 0;
u64 fake_now_ns() { return g_fake_ns += 1000; }

class CausalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::global().reset();
    telemetry::set_enabled(true);
    DecisionLedger::global().clear();
  }
  void TearDown() override {
    telemetry::set_enabled(false);
    Registry::global().trace().set_now_fn(nullptr);
    Registry::global().reset();
    DecisionLedger::global().clear();
  }
};

// --------------------------------------------------------------------------
// Identity derivation
// --------------------------------------------------------------------------

TEST_F(CausalTest, IdsAreDerivedAndCollisionFree) {
  const TraceContext root = TraceContext::root(42);
  EXPECT_TRUE(root.active());
  EXPECT_EQ(root.parent_id, 0u);
  // Pure function of the trace id: same input, same tree.
  EXPECT_EQ(root.span_id, TraceContext::root(42).span_id);
  EXPECT_NE(root.span_id, TraceContext::root(43).span_id);

  // Span children and task children occupy disjoint key spaces: the first
  // 64 of each under one parent never collide.
  std::set<u64> ids;
  for (u64 slot = 0; slot < 64; ++slot) {
    ids.insert(root.child(slot).span_id);
    ids.insert(root.child_task(slot).span_id);
  }
  EXPECT_EQ(ids.size(), 128u);
  EXPECT_EQ(root.child(3).parent_id, root.span_id);
  EXPECT_EQ(root.child_task(3).trace_id, root.trace_id);

  const TraceContext none;
  EXPECT_FALSE(none.active());
}

TEST_F(CausalTest, ForkRequiresACurrentContext) {
  // No frame installed: fork is inactive and emits nothing.
  EXPECT_FALSE(telemetry::fork_context().active());
  EXPECT_EQ(Registry::global().trace().size(), 0u);

  const TraceContext root = TraceContext::root(7);
  {
    ContextScope scope(root);  // emits the 'F' adopt mark
    const TraceContext forked = telemetry::fork_context();  // emits 'S'
    EXPECT_TRUE(forked.active());
    EXPECT_EQ(forked.trace_id, root.trace_id);
    EXPECT_EQ(forked.parent_id, root.span_id);
    // Slots advance: the next fork gets a different identity.
    EXPECT_NE(telemetry::fork_context().span_id, forked.span_id);
  }
  EXPECT_FALSE(telemetry::fork_context().active());  // scope popped

  const std::vector<TraceEvent> events =
      Registry::global().trace().snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].phase, 'F');
  EXPECT_EQ(events[1].phase, 'S');
  EXPECT_EQ(events[2].phase, 'S');
}

TEST_F(CausalTest, ScopedSpansInheritAndStampIds) {
  const TraceContext root = TraceContext::root(9);
  {
    ContextScope scope(root);
    TELEMETRY_SPAN("outer");
    { TELEMETRY_SPAN("inner"); }
  }
  const std::vector<TraceEvent> events =
      Registry::global().trace().snapshot();
  ASSERT_EQ(events.size(), 5u);  // F, B outer, B inner, E inner, E outer
  const TraceEvent& outer_b = events[1];
  const TraceEvent& inner_b = events[2];
  EXPECT_EQ(outer_b.phase, 'B');
  EXPECT_EQ(outer_b.trace_id, 9u);
  EXPECT_EQ(outer_b.parent_id, root.span_id);
  EXPECT_EQ(outer_b.span_id, root.child(0).span_id);
  EXPECT_EQ(inner_b.parent_id, outer_b.span_id);
  // The E events carry the same identity as their B.
  EXPECT_EQ(events[3].span_id, inner_b.span_id);
  EXPECT_EQ(events[4].span_id, outer_b.span_id);
}

TEST_F(CausalTest, SpansOutsideAnyContextStayIdLess) {
  { TELEMETRY_SPAN("plain"); }
  const std::vector<TraceEvent> events =
      Registry::global().trace().snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].trace_id, 0u);
  EXPECT_EQ(events[0].span_id, 0u);
}

// --------------------------------------------------------------------------
// Pool propagation: async, async_retry, TaskGroup
// --------------------------------------------------------------------------

TEST_F(CausalTest, AsyncPropagatesAcrossThePool) {
  exec::ThreadPool pool(2);
  const TraceContext root = TraceContext::root(5);
  telemetry::mark_scheduled(root);
  pool.async([root] {
      telemetry::ContextScope scope(root);
      TELEMETRY_SPAN("req");
      { TELEMETRY_SPAN("compute"); }
    }).get();

  const TraceForest forest = TraceForest::from_registry();
  ASSERT_EQ(forest.trees().size(), 1u);
  const RequestTree& tree = forest.trees()[0];
  EXPECT_TRUE(tree.complete());
  EXPECT_EQ(tree.trace_id, 5u);
  EXPECT_EQ(tree.spans.size(), 2u);
  EXPECT_NE(tree.sched_ns, 0u);  // admission mark survived reconstruction
  ASSERT_NE(tree.root, static_cast<std::size_t>(SIZE_MAX));
  EXPECT_STREQ(tree.spans[tree.root].name, "req");
}

TEST_F(CausalTest, ForkedTasksChainThroughRetriesAndGroups) {
  exec::ThreadPool pool(2);
  const TraceContext root = TraceContext::root(6);
  {
    ContextScope scope(root);
    TELEMETRY_SPAN("req");
    // submit()/async/async_retry/TaskGroup all fork from the current frame;
    // each spawned task adopts the forked context on its worker.
    pool.async([] { TELEMETRY_SPAN("a"); }).get();
    pool.async_retry([] { TELEMETRY_SPAN("b"); }, 2).get();
    exec::TaskGroup group(pool);
    group.run([] { TELEMETRY_SPAN("c"); });
    group.wait();
  }
  const TraceForest forest = TraceForest::from_registry();
  ASSERT_EQ(forest.trees().size(), 1u);
  const RequestTree& tree = forest.trees()[0];
  EXPECT_TRUE(tree.complete()) << forest.structure();
  EXPECT_EQ(tree.spans.size(), 4u);  // req + a + b + c, all one tree
  EXPECT_EQ(tree.orphans, 0u);
}

TEST_F(CausalTest, ParallelForChunksInheritTheCallersContext) {
  exec::ThreadPool pool(4);
  const TraceContext root = TraceContext::root(8);
  {
    ContextScope scope(root);
    TELEMETRY_SPAN("req");
    pool.parallel_for(64, 8, [](std::size_t, std::size_t) {
      TELEMETRY_SPAN("chunk");
    });
  }
  const TraceForest forest = TraceForest::from_registry();
  ASSERT_EQ(forest.trees().size(), 1u);
  EXPECT_TRUE(forest.trees()[0].complete()) << forest.structure();
  // req + exec.parallel_for + 8 chunks.
  EXPECT_EQ(forest.trees()[0].spans.size(), 10u);
}

// --------------------------------------------------------------------------
// Queue-wait accounting (exec::PoolStats + exec.queue_wait_us)
// --------------------------------------------------------------------------

TEST_F(CausalTest, PoolMeasuresSubmitToStartQueueWait) {
  exec::ThreadPool pool(2);
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i)
    futures.push_back(pool.async([] {
      volatile double acc = 0.0;
      for (int k = 0; k < 1000; ++k) acc = acc + static_cast<double>(k);
      (void)acc;
    }));
  for (auto& f : futures) f.get();

  const exec::PoolStats stats = pool.stats();
  EXPECT_EQ(stats.waited_tasks, 64u);
  EXPECT_GT(stats.queue_wait_total_s, 0.0);
  EXPECT_GE(stats.queue_wait_max_s, stats.mean_queue_wait_s());
  // The histogram (p50/p95/p99 surface) saw every task too.
  const auto& hist =
      Registry::global().histogram("exec.queue_wait_us", 0.0, 10000.0, 64);
  EXPECT_EQ(hist.count(), 64u);

  pool.reset_stats();
  EXPECT_EQ(pool.stats().waited_tasks, 0u);
  EXPECT_EQ(pool.stats().queue_wait_total_s, 0.0);
}

// --------------------------------------------------------------------------
// Chrome-trace export: span args + flow events (golden file)
// --------------------------------------------------------------------------

TEST_F(CausalTest, ChromeFlowTraceGolden) {
  g_fake_ns = 0;
  Registry::global().trace().set_now_fn(&fake_now_ns);
  const TraceContext root = TraceContext::root(1);
  telemetry::mark_scheduled(root);  // 'S' -> ph:"s" flow start
  {
    ContextScope scope(root);  // 'F' -> ph:"f" flow finish
    TELEMETRY_SPAN("req");     // B/E with trace_id/span_id/parent_id args
    { TELEMETRY_SPAN("compute"); }
  }
  const std::string json = telemetry::chrome_trace_json();
  // Ids are derived (SplitMix64 of the trace id) and the clock is fake, so
  // the export is byte-stable — the golden fixture asserts exactly that.
  const std::string path =
      std::string(ANTAREX_GOLDEN_DIR) + "/chrome_flow_trace.json";
  if (const char* update = std::getenv("ANTAREX_UPDATE_GOLDEN");
      update && update[0] == '1') {
    std::ofstream out(path, std::ios::binary);
    out << json;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream fixture;
  fixture << in.rdbuf();
  ASSERT_FALSE(fixture.str().empty())
      << "missing fixture " << path << " (run with ANTAREX_UPDATE_GOLDEN=1)";
  EXPECT_EQ(json, fixture.str());
  // Structural spot checks so a regenerated fixture cannot silently lose
  // the causal payload.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":\"1\""), std::string::npos);
  EXPECT_NE(json.find("\"parent_id\""), std::string::npos);
}

// --------------------------------------------------------------------------
// Reconstruction: orphans, decomposition
// --------------------------------------------------------------------------

TEST_F(CausalTest, OrphanSpansAreCountedNeverAttached) {
  std::vector<TraceEvent> events;
  const TraceContext root = TraceContext::root(3);
  const TraceContext child = root.child(0);
  events.push_back({"req", 1000, 'B', root.trace_id, root.span_id, 0});
  events.push_back(
      {"ok", 2000, 'B', child.trace_id, child.span_id, child.parent_id});
  events.push_back(
      {"ok", 3000, 'E', child.trace_id, child.span_id, child.parent_id});
  // A span whose parent id resolves to nothing in the tree: orphan.
  events.push_back({"lost", 4000, 'B', root.trace_id, 0xdeadbeefULL, 0xbadcafeULL});
  events.push_back({"lost", 5000, 'E', root.trace_id, 0xdeadbeefULL, 0xbadcafeULL});
  events.push_back({"req", 6000, 'E', root.trace_id, root.span_id, 0});

  const TraceForest forest = TraceForest::from_events(events);
  ASSERT_EQ(forest.trees().size(), 1u);
  const RequestTree& tree = forest.trees()[0];
  EXPECT_EQ(tree.orphans, 1u);
  EXPECT_FALSE(tree.complete());
  EXPECT_FALSE(forest.complete());
  EXPECT_NE(forest.structure().find("orphan"), std::string::npos);
}

TEST_F(CausalTest, DecomposesAHandBuiltTree) {
  // Root context R (marks only, never a span) scheduled at t0 and adopted
  // 5us later; req [t0+5, t0+100] with compute [t0+10, t0+40], nav.stale
  // [t0+40, t0+50], and a subtask forked at t0+55, adopted at t0+60, whose
  // compute runs [t0+60, t0+90].
  std::vector<TraceEvent> events;
  const TraceContext R = TraceContext::root(2);
  const TraceContext req = R.child(0);
  const TraceContext c1 = req.child(0);
  const TraceContext c2 = req.child(1);
  const TraceContext t1 = req.child_task(0);
  const TraceContext sub = t1.child(0);
  const u64 us = 1000;
  const u64 t0 = 100 * us;  // nonzero: ts 0 would read as "no mark"
  events.push_back({"sched", t0, 'S', R.trace_id, R.span_id, 0});
  events.push_back({"sched", t0 + 5 * us, 'F', R.trace_id, R.span_id, 0});
  events.push_back(
      {"req", t0 + 5 * us, 'B', req.trace_id, req.span_id, req.parent_id});
  events.push_back(
      {"compute", t0 + 10 * us, 'B', c1.trace_id, c1.span_id, c1.parent_id});
  events.push_back(
      {"compute", t0 + 40 * us, 'E', c1.trace_id, c1.span_id, c1.parent_id});
  events.push_back({"nav.stale", t0 + 40 * us, 'B', c2.trace_id, c2.span_id,
                    c2.parent_id});
  events.push_back({"nav.stale", t0 + 50 * us, 'E', c2.trace_id, c2.span_id,
                    c2.parent_id});
  // Forked hop: 'S' from the submitting frame, 'F' on the (virtual) worker,
  // then the task's own span parented to the forked context.
  events.push_back(
      {"fork", t0 + 55 * us, 'S', t1.trace_id, t1.span_id, t1.parent_id});
  events.push_back(
      {"fork", t0 + 60 * us, 'F', t1.trace_id, t1.span_id, t1.parent_id});
  events.push_back(
      {"compute", t0 + 60 * us, 'B', sub.trace_id, sub.span_id, sub.parent_id});
  events.push_back(
      {"compute", t0 + 90 * us, 'E', sub.trace_id, sub.span_id, sub.parent_id});
  events.push_back(
      {"req", t0 + 100 * us, 'E', req.trace_id, req.span_id, req.parent_id});

  const TraceForest forest = TraceForest::from_events(events);
  ASSERT_EQ(forest.trees().size(), 1u);
  const RequestTree& tree = forest.trees()[0];
  EXPECT_TRUE(tree.complete()) << forest.structure();
  ASSERT_NE(tree.root, static_cast<std::size_t>(SIZE_MAX));
  EXPECT_EQ(tree.sched_ns, t0);           // the root 'S' mark
  EXPECT_EQ(tree.adopt_ns, t0 + 5 * us);  // the root 'F' mark
  EXPECT_EQ(tree.spans.size(), 4u);       // req, compute x2, nav.stale

  const Decomposition d = decompose(tree);
  EXPECT_NEAR(d.total_s, 100e-6, 1e-12);   // sched -> req end
  EXPECT_NEAR(d.queue_wait_s, 5e-6, 1e-12);
  EXPECT_NEAR(d.compute_s, 60e-6, 1e-12);  // [10,40] + [60,90]
  EXPECT_NEAR(d.cache_hit_s, 10e-6, 1e-12);  // nav.stale
  // req self-time: 95 - 30 - 10 - 30 = 25us -> "other" (interior span).
  EXPECT_NEAR(d.other_s, 25e-6, 1e-12);
  EXPECT_NEAR(d.sum(), d.total_s, 1e-12);  // sequential tree: exact
}

// --------------------------------------------------------------------------
// SLO tracker
// --------------------------------------------------------------------------

TEST_F(CausalTest, SloTrackerAccountsBudgetsAndBurn) {
  SloTracker slo({{"gold", 0.1, 0.1}}, 10);
  for (int i = 0; i < 8; ++i) slo.observe(0, 0.05);  // within target
  TierStatus st = slo.status(0);
  EXPECT_EQ(st.total, 8u);
  EXPECT_EQ(st.violations, 0u);
  EXPECT_DOUBLE_EQ(st.attainment, 1.0);
  EXPECT_DOUBLE_EQ(st.budget_remaining, 1.0);
  EXPECT_FALSE(st.burning);

  for (int i = 0; i < 2; ++i) slo.observe(0, 0.5);  // violations
  st = slo.status(0);
  EXPECT_EQ(st.violations, 2u);
  EXPECT_NEAR(st.attainment, 0.8, 1e-12);
  // 20% violations against a 10% allowance: budget gone, burning at 2x.
  EXPECT_NEAR(st.budget_remaining, -1.0, 1e-12);
  EXPECT_NEAR(st.burn_rate, 2.0, 1e-12);
  EXPECT_TRUE(st.burning);

  // publish() mirrors the figures into gauges and counts the alert edge.
  slo.publish();
  auto& reg = Registry::global();
  EXPECT_NEAR(reg.gauge("causal.slo.gold.burn_rate").last(), 2.0, 1e-12);
  EXPECT_NEAR(reg.gauge("causal.slo.gold.attainment").last(), 0.8, 1e-12);
  EXPECT_EQ(reg.counter("causal.slo.alerts").value(), 1u);
  slo.publish();  // still burning: no new edge
  EXPECT_EQ(reg.counter("causal.slo.alerts").value(), 1u);
}

// --------------------------------------------------------------------------
// Decision ledger
// --------------------------------------------------------------------------

TEST_F(CausalTest, LedgerRecordsAndLinksEffects) {
  DecisionLedger ledger(4);
  DecisionRecord r;
  r.t_s = 1.5;
  r.actor = "test.actor";
  r.action = "restrict:nav";
  r.cause = "p95=0.7";
  r.cause_value = 0.7;
  const u64 seq = ledger.record(r);
  EXPECT_EQ(seq, 1u);
  ledger.note_effect(seq, "p95=0.4", 0.4);

  const std::vector<DecisionRecord> snap = ledger.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_TRUE(snap[0].has_effect);
  EXPECT_EQ(snap[0].effect, "p95=0.4");

  const std::string json = ledger.json();
  EXPECT_NE(json.find("\"schema\":\"antarex.causal.decisions/v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"action\":\"restrict:nav\""), std::string::npos);
  EXPECT_NE(json.find("\"effect\":\"p95=0.4\""), std::string::npos);
  EXPECT_NE(ledger.timeline().find("restrict:nav"), std::string::npos);

  // Bounded: the 5th record drops, is counted, and returns seq 0.
  for (int i = 0; i < 3; ++i) EXPECT_NE(ledger.record(DecisionRecord{}), 0u);
  EXPECT_EQ(ledger.record(DecisionRecord{}), 0u);
  EXPECT_EQ(ledger.dropped(), 1u);
  // note_effect on the sentinel 0 is a no-op, never a crash.
  ledger.note_effect(0, "x", 0.0);
}

TEST_F(CausalTest, PolicyEngineWritesProvenance) {
  auto& reg = Registry::global();
  reg.gauge("test.pressure").set(9.0);
  reg.gauge("test.outcome").set(1.0);

  obs::PolicyEngine engine;
  obs::PolicyOptions opts;
  opts.cause_metric = "test.pressure";
  opts.effect_metric = "test.outcome";
  engine.add_actuating(
      "test.provenance",
      [](const obs::PolicyContext& ctx) {
        return ctx.registry->gauge("test.pressure").last() > 5.0;
      },
      [](const obs::PolicyContext&) { return obs::PolicyAction::Restrict; },
      opts);

  engine.tick(1.0);  // fires: records the decision with its cause
  reg.gauge("test.outcome").set(0.25);
  reg.gauge("test.pressure").set(1.0);
  engine.tick(2.0);  // next evaluation: attaches the observed effect

  const std::vector<DecisionRecord> snap =
      DecisionLedger::global().snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].actor, "policy.test.provenance");
  EXPECT_EQ(snap[0].action, "actuate:restrict");
  EXPECT_NE(snap[0].cause.find("test.pressure=9"), std::string::npos);
  ASSERT_TRUE(snap[0].has_effect);
  EXPECT_NE(snap[0].effect.find("test.outcome=0.25"), std::string::npos);
}

// --------------------------------------------------------------------------
// Acceptance: nav serve_concurrent builds complete, decomposable,
// thread-count-invariant request trees.
// --------------------------------------------------------------------------

struct NavForestRun {
  std::size_t requests = 0;
  std::string structure;
  std::size_t orphans = 0;
  bool complete = false;
  double worst_decomposition_err = 0.0;
};

NavForestRun run_nav_forest(int threads) {
  Registry::global().reset();
  telemetry::set_enabled(true);
  Rng rng(21);
  nav::RoadGraph city = nav::RoadGraph::grid_city(rng, 16, 16);
  nav::SpeedProfiles profiles;
  nav::NavServer server(city, profiles, 5e-5, 1);
  Rng req_rng(22);
  const auto requests =
      nav::diurnal_requests(req_rng, city, 600.0, 0.2, 0.4, 8 * 3600.0);
  exec::ThreadPool pool(threads);
  server.serve_concurrent(
      pool, requests,
      [](std::size_t backlog, double) {
        return nav::ServerKnobs{{true, backlog > 4 ? 3.0 : 1.0}, 1};
      },
      8);
  const TraceForest forest = TraceForest::from_registry();
  NavForestRun run;
  run.requests = requests.size();
  run.structure = forest.structure();
  run.orphans = forest.total_orphans();
  run.complete =
      forest.complete() && forest.trees().size() == requests.size();
  for (const RequestTree& tree : forest.trees()) {
    if (tree.root == SIZE_MAX) continue;
    const Decomposition d = decompose(tree);
    if (d.total_s <= 0.0) continue;
    run.worst_decomposition_err =
        std::max(run.worst_decomposition_err,
                 std::abs(d.sum() - d.total_s) / d.total_s);
  }
  telemetry::set_enabled(false);
  return run;
}

TEST_F(CausalTest, NavServeConcurrentBuildsCompleteTrees) {
  const NavForestRun ref = run_nav_forest(1);
  ASSERT_GT(ref.requests, 20u);
  EXPECT_TRUE(ref.complete);
  EXPECT_EQ(ref.orphans, 0u);
  // Latency decomposition sums to the request wall time within 1%.
  EXPECT_LE(ref.worst_decomposition_err, 0.01);

  for (int threads : {2, 8}) {
    const NavForestRun run = run_nav_forest(threads);
    EXPECT_TRUE(run.complete) << threads << " workers";
    EXPECT_EQ(run.orphans, 0u);
    EXPECT_LE(run.worst_decomposition_err, 0.01);
    EXPECT_EQ(run.structure, ref.structure)
        << "request trees differ between 1 and " << threads << " workers";
  }
}

}  // namespace
}  // namespace antarex::causal
