// antarex::obs: energy attribution conservation, the APEX-style policy
// engine's edge-triggering, the built-in stack policies, and the HTML report.
#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "exec/pool.hpp"
#include "power/rapl.hpp"
#include "support/json.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace antarex;
using namespace antarex::obs;

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::set_enabled(true);
    telemetry::Registry::global().reset();
    SpanTracker::global().uninstall();
    SpanTracker::global().set_policy_engine(nullptr);
    SpanTracker::global().clear();
  }
  void TearDown() override {
    SpanTracker::global().uninstall();
    SpanTracker::global().set_policy_engine(nullptr);
    SpanTracker::global().clear();
    telemetry::set_enabled(false);
  }
};

// --- attribution ------------------------------------------------------------

// The by-leaf table as the attribution dump reports it.
std::vector<AttributionRow> leaf_rows(const EnergyAccountant& acc) {
  const JsonValue dump = parse_json(acc.json());
  std::vector<AttributionRow> rows;
  for (const JsonValue& r : dump.get("by_leaf")->as_array()) {
    AttributionRow row;
    row.key = r.get("span")->as_string();
    row.joules = r.get("joules")->as_number();
    rows.push_back(row);
  }
  return rows;
}

// Single-thread staircase with exact-microjoule amounts: every joule lands on
// the row dictated by the open-span stack at sample time, exactly.
TEST_F(ObsTest, ApportionsEnergyToTheOpenSpanStack) {
  power::RaplDomain pkg("pkg-test");
  EnergyAccountant acc(EnergyAccountant::Options{0.5});
  acc.add_domain(&pkg);
  acc.install();

  acc.sample(0.0);  // priming: baseline only, attributes nothing
  {
    TELEMETRY_SPAN("phase.A");
    pkg.accumulate(20.0, 0.5);  // 10 J, exact in uJ
    acc.sample(0.5);
    {
      TELEMETRY_SPAN("leaf.B");
      pkg.accumulate(40.0, 0.5);  // 20 J
      acc.sample(1.0);
    }
  }
  pkg.accumulate(10.0, 0.5);  // 5 J with nothing open
  acc.sample(1.5);
  acc.uninstall();

  const std::vector<AttributionRow> leaf = leaf_rows(acc);
  ASSERT_EQ(leaf.size(), 3u);
  // Sorted joules-desc: leaf.B 20, phase.A 10, unattributed 5.
  EXPECT_EQ(leaf[0].key, "leaf.B");
  EXPECT_DOUBLE_EQ(leaf[0].joules, 20.0);
  EXPECT_EQ(leaf[1].key, "phase.A");
  EXPECT_DOUBLE_EQ(leaf[1].joules, 10.0);
  EXPECT_EQ(leaf[2].key, "(unattributed)");
  EXPECT_DOUBLE_EQ(leaf[2].joules, 5.0);

  // By phase, the outermost span owns the nested interval too: A = 30.
  const std::vector<AttributionRow> phase = acc.by_phase().rows();
  ASSERT_EQ(phase.size(), 2u);
  EXPECT_EQ(phase[0].key, "phase.A");
  EXPECT_DOUBLE_EQ(phase[0].joules, 30.0);
  EXPECT_DOUBLE_EQ(phase[1].joules, 5.0);

  EXPECT_DOUBLE_EQ(acc.attributed_joules(), 35.0);
  EXPECT_EQ(acc.samples(), 3u);
}

TEST_F(ObsTest, PreBaselineEnergyBelongsToNobody) {
  power::RaplDomain pkg("pkg-test");
  pkg.accumulate(100.0, 1.0);  // burned before the accountant ever looked
  EnergyAccountant acc;
  acc.add_domain(&pkg);
  acc.install();
  acc.sample(0.0);
  acc.sample(0.25);  // no accumulate in between: zero joules to attribute
  acc.uninstall();
  EXPECT_DOUBLE_EQ(acc.attributed_joules(), 0.0);
}

// Conservation under real pool concurrency: blocking tasks hold exec.task
// spans open across samples, and every sampled joule must land in the tables
// regardless of how the split goes. Runs at 1, 2, and 8 workers.
class ConservationTest : public ObsTest,
                         public ::testing::WithParamInterface<int> {};

TEST_P(ConservationTest, AttributedJoulesSumToDomainTotal) {
  const int workers = GetParam();
  power::RaplDomain pkg("pkg-test");
  EnergyAccountant acc;
  acc.add_domain(&pkg);
  acc.install();

  exec::ThreadPool pool(workers);

  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  bool release = false;
  for (int i = 0; i < workers; ++i) {
    pool.submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      ++started;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    });
  }
  {
    // Until every worker sits inside its exec.task span, sampled energy may
    // be split between fewer contexts — conserved either way, but waiting
    // makes the worker-count assertion below meaningful.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started == workers; });
  }

  acc.sample(0.0);  // prime
  double fed_j = 0.0;
  for (int s = 1; s <= 6; ++s) {
    const double watts = 100.0 * s;           // 100, 200, ... 600 W
    pkg.accumulate(watts, 0.01);              // exact in uJ: watts * 10^4 uJ
    fed_j += watts * 0.01;
    acc.sample(0.01 * s);
  }
  EXPECT_EQ(pool.active_workers(), workers);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.parallel_for(1, 1, [](std::size_t, std::size_t) {});  // drain

  acc.uninstall();
  EXPECT_NEAR(acc.attributed_joules(), fed_j, 1e-6);
  EXPECT_NEAR(acc.by_phase().total_joules(), fed_j, 1e-6);
  // All six sampling intervals had every worker parked in exec.task.
  const std::vector<AttributionRow> rows = leaf_rows(acc);
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows[0].key, "exec.task");
  EXPECT_NEAR(rows[0].joules, fed_j, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Workers, ConservationTest,
                         ::testing::Values(1, 2, 8));

TEST_F(ObsTest, JsonDumpCarriesSchemaAndTables) {
  power::RaplDomain pkg("pkg-test");
  EnergyAccountant acc(EnergyAccountant::Options{0.125});
  acc.add_domain(&pkg);
  acc.install();
  acc.sample(0.0);
  {
    TELEMETRY_SPAN("json.span");
    pkg.accumulate(8.0, 1.0);
    acc.sample(1.0);
  }
  acc.uninstall();
  const std::string dump = acc.json();
  EXPECT_NE(dump.find("antarex.obs.attribution/v1"), std::string::npos);
  const JsonValue v = parse_json(dump);
  EXPECT_DOUBLE_EQ(v.get("interval_s")->as_number(), 0.125);
  EXPECT_DOUBLE_EQ(v.get("total_joules")->as_number(), 8.0);
  EXPECT_EQ(v.get("by_leaf")->as_array().size(), 1u);
  EXPECT_EQ(v.get("by_leaf")->as_array()[0].get("span")->as_string(),
            "json.span");
  EXPECT_EQ(v.get("domains")->as_array()[0].get("name")->as_string(),
            "pkg-test");
}

// --- policy engine ----------------------------------------------------------

TEST_F(ObsTest, PolicyFiresExactlyOncePerCrossing) {
  PolicyEngine engine;
  int clears = 0;
  engine.add(
      "test.threshold",
      [](const PolicyContext& ctx) {
        return ctx.registry->gauge("test.signal").last() > 10.0;
      },
      [](const PolicyContext&) {},
      [&clears](const PolicyContext&) { ++clears; });

  TELEMETRY_GAUGE("test.signal", 5.0);
  engine.tick(0.0);
  EXPECT_EQ(engine.fires("test.threshold"), 0u);

  TELEMETRY_GAUGE("test.signal", 15.0);
  engine.tick(1.0);
  engine.tick(2.0);
  engine.tick(3.0);  // latched: still one fire while the condition holds
  EXPECT_EQ(engine.fires("test.threshold"), 1u);
  EXPECT_EQ(clears, 0);

  TELEMETRY_GAUGE("test.signal", 5.0);
  engine.tick(4.0);  // true -> false: on_clear runs, policy re-arms
  EXPECT_EQ(engine.fires("test.threshold"), 1u);
  EXPECT_EQ(clears, 1);

  TELEMETRY_GAUGE("test.signal", 20.0);
  engine.tick(5.0);  // second crossing, second fire
  EXPECT_EQ(engine.fires("test.threshold"), 2u);
  EXPECT_EQ(
      telemetry::Registry::global().counter("obs.policy_fires").value(), 2u);
}

// Actuating policies return what they decided; the engine tallies the
// Restrict decisions per handle and the Restrict/Relax split in the
// obs.policy_actions.* counters.
// Like every policy they act on the edge only: a held condition actuates
// once, and moving from one side of the band straight to the other without
// clearing is not a new crossing.
TEST_F(ObsTest, ActuatingPolicyTalliesRestrictAndRelax) {
  PolicyEngine engine;
  const int h = engine.add_actuating(
      "test.actuate",
      [](const PolicyContext& ctx) {
        const telemetry::Gauge& g = ctx.registry->gauge("test.signal");
        return g.updates() > 0 && (g.last() > 10.0 || g.last() < 5.0);
      },
      [](const PolicyContext& ctx) {
        const double v = ctx.registry->gauge("test.signal").last();
        if (v > 10.0) return PolicyAction::Restrict;
        if (v < 5.0) return PolicyAction::Relax;
        return PolicyAction::None;
      });

  TELEMETRY_GAUGE("test.signal", 20.0);
  engine.tick(0.0);  // cross: restrict
  engine.tick(1.0);  // held: silent
  TELEMETRY_GAUGE("test.signal", 2.0);
  engine.tick(2.0);  // still true (low side): silent
  EXPECT_EQ(engine.fires("test.actuate"), 1u);
  EXPECT_EQ(engine.restricts(h), 1u);
  EXPECT_EQ(
      telemetry::Registry::global().counter("obs.policy_actions.relax").value(),
      0u);

  TELEMETRY_GAUGE("test.signal", 7.0);
  engine.tick(3.0);  // clear: re-arms
  TELEMETRY_GAUGE("test.signal", 3.0);
  engine.tick(4.0);  // cross again: relax
  EXPECT_EQ(engine.fires("test.actuate"), 2u);
  EXPECT_EQ(engine.restricts(h), 1u);
  EXPECT_EQ(telemetry::Registry::global()
                .counter("obs.policy_actions.restrict")
                .value(),
            1u);
  EXPECT_EQ(
      telemetry::Registry::global().counter("obs.policy_actions.relax").value(),
      1u);
}

TEST_F(ObsTest, SpanExitsEvaluatePoliciesWhenEngineAttached) {
  PolicyEngine engine;
  std::atomic<int> seen{0};
  engine.add(
      "test.span_watch",
      [](const PolicyContext& ctx) {
        return ctx.span != nullptr &&
               std::strcmp(ctx.span, "watched.span") == 0;
      },
      [&seen](const PolicyContext& ctx) {
        ++seen;
        EXPECT_GE(ctx.span_duration_s, 0.0);
      });
  SpanTracker::global().install();
  SpanTracker::global().set_policy_engine(&engine);
  { TELEMETRY_SPAN("watched.span"); }
  { TELEMETRY_SPAN("other.span"); }  // predicate false: re-arms the edge
  { TELEMETRY_SPAN("watched.span"); }
  SpanTracker::global().set_policy_engine(nullptr);
  SpanTracker::global().uninstall();
  EXPECT_EQ(seen.load(), 2);
}

TEST_F(ObsTest, BuiltinPoliciesWatchTheStackSignals) {
  PolicyEngine engine;
  install_builtin_policies(engine);

  // Thermal: headroom above the 8 C default threshold is quiet, below fires.
  TELEMETRY_GAUGE("rtrm.thermal_headroom_c", 30.0);
  engine.tick(0.0);
  EXPECT_EQ(engine.fires("thermal.throttle_alert"), 0u);
  TELEMETRY_GAUGE("rtrm.thermal_headroom_c", 3.0);
  engine.tick(1.0);
  EXPECT_EQ(engine.fires("thermal.throttle_alert"), 1u);
  EXPECT_EQ(telemetry::Registry::global().counter("obs.alerts.thermal").value(),
            1u);

  // Tuner phase change: one fire per counter increment.
  TELEMETRY_COUNT("tuner.phase_changes", 1);
  engine.tick(2.0);
  engine.tick(3.0);
  EXPECT_EQ(engine.fires("tuner.phase_change"), 1u);
  TELEMETRY_COUNT("tuner.phase_changes", 1);
  engine.tick(4.0);
  EXPECT_EQ(engine.fires("tuner.phase_change"), 2u);

  // Nav backpressure: gauge raised at/above the limit, dropped on clear.
  TELEMETRY_GAUGE("nav.queue_depth", 60.0);
  engine.tick(5.0);
  EXPECT_EQ(engine.fires("nav.backpressure"), 1u);
  EXPECT_DOUBLE_EQ(
      telemetry::Registry::global().gauge("nav.backpressure").last(), 1.0);
  TELEMETRY_GAUGE("nav.queue_depth", 2.0);
  engine.tick(6.0);
  EXPECT_DOUBLE_EQ(
      telemetry::Registry::global().gauge("nav.backpressure").last(), 0.0);
  // The three built-ins account for every fire: no other policy was added.
  EXPECT_EQ(
      telemetry::Registry::global().counter("obs.policy_fires").value(), 4u);
}

// --- report -----------------------------------------------------------------

TEST_F(ObsTest, HtmlReportRendersSpansMetricsAndAttribution) {
  {
    TELEMETRY_SPAN("report.outer");
    TELEMETRY_SPAN("report.inner");
    TELEMETRY_COUNT("report.counter", 7);
  }
  ReportInputs inputs;
  inputs.title = "unit <test> & title";  // must be escaped
  inputs.trace_json = telemetry::chrome_trace_json();
  inputs.metrics_json = telemetry::metrics_json();
  inputs.attribution_json =
      "{\"total_joules\":5,\"samples\":2,\"interval_s\":0.25,"
      "\"by_phase\":[{\"span\":\"report.outer\",\"joules\":5,"
      "\"seconds\":1,\"samples\":2}],\"by_leaf\":[],\"domains\":[]}";
  const std::string html = html_report(inputs);

  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find("unit &lt;test&gt; &amp; title"), std::string::npos);
  EXPECT_NE(html.find("report.outer"), std::string::npos);
  EXPECT_NE(html.find("report.inner"), std::string::npos);
  EXPECT_NE(html.find("report.counter"), std::string::npos);
  EXPECT_NE(html.find("Energy attribution"), std::string::npos);
  EXPECT_EQ(html.find("<script"), std::string::npos);
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
}

TEST_F(ObsTest, HtmlReportRejectsMalformedTrace) {
  ReportInputs inputs;
  inputs.trace_json = "{\"not\": \"a trace\"}";
  EXPECT_THROW(html_report(inputs), Error);
  inputs.trace_json = "not json at all";
  EXPECT_THROW(html_report(inputs), Error);
}

}  // namespace
