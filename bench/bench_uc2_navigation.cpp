// UC2 (paper Sec. VII-b): self-adaptive navigation — the server must balance
// route quality against compute under a variable (diurnal) workload.
//
// Regenerates the use-case evidence: p95 latency and route quality over a
// simulated day for (a) fixed exact routing, (b) fixed degraded routing,
// (c) the ANTAREX adaptive policy. The adaptive policy must be the only one
// that both holds the latency SLA and keeps near-exact quality off-peak.
// A final measured arm replays the adaptive day concurrently on the
// antarex::exec pool (serve_concurrent) and reports real wall time + steals.
//
// Usage: bench_uc2_navigation [--threads N]   (default: hardware concurrency)
#include "bench_common.hpp"
#include "causal/ledger.hpp"
#include "causal/slo.hpp"
#include "govern/actuator.hpp"
#include "nav/nav.hpp"
#include "nav/server.hpp"
#include "obs/policy.hpp"
#include "support/stats.hpp"
#include "tuner/monitor.hpp"

int main(int argc, char** argv) {
  using namespace antarex;
  using namespace antarex::nav;

  bench::parse_telemetry(argc, argv);
  bench::header("UC2", "navigation server under diurnal load");
  const int threads =
      bench::parse_threads(argc, argv, exec::ThreadPool::hardware_threads());

  Rng rng(7);
  const RoadGraph city = RoadGraph::grid_city(rng, 40, 40);
  SpeedProfiles profiles;
  Rng req_rng(8);
  const auto requests =
      diurnal_requests(req_rng, city, 16 * 3600.0, 0.02, 0.30, 6 * 3600.0);
  std::printf("city %zu nodes / %zu edges; %zu requests over 16 h\n\n",
              city.num_nodes(), city.num_edges(), requests.size());

  NavServer server(city, profiles, 7e-4, 1);
  const double sla = 0.5;

  struct Summary {
    double p95 = 0.0;
    double quality = 0.0;
    double compute_s = 0.0;  ///< summed request latencies (server busy time)
  };
  auto summarize = [](const std::vector<ServedRequest>& xs) {
    std::vector<double> lat;
    RunningStats q;
    double total_s = 0.0;
    for (const auto& s : xs) {
      lat.push_back(s.latency_s);
      q.add(s.quality);
      total_s += s.latency_s;
    }
    return Summary{percentile(lat, 95), q.mean(), total_s};
  };

  const auto fixed_exact = summarize(server.serve(
      requests, [](std::size_t, double) { return ServerKnobs{{true, 1.0}, 1}; }));
  const auto fixed_fast = summarize(server.serve(
      requests, [](std::size_t, double) { return ServerKnobs{{true, 3.0}, 1}; }));

  tuner::Monitor lat_mon("latency");
  const auto adaptive_served = server.serve(
      requests,
      [&](std::size_t backlog, double) {
        double eps = 1.0;
        if (lat_mon.samples() >= 8) {
          const double p95 = lat_mon.window_percentile(95);
          if (p95 > sla || backlog > 4) eps = 3.0;
          else if (p95 > 0.6 * sla || backlog > 2) eps = 1.8;
        }
        return ServerKnobs{{true, eps}, 1};
      },
      [&](const ServedRequest& s) { lat_mon.push(s.latency_s); });
  const auto adaptive = summarize(adaptive_served);

  Table t({"policy", "p95 latency (s)", "mean route quality",
           format("SLA p95<%.2fs", sla)});
  auto row = [&](const char* name, const Summary& s) {
    t.add_row({name, format("%.3f", s.p95), format("%.4f", s.quality),
               s.p95 < sla ? "PASS" : "FAIL"});
  };
  row("fixed exact (quality-first)", fixed_exact);
  row("fixed degraded eps=3 (latency-first)", fixed_fast);
  row("ANTAREX adaptive", adaptive);
  t.print();

  // ------------------------------------------------------------------
  // Per-tier SLO accounting over the adaptive arm (simulated latencies, so
  // deterministic): requests cycle gold / silver / silver / best_effort.
  // ------------------------------------------------------------------
  causal::SloTracker slo(
      {{"gold", 0.25, 0.05}, {"silver", 0.5, 0.10}, {"best_effort", 1.5, 0.25}},
      128);
  const auto tier_of = [](std::size_t i) -> std::size_t {
    const std::size_t m = i % 4;
    return m == 0 ? 0 : (m == 3 ? 2 : 1);
  };
  for (std::size_t i = 0; i < adaptive_served.size(); ++i)
    slo.observe(tier_of(i), adaptive_served[i].latency_s);
  std::printf("\nSLO attainment (adaptive arm):\n");
  Table slo_table({"tier", "target (s)", "attainment", "budget left",
                   "burn rate"});
  for (std::size_t ti = 0; ti < slo.tier_count(); ++ti) {
    const causal::TierStatus st = slo.status(ti);
    const std::string& name = slo.tier(ti).name;
    slo_table.add_row({name, format("%.2f", slo.tier(ti).target_latency_s),
                       format("%.4f", st.attainment),
                       format("%.3f", st.budget_remaining),
                       format("%.2f%s", st.burn_rate,
                              st.burning ? " BURNING" : "")});
    bench::metric("slo_" + name + "_attainment", st.attainment);
    bench::metric("slo_" + name + "_budget_remaining", st.budget_remaining);
    bench::metric("slo_" + name + "_burn_rate", st.burn_rate);
  }
  slo_table.print();

  // ------------------------------------------------------------------
  // Measured arm: the adaptive policy's requests actually executed on the
  // work-stealing pool with a bounded admission window.
  // ------------------------------------------------------------------
  exec::ThreadPool pool(threads);
  const ConcurrentServeResult live = server.serve_concurrent(
      pool, requests,
      [&](std::size_t backlog, double) {
        return ServerKnobs{{true, backlog > 4 ? 3.0 : 1.0}, 1};
      },
      16);
  const auto live_summary = summarize(live.served);
  std::printf("\nmeasured concurrent replay (threads=%d, window=16): wall %.3f s,"
              " steals %llu, mean quality %.4f\n",
              live.threads, live.wall_s,
              static_cast<unsigned long long>(live.steals),
              live_summary.quality);

  // ------------------------------------------------------------------
  // Governed replay: the same concurrent serve, split into two batches and
  // run under an obs::PolicyEngine actuating policy that watches the gold
  // tier's SLO burn rate and shrinks the admission window (NavActuator)
  // when the budget is burning. Every fire lands in the decision ledger
  // with its cause (the burn-rate reading) and, one evaluation later, the
  // observed effect — the explain timeline antarex-report renders.
  // ------------------------------------------------------------------
  const bool telemetry_was_on = telemetry::enabled();
  telemetry::set_enabled(true);
  causal::DecisionLedger::global().clear();
  // The concurrent arm's latencies sit an order of magnitude below the
  // serial arm's (requests execute in parallel), so the governed tiers are
  // scaled to that regime.
  causal::SloTracker gov_slo(
      {{"gold", 0.02, 0.05}, {"silver", 0.05, 0.10}, {"best_effort", 0.5, 0.25}},
      128);
  obs::PolicyEngine engine;
  auto nav_act = std::make_shared<govern::NavActuator>(server, 16, 2);
  obs::PolicyOptions popts;
  popts.cause_metric = "causal.slo.gold.burn_rate";
  popts.effect_metric = "causal.slo.gold.burn_rate";
  const int slo_policy = engine.add_actuating(
      "uc2.slo_admission",
      [](const obs::PolicyContext& ctx) {
        const telemetry::Gauge& g =
            ctx.registry->gauge("causal.slo.gold.burn_rate");
        return g.updates() > 0 && g.last() > 1.0;
      },
      [&](const obs::PolicyContext&) {
        return nav_act->restrict() ? obs::PolicyAction::Restrict
                                   : obs::PolicyAction::None;
      },
      popts);

  const std::size_t half = requests.size() / 2;
  const std::vector<Request> batch1(requests.begin(),
                                    requests.begin() + half);
  const std::vector<Request> batch2(requests.begin() + half, requests.end());
  auto gov_knobs = [&](std::size_t backlog, double) {
    return ServerKnobs{{true, backlog > 4 ? 3.0 : 1.0}, 1};
  };
  auto gov_observe = [&](const ConcurrentServeResult& r, std::size_t base) {
    for (std::size_t i = 0; i < r.served.size(); ++i)
      gov_slo.observe(tier_of(base + i), r.served[i].latency_s);
    gov_slo.publish();
  };
  const auto gov1 = server.serve_concurrent(pool, batch1, gov_knobs, 16);
  gov_observe(gov1, 0);
  const causal::TierStatus gold1 = gov_slo.status(0);
  std::printf("\ngoverned batch 1: gold attainment %.4f, burn rate %.2f%s\n",
              gold1.attainment, gold1.burn_rate,
              gold1.burning ? " BURNING" : "");
  engine.tick(1.0);  // may fire: restrict admission between the batches
  const auto gov2 = server.serve_concurrent(pool, batch2, gov_knobs, 16);
  gov_observe(gov2, batch1.size());
  engine.tick(2.0);  // attaches the observed effect to the pending record
  server.set_admission_cap(SIZE_MAX);
  telemetry::set_enabled(telemetry_was_on);

  RunningStats gov_q;
  for (const auto& s : gov1.served) gov_q.add(s.quality);
  for (const auto& s : gov2.served) gov_q.add(s.quality);
  const u64 gov_restricts = engine.restricts(slo_policy);
  std::printf("\ngoverned replay: %llu admission restrict(s), window 16 -> "
              "%zu, mean quality %.4f\n",
              static_cast<unsigned long long>(gov_restricts),
              nav_act->window(), gov_q.mean());
  std::printf("\ndecision timeline:\n%s",
              causal::DecisionLedger::global().timeline().c_str());
  try {
    telemetry::write_text_file("BENCH_UC2_decisions.json",
                               causal::DecisionLedger::global().json());
    std::printf("wrote BENCH_UC2_decisions.json\n");
  } catch (const std::exception&) {
    // unwritable cwd is not an error, same contract as the bench report
  }
  bench::metric("governed_restricts", static_cast<double>(gov_restricts));
  bench::metric("governed_window", static_cast<double>(nav_act->window()));
  bench::metric("governed_quality", gov_q.mean());

  // Energy ledger per policy arm: server busy seconds at a nominal 150 W
  // node draw (deterministic — the simulated latencies are seeded).
  const double server_w = 150.0;
  bench::attribution("nav.fixed_exact", server_w * fixed_exact.compute_s,
                     fixed_exact.compute_s);
  bench::attribution("nav.fixed_degraded", server_w * fixed_fast.compute_s,
                     fixed_fast.compute_s);
  bench::attribution("nav.adaptive", server_w * adaptive.compute_s,
                     adaptive.compute_s);
  bench::metric("iterations", static_cast<double>(requests.size()));
  bench::metric("adaptive_p95_latency_s", adaptive.p95);
  bench::metric("adaptive_quality", adaptive.quality);
  bench::metric("measured_wall_s", live.wall_s);
  bench::metric("measured_steals", static_cast<double>(live.steals));
  bench::metric("measured_quality", live_summary.quality);
  bench::verdict(
      "the server must trade quality for compute under variable load; "
      "adaptivity gets both",
      format("adaptive: p95 %.3fs (SLA %s) at quality %.3f vs exact quality "
             "1.0 (SLA %s) and degraded quality %.3f",
             adaptive.p95, adaptive.p95 < sla ? "PASS" : "FAIL",
             adaptive.quality, fixed_exact.p95 < sla ? "PASS" : "FAIL",
             fixed_fast.quality),
      adaptive.p95 < sla && fixed_exact.p95 >= sla &&
          adaptive.quality > fixed_fast.quality);
  return 0;
}
