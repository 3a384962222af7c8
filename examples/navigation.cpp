// Use case 2 (paper Sec. VII-b): self-adaptive navigation server.
//
// A routing server handles a full simulated day of requests whose rate and
// road congestion both follow the diurnal pattern. A fixed high-quality
// configuration blows its latency SLA at rush hour; the ANTAREX adaptive
// policy (backed by the autotuner's monitors) degrades route precision just
// enough to hold the SLA, then returns to exact routing off-peak.
//
// Build & run:  ./build/examples/navigation
#include <cstdio>

#include "nav/nav.hpp"
#include "nav/server.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "tuner/monitor.hpp"

int main() {
  using namespace antarex;
  using namespace antarex::nav;

  std::puts("== ANTAREX use case 2: self-adaptive navigation ==\n");

  Rng rng(77);
  const RoadGraph city = RoadGraph::grid_city(rng, 48, 48);
  SpeedProfiles profiles;
  std::printf("city: %zu intersections, %zu road segments\n", city.num_nodes(),
              city.num_edges());

  // A day of requests, 06:00 -> 22:00, rate following congestion.
  Rng req_rng(78);
  const double start_tod = 6 * 3600.0;
  const auto requests =
      diurnal_requests(req_rng, city, 16 * 3600.0, 0.02, 0.35, start_tod);
  std::printf("workload: %zu requests over 16 h (diurnal)\n\n", requests.size());

  // An undersized single-worker server: at rush hour the request rate times
  // the exact-search cost exceeds capacity, so a fixed policy builds queues.
  NavServer server(city, profiles, 4e-4, 1);
  const double sla_p95_s = 0.55;

  // --- Policy A: fixed exact routing. ----------------------------------------
  const auto fixed = server.serve(requests, [](std::size_t, double) {
    return ServerKnobs{{true, 1.0}, 1};
  });

  // --- Policy B: ANTAREX adaptive — monitor-driven precision scaling. --------
  tuner::Monitor latency_monitor("latency_s");
  const auto adaptive = server.serve(
      requests,
      [&](std::size_t backlog, double) {
        // Decide from the monitors (collect-analyse-decide-act): scale the
        // heuristic inflation with observed latency pressure and backlog.
        double eps = 1.0;
        if (latency_monitor.samples() >= 8) {
          const double p95 = latency_monitor.window_percentile(95);
          if (p95 > sla_p95_s || backlog > 4) eps = 3.0;
          else if (p95 > 0.6 * sla_p95_s || backlog > 2) eps = 1.8;
        }
        return ServerKnobs{{true, eps}, 1};
      },
      [&](const ServedRequest& s) { latency_monitor.push(s.latency_s); });

  // --- Compare. ---------------------------------------------------------------
  auto summarize = [](const std::vector<ServedRequest>& xs) {
    std::vector<double> lat;
    RunningStats quality;
    for (const auto& s : xs) {
      lat.push_back(s.latency_s);
      quality.add(s.quality);
    }
    struct Row {
      double p50, p95, max, mean_quality;
    };
    return Row{percentile(lat, 50), percentile(lat, 95),
               percentile(lat, 100), quality.mean()};
  };
  const auto fa = summarize(fixed);
  const auto ad = summarize(adaptive);

  Table t({"policy", "p50 lat (s)", "p95 lat (s)", "max lat (s)",
           "route quality", format("SLA p95<%.2fs", sla_p95_s)});
  t.add_row({"fixed exact", fmt_double(fa.p50, 3), fmt_double(fa.p95, 3),
             fmt_double(fa.max, 2), fmt_double(fa.mean_quality, 4),
             fa.p95 < sla_p95_s ? "PASS" : "FAIL"});
  t.add_row({"ANTAREX adaptive", fmt_double(ad.p50, 3), fmt_double(ad.p95, 3),
             fmt_double(ad.max, 2), fmt_double(ad.mean_quality, 4),
             ad.p95 < sla_p95_s ? "PASS" : "FAIL"});
  t.print();

  // Hourly latency profile: where the adaptation engages.
  std::puts("\nhourly p95 latency (s), fixed vs adaptive:");
  for (int hour = 0; hour < 16; hour += 2) {
    auto hour_p95 = [&](const std::vector<ServedRequest>& xs) {
      std::vector<double> lat;
      for (const auto& s : xs) {
        const double h = s.request.arrival_s / 3600.0;
        if (h >= hour && h < hour + 2) lat.push_back(s.latency_s);
      }
      return lat.empty() ? 0.0 : percentile(lat, 95);
    };
    const int tod = 6 + hour;
    std::printf("  %02d:00-%02d:00  fixed %.3f  adaptive %.3f\n", tod, tod + 2,
                hour_p95(fixed), hour_p95(adaptive));
  }

  std::puts("\nnavigation done.");
  return 0;
}
