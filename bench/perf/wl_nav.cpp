// nav_diurnal: the navigation server under an 8-hour diurnal request stream.
//
// NavServer::serve_concurrent admits requests through a 16-request window (a
// closed loop), so exec sees thousands of fine-grained async tasks: a pool
// change that helps dock's coarse tasks but adds per-task cost shows here.
// The knob policy answers with epsilon 3 while the window is busy during the
// morning rush and exact routes (epsilon 1) otherwise. The city map is the
// server's fixed deployment; the seed draws the request stream.
#include <cmath>
#include <deque>

#include "harness.hpp"
#include "nav/nav.hpp"
#include "nav/server.hpp"
#include "support/strings.hpp"

namespace perf {

using namespace antarex;

namespace {

constexpr std::size_t kWindow = 16;
constexpr double kStartTod = 4 * 3600.0;
constexpr double kDuration = 8 * 3600.0;
constexpr std::size_t kReferenceSamples = 64;
constexpr u64 kCitySeed = 64;

/// Nodes of the largest connected component (streets are two-way).
std::vector<bool> largest_component(const nav::RoadGraph& g) {
  std::vector<int> label(g.num_nodes(), -1);
  std::vector<std::size_t> sizes;
  for (std::size_t s = 0; s < g.num_nodes(); ++s) {
    if (label[s] >= 0) continue;
    const int id = static_cast<int>(sizes.size());
    std::size_t size = 0;
    std::deque<u32> frontier{static_cast<u32>(s)};
    label[s] = id;
    while (!frontier.empty()) {
      const u32 u = frontier.front();
      frontier.pop_front();
      ++size;
      for (const auto& e : g.adj[u])
        if (label[e.to] < 0) {
          label[e.to] = id;
          frontier.push_back(e.to);
        }
    }
    sizes.push_back(size);
  }
  int best = 0;
  for (std::size_t i = 1; i < sizes.size(); ++i)
    if (sizes[i] > sizes[static_cast<std::size_t>(best)]) best = static_cast<int>(i);
  std::vector<bool> in(g.num_nodes());
  for (std::size_t i = 0; i < g.num_nodes(); ++i) in[i] = label[i] == best;
  return in;
}

}  // namespace

Pass run_nav(const Options& opts, exec::ThreadPool& pool, int /*index*/) {
  Pass p;
  const double rate_scale = opts.smoke ? 0.02 : 0.5;

  const auto t_setup = Clock::now();
  Rng city_rng(kCitySeed);
  const nav::RoadGraph city = nav::RoadGraph::grid_city(city_rng, 64, 64);
  Rng rng(opts.seed);
  const nav::SpeedProfiles profiles;
  // Every request joins two connected intersections, so no route can fail.
  const std::vector<bool> connected = largest_component(city);
  std::vector<nav::Request> requests;
  for (nav::Request r : nav::diurnal_requests(rng, city, kDuration, 0.12 * rate_scale,
                                              0.7 * rate_scale, kStartTod)) {
    if (!connected[r.from] || !connected[r.to]) continue;
    r.arrival_s += kStartTod;  // the server reads arrival as time of day
    requests.push_back(r);
  }
  nav::NavServer server(city, profiles, 2e-6, opts.threads);
  p.setup_s = seconds_since(t_setup);

  std::vector<Clock::time_point> admitted, collected;
  admitted.reserve(requests.size());
  collected.reserve(requests.size());
  const nav::NavServer::Policy policy = [&](std::size_t backlog, double tod) {
    admitted.push_back(Clock::now());
    nav::ServerKnobs knobs;
    knobs.opts.epsilon =
        backlog >= kWindow / 2 && nav::SpeedProfiles::congestion(tod) > 0.5 ? 3.0 : 1.0;
    return knobs;
  };
  const nav::NavServer::Observer observer = [&](const nav::ServedRequest&) {
    collected.push_back(Clock::now());
  };

  nav::ConcurrentServeResult served;
  const auto t_work = Clock::now();
  {
    telemetry::ScopedSpan pass_span("bench.pass");
    telemetry::ScopedSpan span("bench.nav");
    served = server.serve_concurrent(pool, requests, policy, kWindow, observer);
  }
  p.work_s = seconds_since(t_work);
  const exec::PoolStats pool_stats = pool.stats();

  p.check(collected.size() == requests.size(),
          "nav: the observer did not see every request");
  for (std::size_t i = 0; i < collected.size(); ++i)
    p.latency_ms.push_back(
        std::chrono::duration<double, std::milli>(collected[i] - admitted[i]).count());

  u64 expanded = 0, exact = 0, shed = 0, unreachable = 0;
  double quality = 0.0;
  for (const nav::ServedRequest& s : served.served) {
    expanded += s.expanded;
    quality += s.quality;
    exact += s.knobs_used.opts.epsilon == 1.0;
    shed += s.shed;
    unreachable += !s.shed && s.quality == 0.0;
  }

  // A seeded sample of exact requests must have quality 1 and repeat a plain
  // query's search exactly; the plain query must agree with Dijkstra.
  Rng pick(opts.seed ^ 0x5eedf00dULL);
  std::size_t sampled = 0;
  for (std::size_t tries = 0;
       sampled < kReferenceSamples && tries < 64 * kReferenceSamples; ++tries) {
    const nav::ServedRequest& s = served.served[pick.index(served.served.size())];
    if (s.knobs_used.opts.epsilon != 1.0) continue;
    ++sampled;
    const nav::Request& r = s.request;
    const nav::Route astar =
        nav::shortest_path_td(city, profiles, r.from, r.to, r.arrival_s);
    const nav::Route dijkstra =
        nav::shortest_path_td(city, profiles, r.from, r.to, r.arrival_s, {false, 1.0});
    p.check(s.quality == 1.0 && s.expanded == astar.expanded,
            format("nav: exact request %u->%u does not match a plain query", r.from,
                   r.to));
    p.check(std::abs(astar.travel_time_s - dijkstra.travel_time_s) <=
                1e-9 * dijkstra.travel_time_s,
            format("nav: A* and Dijkstra disagree on %u->%u", r.from, r.to));
  }
  p.check(sampled == kReferenceSamples || opts.smoke,
          "nav: too few exact requests to sample");

  p.ops = requests.size();
  p.attempted = requests.size();
  p.failed = shed + unreachable;
  p.check(p.failed == 0, format("nav: %llu requests shed or unreachable",
                                static_cast<unsigned long long>(p.failed)));
  p.counts["nav.requests"] = static_cast<double>(requests.size());
  p.counts["nav.expanded"] = static_cast<double>(expanded);
  p.counts["nav.exact"] = static_cast<double>(exact);
  p.counts["nav.route_quality"] = quality / static_cast<double>(requests.size());

  p.layers["nav.expanded"] = static_cast<double>(expanded);
  p.layers["nav.ns_per_expansion"] =
      pool_stats.total_busy_s() * 1e9 / static_cast<double>(expanded);
  p.layers["nav.exact_share"] =
      static_cast<double>(exact) / static_cast<double>(requests.size());
  add_pool_metrics(p, pool_stats, p.work_s);
  return p;
}

}  // namespace perf
