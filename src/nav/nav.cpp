#include "nav/nav.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <unordered_set>

namespace antarex::nav {

namespace {
constexpr double kDay = 86400.0;

double wrap_tod(double t) {
  double tod = std::fmod(t, kDay);
  if (tod < 0.0) tod += kDay;
  return tod;
}
}  // namespace

double SpeedProfiles::congestion(double time_of_day_s) {
  const double t = wrap_tod(time_of_day_s) / 3600.0;  // hours
  // Two Gaussian rush peaks: 8:30 and 17:30.
  const double morning = std::exp(-(t - 8.5) * (t - 8.5) / (2.0 * 1.2 * 1.2));
  const double evening = std::exp(-(t - 17.5) * (t - 17.5) / (2.0 * 1.5 * 1.5));
  return std::min(1.0, morning + evening);
}

double SpeedProfiles::multiplier(int road_class, double time_of_day_s) const {
  ANTAREX_REQUIRE(road_class >= 0 && road_class < kClasses,
                  "SpeedProfiles: unknown road class");
  const double c = congestion(time_of_day_s);
  // Arterials suffer most under congestion; locals least.
  static constexpr double kSensitivity[kClasses] = {0.25, 0.45, 0.65};
  return 1.0 - kSensitivity[road_class] * c;
}

std::size_t RoadGraph::num_edges() const {
  std::size_t n = 0;
  for (const auto& v : adj) n += v.size();
  return n;
}

double RoadGraph::max_speed_mps() const {
  double s = 0.0;
  for (const auto& v : adj)
    for (const auto& e : v) s = std::max(s, e.free_speed_mps);
  return s;
}

RoadGraph RoadGraph::grid_city(Rng& rng, int w, int h, double spacing_m,
                               int arterial_every, double removal_rate) {
  ANTAREX_REQUIRE(w >= 2 && h >= 2, "grid_city: need at least a 2x2 grid");
  ANTAREX_REQUIRE(arterial_every >= 2, "grid_city: arterial_every must be >= 2");

  RoadGraph g;
  const auto id = [w](int x, int y) { return static_cast<u32>(y * w + x); };
  g.adj.resize(static_cast<std::size_t>(w) * static_cast<std::size_t>(h));
  g.coords.resize(g.adj.size());
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      g.coords[id(x, y)] = {x * spacing_m, y * spacing_m};

  auto classify = [&](int x0, int y0, int x1, int y1) {
    const bool horizontal = y0 == y1;
    const int line = horizontal ? y0 : x0;
    (void)x1;
    (void)y1;
    if (line % arterial_every == 0) return 2;
    if (line % 2 == 0) return 1;
    return 0;
  };
  auto speed_for = [&](int cls) {
    switch (cls) {
      case 2: return 22.2;  // 80 km/h arterial
      case 1: return 16.7;  // 60 km/h collector
      default: return 11.1; // 40 km/h local
    }
  };

  auto connect = [&](int x0, int y0, int x1, int y1) {
    if (rng.bernoulli(removal_rate)) return;  // missing street
    const int cls = classify(x0, y0, x1, y1);
    Edge e;
    e.length_m = spacing_m * rng.uniform(1.0, 1.15);  // streets are not ideal lines
    e.free_speed_mps = speed_for(cls);
    e.road_class = cls;
    e.to = id(x1, y1);
    g.adj[id(x0, y0)].push_back(e);
    e.to = id(x0, y0);
    g.adj[id(x1, y1)].push_back(e);
  };

  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      if (x + 1 < w) connect(x, y, x + 1, y);
      if (y + 1 < h) connect(x, y, x, y + 1);
    }
  return g;
}

double edge_travel_time_s(const RoadGraph::Edge& e, const SpeedProfiles& profiles,
                          double depart_s) {
  const double speed = e.free_speed_mps * profiles.multiplier(e.road_class, depart_s);
  ANTAREX_CHECK(speed > 0.0, "edge speed must stay positive");
  return e.length_m / speed;
}

namespace {

struct Label {
  double f;  // priority (arrival + heuristic)
  double arrival;
  u32 node;
  bool operator>(const Label& other) const { return f > other.f; }
};

Route run_search(const RoadGraph& g, const SpeedProfiles& profiles, u32 from,
                 u32 to, double depart_s, const QueryOptions& opts,
                 const std::vector<double>* edge_penalty) {
  ANTAREX_REQUIRE(from < g.num_nodes() && to < g.num_nodes(),
                  "shortest_path: node id out of range");
  Route route;
  const std::size_t n = g.num_nodes();
  std::vector<double> best(n, std::numeric_limits<double>::infinity());
  std::vector<u32> parent(n, std::numeric_limits<u32>::max());
  std::vector<bool> settled(n, false);

  const double vmax = g.max_speed_mps();
  auto heuristic = [&](u32 v) {
    if (!opts.astar) return 0.0;
    const auto [x0, y0] = g.coords[v];
    const auto [x1, y1] = g.coords[to];
    const double d = std::hypot(x1 - x0, y1 - y0);
    return opts.epsilon * d / vmax;
  };

  std::priority_queue<Label, std::vector<Label>, std::greater<>> open;
  best[from] = depart_s;
  open.push({depart_s + heuristic(from), depart_s, from});

  // Penalized edge cost index: flattened (node, edge#) offsets.
  std::vector<std::size_t> edge_base;
  if (edge_penalty) {
    edge_base.resize(n, 0);
    std::size_t off = 0;
    for (std::size_t v = 0; v < n; ++v) {
      edge_base[v] = off;
      off += g.adj[v].size();
    }
  }

  while (!open.empty()) {
    const Label top = open.top();
    open.pop();
    if (settled[top.node]) continue;
    settled[top.node] = true;
    ++route.expanded;
    if (top.node == to) break;

    const auto& edges = g.adj[top.node];
    for (std::size_t ei = 0; ei < edges.size(); ++ei) {
      const auto& e = edges[ei];
      double tt = edge_travel_time_s(e, profiles, top.arrival);
      if (edge_penalty) tt *= (*edge_penalty)[edge_base[top.node] + ei];
      const double arr = top.arrival + tt;
      if (arr < best[e.to]) {
        best[e.to] = arr;
        parent[e.to] = top.node;
        open.push({arr + heuristic(e.to), arr, e.to});
      }
    }
  }

  if (!settled[to]) return route;  // unreachable
  route.travel_time_s = best[to] - depart_s;
  std::vector<u32> rev;
  for (u32 v = to; v != std::numeric_limits<u32>::max(); v = parent[v]) {
    rev.push_back(v);
    if (v == from) break;
  }
  route.nodes.assign(rev.rbegin(), rev.rend());
  return route;
}

}  // namespace

Route shortest_path_td(const RoadGraph& g, const SpeedProfiles& profiles, u32 from,
                       u32 to, double depart_s, const QueryOptions& opts) {
  ANTAREX_REQUIRE(opts.epsilon >= 1.0, "shortest_path: epsilon must be >= 1");
  return run_search(g, profiles, from, to, depart_s, opts, nullptr);
}

std::vector<Route> k_alternatives(const RoadGraph& g, const SpeedProfiles& profiles,
                                  u32 from, u32 to, double depart_s, int k,
                                  double penalty, const QueryOptions& opts) {
  ANTAREX_REQUIRE(k >= 1, "k_alternatives: k must be >= 1");
  ANTAREX_REQUIRE(penalty > 1.0, "k_alternatives: penalty must be > 1");

  std::vector<double> edge_penalty(g.num_edges(), 1.0);
  std::vector<std::size_t> edge_base(g.num_nodes(), 0);
  {
    std::size_t off = 0;
    for (std::size_t v = 0; v < g.num_nodes(); ++v) {
      edge_base[v] = off;
      off += g.adj[v].size();
    }
  }

  std::vector<Route> out;
  std::unordered_set<std::string> seen;
  for (int i = 0; i < k; ++i) {
    Route r = run_search(g, profiles, from, to, depart_s, opts, &edge_penalty);
    if (!r.found()) break;
    // Deduplicate identical node sequences.
    std::string key;
    for (u32 v : r.nodes) key += std::to_string(v) + ",";
    // Penalize this route's edges for the next iteration.
    for (std::size_t j = 0; j + 1 < r.nodes.size(); ++j) {
      const u32 a = r.nodes[j];
      const u32 b = r.nodes[j + 1];
      for (std::size_t ei = 0; ei < g.adj[a].size(); ++ei)
        if (g.adj[a][ei].to == b) edge_penalty[edge_base[a] + ei] *= penalty;
    }
    if (seen.insert(key).second) out.push_back(std::move(r));
  }
  std::sort(out.begin(), out.end(), [](const Route& a, const Route& b) {
    return a.travel_time_s < b.travel_time_s;
  });
  return out;
}

std::vector<Request> diurnal_requests(Rng& rng, const RoadGraph& g,
                                      double duration_s, double base_rate_hz,
                                      double peak_rate_hz, double start_tod_s) {
  ANTAREX_REQUIRE(duration_s > 0.0, "diurnal_requests: non-positive duration");
  ANTAREX_REQUIRE(base_rate_hz >= 0.0 && peak_rate_hz >= 0.0,
                  "diurnal_requests: negative rates");
  std::vector<Request> out;
  const double lambda_max = base_rate_hz + peak_rate_hz;
  if (lambda_max <= 0.0) return out;

  // Thinning algorithm for the non-homogeneous Poisson process.
  double t = 0.0;
  while (true) {
    t += rng.exponential(lambda_max);
    if (t >= duration_s) break;
    const double lam =
        base_rate_hz + peak_rate_hz * SpeedProfiles::congestion(start_tod_s + t);
    if (!rng.bernoulli(lam / lambda_max)) continue;
    Request r;
    r.arrival_s = t;
    r.from = static_cast<u32>(rng.index(g.num_nodes()));
    do {
      r.to = static_cast<u32>(rng.index(g.num_nodes()));
    } while (r.to == r.from);
    out.push_back(r);
  }
  return out;
}

}  // namespace antarex::nav
