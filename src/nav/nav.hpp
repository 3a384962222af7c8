// Use case 2: Self-adaptive navigation system (paper Sec. VII-b).
//
// Substitution note (DESIGN.md): the project's production system is Sygic's
// server-side navigation. This mini-app reproduces its computational pattern:
// time-dependent routing on a road network under a variable (diurnal) request
// load, where the server trades route quality against compute to keep its
// latency SLA — exactly the knob set the ANTAREX autotuner manages.
//
// Components: a synthetic grid-city road network with arterials, piecewise
// diurnal congestion profiles (FIFO network), time-dependent Dijkstra and
// weighted A*, and a penalty-based K-alternative-routes search.
#pragma once

#include <utility>
#include <vector>

#include "support/common.hpp"
#include "support/rng.hpp"

namespace antarex::nav {

/// Congestion profiles: a speed multiplier in (0, 1] as a function of the
/// time of day, per road class. Rush hours slow arterials more than side
/// streets.
class SpeedProfiles {
 public:
  static constexpr int kClasses = 3;  // 0=local, 1=collector, 2=arterial

  /// Multiplier for a road class at a given time of day (seconds in [0,86400)).
  double multiplier(int road_class, double time_of_day_s) const;

  /// Congestion intensity in [0, 1]: 0 = free flow (night), 1 = worst rush.
  static double congestion(double time_of_day_s);
};

struct RoadGraph {
  struct Edge {
    u32 to = 0;
    double length_m = 0.0;
    double free_speed_mps = 13.9;  ///< 50 km/h default
    int road_class = 0;
  };

  std::vector<std::vector<Edge>> adj;
  std::vector<std::pair<double, double>> coords;  ///< node positions (m)

  std::size_t num_nodes() const { return adj.size(); }
  std::size_t num_edges() const;
  double max_speed_mps() const;

  /// Synthetic city: w x h grid of intersections with `spacing` metres
  /// between neighbours; every k-th row/column is an arterial (faster, class
  /// 2); a fraction of edges is removed to make the network irregular.
  static RoadGraph grid_city(Rng& rng, int w, int h, double spacing_m = 150.0,
                             int arterial_every = 4, double removal_rate = 0.08);
};

/// Travel time over one edge departing at `depart_s` (time-of-day wraps).
double edge_travel_time_s(const RoadGraph::Edge& e, const SpeedProfiles& profiles,
                          double depart_s);

struct Route {
  std::vector<u32> nodes;       ///< empty if unreachable
  double travel_time_s = 0.0;
  u64 expanded = 0;             ///< settled nodes (the latency driver)

  bool found() const { return !nodes.empty(); }
};

struct QueryOptions {
  bool astar = true;
  /// Heuristic inflation: 1.0 = admissible (optimal); >1 trades quality for
  /// fewer expansions — the server's main "precision" knob.
  double epsilon = 1.0;
};

/// Time-dependent shortest path (label-setting; correct for FIFO networks).
Route shortest_path_td(const RoadGraph& g, const SpeedProfiles& profiles,
                       u32 from, u32 to, double depart_s,
                       const QueryOptions& opts = {});

/// K alternative routes by iterative edge-penalization: after each route,
/// its edges' costs are inflated by `penalty` and the search repeats.
/// Returns up to k distinct routes, best first.
std::vector<Route> k_alternatives(const RoadGraph& g, const SpeedProfiles& profiles,
                                  u32 from, u32 to, double depart_s, int k,
                                  double penalty = 1.3,
                                  const QueryOptions& opts = {});

// ---------------------------------------------------------------------------
// Server workload
// ---------------------------------------------------------------------------

struct Request {
  double arrival_s = 0.0;  ///< absolute simulation time
  u32 from = 0;
  u32 to = 0;
};

/// Poisson arrivals with a diurnal rate: lambda(t) = base + peak * congestion.
std::vector<Request> diurnal_requests(Rng& rng, const RoadGraph& g,
                                      double duration_s, double base_rate_hz,
                                      double peak_rate_hz, double start_tod_s = 0.0);

}  // namespace antarex::nav
