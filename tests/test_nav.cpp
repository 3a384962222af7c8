// Tests for the navigation use case: road network generation, time-dependent
// routing (Dijkstra vs A*), K-alternatives, the diurnal workload, and the
// server simulation with quality/latency knobs.
#include <gtest/gtest.h>

#include <set>

#include "nav/nav.hpp"
#include "nav/server.hpp"
#include "support/stats.hpp"

namespace antarex::nav {
namespace {

RoadGraph test_city(u64 seed = 7, int w = 20, int h = 20) {
  Rng rng(seed);
  return RoadGraph::grid_city(rng, w, h);
}

// --------------------------------------------------------------------------
// SpeedProfiles
// --------------------------------------------------------------------------

TEST(Profiles, CongestionPeaksAtRushHours) {
  const double rush = SpeedProfiles::congestion(8.5 * 3600);
  const double night = SpeedProfiles::congestion(3.0 * 3600);
  EXPECT_GT(rush, 0.9);
  EXPECT_LT(night, 0.05);
}

TEST(Profiles, ArterialsSufferMostUnderCongestion) {
  SpeedProfiles p;
  const double t = 8.5 * 3600;
  EXPECT_LT(p.multiplier(2, t), p.multiplier(1, t));
  EXPECT_LT(p.multiplier(1, t), p.multiplier(0, t));
  for (int c = 0; c < SpeedProfiles::kClasses; ++c) {
    EXPECT_GT(p.multiplier(c, t), 0.0);
    EXPECT_NEAR(p.multiplier(c, 3 * 3600), 1.0, 0.05);  // free flow at night
  }
}

TEST(Profiles, TimeWrapsAroundMidnight) {
  SpeedProfiles p;
  EXPECT_DOUBLE_EQ(p.multiplier(2, 0.0), p.multiplier(2, 86400.0));
  EXPECT_DOUBLE_EQ(p.multiplier(2, 8.5 * 3600),
                   p.multiplier(2, 8.5 * 3600 + 86400.0));
}

// --------------------------------------------------------------------------
// RoadGraph
// --------------------------------------------------------------------------

TEST(Graph, GridCityShape) {
  const RoadGraph g = test_city();
  EXPECT_EQ(g.num_nodes(), 400u);
  EXPECT_GT(g.num_edges(), 1000u);  // bidirectional grid minus removals
  EXPECT_GT(g.max_speed_mps(), 20.0);  // arterials exist
}

TEST(Graph, EdgesAreBidirectional) {
  const RoadGraph g = test_city();
  std::size_t asymmetric = 0;
  for (u32 v = 0; v < g.num_nodes(); ++v) {
    for (const auto& e : g.adj[v]) {
      bool back = false;
      for (const auto& r : g.adj[e.to])
        if (r.to == v) back = true;
      if (!back) ++asymmetric;
    }
  }
  EXPECT_EQ(asymmetric, 0u);
}

TEST(Graph, DeterministicForSeed) {
  const RoadGraph a = test_city(5);
  const RoadGraph b = test_city(5);
  EXPECT_EQ(a.num_edges(), b.num_edges());
}

// --------------------------------------------------------------------------
// Routing
// --------------------------------------------------------------------------

TEST(Routing, FindsPathAndItIsConnected) {
  const RoadGraph g = test_city();
  SpeedProfiles p;
  const Route r = shortest_path_td(g, p, 0, 399, 3 * 3600, {false, 1.0});
  ASSERT_TRUE(r.found());
  EXPECT_EQ(r.nodes.front(), 0u);
  EXPECT_EQ(r.nodes.back(), 399u);
  // Consecutive nodes share an edge.
  for (std::size_t i = 0; i + 1 < r.nodes.size(); ++i) {
    bool connected = false;
    for (const auto& e : g.adj[r.nodes[i]])
      if (e.to == r.nodes[i + 1]) connected = true;
    EXPECT_TRUE(connected) << "hop " << i;
  }
  EXPECT_GT(r.travel_time_s, 0.0);
}

TEST(Routing, AStarMatchesDijkstraWithAdmissibleHeuristic) {
  const RoadGraph g = test_city();
  SpeedProfiles p;
  Rng rng(17);
  for (int i = 0; i < 25; ++i) {
    const u32 from = static_cast<u32>(rng.index(g.num_nodes()));
    const u32 to = static_cast<u32>(rng.index(g.num_nodes()));
    const double depart = rng.uniform(0.0, 86400.0);
    const Route d = shortest_path_td(g, p, from, to, depart, {false, 1.0});
    const Route a = shortest_path_td(g, p, from, to, depart, {true, 1.0});
    ASSERT_EQ(d.found(), a.found());
    if (d.found()) {
      EXPECT_NEAR(d.travel_time_s, a.travel_time_s, 1e-6);
    }
  }
}

TEST(Routing, AStarExpandsFewerNodes) {
  const RoadGraph g = test_city(7, 40, 40);
  SpeedProfiles p;
  const Route d = shortest_path_td(g, p, 0, 1599, 3 * 3600, {false, 1.0});
  const Route a = shortest_path_td(g, p, 0, 1599, 3 * 3600, {true, 1.0});
  ASSERT_TRUE(d.found() && a.found());
  EXPECT_LT(a.expanded, d.expanded);
}

TEST(Routing, InflatedHeuristicTradesQualityForExpansions) {
  const RoadGraph g = test_city(7, 40, 40);
  SpeedProfiles p;
  const Route exact = shortest_path_td(g, p, 0, 1599, 8.5 * 3600, {true, 1.0});
  const Route fast = shortest_path_td(g, p, 0, 1599, 8.5 * 3600, {true, 2.0});
  ASSERT_TRUE(exact.found() && fast.found());
  EXPECT_LE(fast.expanded, exact.expanded);
  EXPECT_GE(fast.travel_time_s, exact.travel_time_s - 1e-9);
  // Bounded suboptimality: epsilon-inflated A* is at most epsilon-worse.
  EXPECT_LE(fast.travel_time_s, 2.0 * exact.travel_time_s + 1e-6);
}

TEST(Routing, RushHourRoutesTakeLonger) {
  const RoadGraph g = test_city();
  SpeedProfiles p;
  const Route night = shortest_path_td(g, p, 0, 399, 3 * 3600);
  const Route rush = shortest_path_td(g, p, 0, 399, 8.5 * 3600);
  ASSERT_TRUE(night.found() && rush.found());
  EXPECT_GT(rush.travel_time_s, 1.2 * night.travel_time_s);
}

TEST(Routing, SameSourceAndTargetIsTrivial) {
  const RoadGraph g = test_city();
  SpeedProfiles p;
  const Route r = shortest_path_td(g, p, 5, 5, 0.0);
  ASSERT_TRUE(r.found());
  EXPECT_DOUBLE_EQ(r.travel_time_s, 0.0);
  EXPECT_EQ(r.nodes.size(), 1u);
}

TEST(Routing, RejectsBadArguments) {
  const RoadGraph g = test_city();
  SpeedProfiles p;
  EXPECT_THROW(shortest_path_td(g, p, 0, 100000, 0.0), Error);
  EXPECT_THROW(shortest_path_td(g, p, 0, 1, 0.0, {true, 0.5}), Error);
}

// --------------------------------------------------------------------------
// K alternatives
// --------------------------------------------------------------------------

TEST(Alternatives, ProducesDistinctRoutes) {
  const RoadGraph g = test_city();
  SpeedProfiles p;
  const auto routes = k_alternatives(g, p, 0, 399, 3 * 3600, 3);
  ASSERT_GE(routes.size(), 2u);
  std::set<std::string> distinct;
  for (const auto& r : routes) {
    std::string key;
    for (u32 v : r.nodes) key += std::to_string(v) + ",";
    distinct.insert(key);
  }
  EXPECT_EQ(distinct.size(), routes.size());
  // Sorted best-first and the best is the true optimum.
  const Route opt = shortest_path_td(g, p, 0, 399, 3 * 3600);
  EXPECT_NEAR(routes.front().travel_time_s, opt.travel_time_s, 1e-6);
  for (std::size_t i = 1; i < routes.size(); ++i)
    EXPECT_GE(routes[i].travel_time_s, routes[i - 1].travel_time_s - 1e-9);
}

TEST(Alternatives, KOneIsJustTheShortestPath) {
  const RoadGraph g = test_city();
  SpeedProfiles p;
  const auto routes = k_alternatives(g, p, 3, 388, 0.0, 1);
  ASSERT_EQ(routes.size(), 1u);
}

// --------------------------------------------------------------------------
// Workload generation
// --------------------------------------------------------------------------

TEST(Workload, DiurnalRateModulatesArrivals) {
  const RoadGraph g = test_city();
  Rng rng(23);
  // One hour at night vs one hour at morning rush.
  const auto night =
      diurnal_requests(rng, g, 3600.0, 0.05, 1.0, 3.0 * 3600.0);
  Rng rng2(23);
  const auto rush =
      diurnal_requests(rng2, g, 3600.0, 0.05, 1.0, 8.0 * 3600.0);
  EXPECT_GT(rush.size(), 3 * std::max<std::size_t>(night.size(), 1));
}

TEST(Workload, RequestsSortedAndValid) {
  const RoadGraph g = test_city();
  Rng rng(29);
  const auto reqs = diurnal_requests(rng, g, 7200.0, 0.2, 0.5, 7.5 * 3600.0);
  ASSERT_FALSE(reqs.empty());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (i) {
      EXPECT_GE(reqs[i].arrival_s, reqs[i - 1].arrival_s);
    }
    EXPECT_LT(reqs[i].from, g.num_nodes());
    EXPECT_LT(reqs[i].to, g.num_nodes());
    EXPECT_NE(reqs[i].from, reqs[i].to);
  }
}

// --------------------------------------------------------------------------
// Server
// --------------------------------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : graph_(test_city(31, 30, 30)) {}

  std::vector<Request> load(double rate_hz, double duration_s = 600.0) {
    Rng rng(37);
    return diurnal_requests(rng, graph_, duration_s, rate_hz, 0.0, 12 * 3600.0);
  }

  RoadGraph graph_;
  SpeedProfiles profiles_;
};

TEST_F(ServerTest, ServesAllRequests) {
  NavServer server(graph_, profiles_, 2e-6, 2);
  const auto reqs = load(0.5);
  const auto served = server.serve(
      reqs, [](std::size_t, double) { return ServerKnobs{{true, 1.0}, 1}; });
  EXPECT_EQ(served.size(), reqs.size());
  for (const auto& s : served) {
    EXPECT_GE(s.latency_s, s.service_s);
    EXPECT_GT(s.expanded, 0u);
    EXPECT_DOUBLE_EQ(s.quality, 1.0);  // admissible search
  }
}

TEST_F(ServerTest, OverloadBuildsQueueingDelay) {
  NavServer slow(graph_, profiles_, 5e-5, 1);  // expensive expansions
  const auto reqs = load(2.0);
  const auto served = slow.serve(
      reqs, [](std::size_t, double) { return ServerKnobs{{false, 1.0}, 1}; });
  double max_wait = 0.0;
  for (const auto& s : served) max_wait = std::max(max_wait, s.queue_wait_s);
  EXPECT_GT(max_wait, 0.0);
}

TEST_F(ServerTest, InflatedEpsilonCutsLatencyAtQualityCost) {
  NavServer server(graph_, profiles_, 5e-5, 1);
  const auto reqs = load(1.0);

  auto run = [&](double eps) {
    return server.serve(reqs, [eps](std::size_t, double) {
      return ServerKnobs{{true, eps}, 1};
    });
  };
  const auto exact = run(1.0);
  const auto fast = run(2.5);

  auto p95 = [](const std::vector<ServedRequest>& xs) {
    std::vector<double> lat;
    for (const auto& s : xs) lat.push_back(s.latency_s);
    return percentile(lat, 95);
  };
  auto mean_quality = [](const std::vector<ServedRequest>& xs) {
    double q = 0.0;
    for (const auto& s : xs) q += s.quality;
    return q / static_cast<double>(xs.size());
  };
  EXPECT_LT(p95(fast), p95(exact));
  EXPECT_LT(mean_quality(fast), 1.0);
  EXPECT_GT(mean_quality(fast), 0.55);  // bounded suboptimality
}

TEST_F(ServerTest, KAlternativesCostMoreCompute) {
  NavServer server(graph_, profiles_, 2e-6, 2);
  const auto reqs = load(0.3);
  const auto one = server.serve(
      reqs, [](std::size_t, double) { return ServerKnobs{{true, 1.0}, 1}; });
  const auto three = server.serve(
      reqs, [](std::size_t, double) { return ServerKnobs{{true, 1.0}, 3}; });
  double e1 = 0, e3 = 0;
  for (const auto& s : one) e1 += static_cast<double>(s.expanded);
  for (const auto& s : three) e3 += static_cast<double>(s.expanded);
  EXPECT_GT(e3, 2.0 * e1);
}

TEST_F(ServerTest, AdaptivePolicyShedsLoadUnderBacklog) {
  NavServer server(graph_, profiles_, 2e-3, 1);  // overloaded server
  const auto reqs = load(2.0);
  // Adaptive: degrade precision when a backlog builds.
  const auto adaptive = server.serve(reqs, [](std::size_t backlog, double) {
    return backlog > 1 ? ServerKnobs{{true, 3.0}, 1}
                       : ServerKnobs{{true, 1.0}, 1};
  });
  const auto fixed = server.serve(reqs, [](std::size_t, double) {
    return ServerKnobs{{true, 1.0}, 1};
  });
  auto p95 = [](const std::vector<ServedRequest>& xs) {
    std::vector<double> lat;
    for (const auto& s : xs) lat.push_back(s.latency_s);
    return percentile(lat, 95);
  };
  EXPECT_LT(p95(adaptive), p95(fixed));
}

TEST_F(ServerTest, ConcurrentServeIsDeterministicAcrossThreadCounts) {
  NavServer server(graph_, profiles_, 2e-6, 2);
  const auto reqs = load(0.5);
  ASSERT_FALSE(reqs.empty());

  // Reference run at one thread; routing outcomes must match exactly at any
  // other thread count (backlog sequence depends only on the window bound).
  exec::ThreadPool ref_pool(1);
  const ConcurrentServeResult ref = server.serve_concurrent(
      ref_pool, reqs,
      [](std::size_t backlog, double) {
        // Backlog-sensitive policy on purpose: exercises the deterministic
        // admission-window backlog.
        return ServerKnobs{{true, backlog > 4 ? 1.3 : 1.0}, 1};
      },
      8);
  EXPECT_EQ(ref.served.size(), reqs.size());
  EXPECT_EQ(ref.threads, 1);

  for (int threads : {2, 8}) {
    exec::ThreadPool pool(threads);
    const ConcurrentServeResult r = server.serve_concurrent(
        pool, reqs,
        [](std::size_t backlog, double) {
          return ServerKnobs{{true, backlog > 4 ? 1.3 : 1.0}, 1};
        },
        8);
    ASSERT_EQ(r.served.size(), ref.served.size());
    for (std::size_t i = 0; i < r.served.size(); ++i) {
      EXPECT_EQ(r.served[i].expanded, ref.served[i].expanded) << i;
      EXPECT_EQ(r.served[i].quality, ref.served[i].quality) << i;
      EXPECT_EQ(r.served[i].service_s, ref.served[i].service_s) << i;
      EXPECT_EQ(r.served[i].knobs_used.opts.epsilon,
                ref.served[i].knobs_used.opts.epsilon)
          << i;
    }
    EXPECT_EQ(r.threads, threads);
    EXPECT_GT(r.wall_s, 0.0);
  }
}

TEST_F(ServerTest, ConcurrentServeObserverFiresInSubmissionOrder) {
  NavServer server(graph_, profiles_, 2e-6, 2);
  const auto reqs = load(0.5, 300.0);
  exec::ThreadPool pool(4);
  std::vector<double> arrivals;
  server.serve_concurrent(
      pool, reqs,
      [](std::size_t, double) { return ServerKnobs{{true, 1.0}, 1}; }, 4,
      [&arrivals](const ServedRequest& s) {
        arrivals.push_back(s.request.arrival_s);
      });
  ASSERT_EQ(arrivals.size(), reqs.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i)
    EXPECT_EQ(arrivals[i], reqs[i].arrival_s) << i;
}

TEST_F(ServerTest, ConcurrentServeValidatesArguments) {
  NavServer server(graph_, profiles_);
  exec::ThreadPool pool(1);
  const auto reqs = load(0.2, 120.0);
  EXPECT_THROW(
      server.serve_concurrent(
          pool, reqs,
          [](std::size_t, double) { return ServerKnobs{{true, 1.0}, 1}; }, 0),
      Error);
}

TEST_F(ServerTest, RejectsUnsortedRequests) {
  NavServer server(graph_, profiles_);
  std::vector<Request> bad{{10.0, 0, 1}, {5.0, 1, 2}};
  EXPECT_THROW(server.serve(bad, [](std::size_t, double) {
    return ServerKnobs{};
  }),
               Error);
}

// --------------------------------------------------------------------------
// Graceful degradation (antarex::fault)
// --------------------------------------------------------------------------

TEST_F(ServerTest, FewerHealthyWorkersRaisesWaits) {
  const auto reqs = load(2.0);
  const auto policy = [](std::size_t, double) { return ServerKnobs{}; };

  NavServer healthy(graph_, profiles_, 5e-5, 4);
  NavServer degraded(graph_, profiles_, 5e-5, 4);
  degraded.set_degradation({1, SIZE_MAX, true, 1e-5});  // 3 of 4 crashed

  double wait_h = 0.0, wait_d = 0.0;
  for (const auto& s : healthy.serve(reqs, policy)) wait_h += s.queue_wait_s;
  for (const auto& s : degraded.serve(reqs, policy)) wait_d += s.queue_wait_s;
  EXPECT_GT(wait_d, wait_h);
}

TEST_F(ServerTest, ShedsLoadPastBacklogThreshold) {
  NavServer server(graph_, profiles_, 2e-3, 1);  // overloaded on purpose
  NavServer::Degradation d;
  d.shed_backlog = 3;
  d.serve_stale = false;
  server.set_degradation(d);

  const auto served = server.serve(
      load(3.0), [](std::size_t, double) { return ServerKnobs{}; });
  std::size_t shed = 0;
  for (const auto& s : served) {
    if (s.shed) {
      ++shed;
      EXPECT_EQ(s.expanded, 0u);
      EXPECT_DOUBLE_EQ(s.quality, 0.0);
      EXPECT_DOUBLE_EQ(s.service_s, 0.0);
    }
  }
  EXPECT_GT(shed, 0u);
  EXPECT_LT(shed, served.size());  // the server never degenerates to all-shed
}

TEST_F(ServerTest, ServesStaleResultsWhenCached) {
  NavServer server(graph_, profiles_, 2e-3, 1);
  NavServer::Degradation d;
  d.shed_backlog = 1;  // degrade whenever anything is queued
  server.set_degradation(d);

  // Same od-pair over and over: the first answer warms the cache, later
  // arrivals under backlog get the stale copy instead of being dropped.
  std::vector<Request> reqs;
  for (int i = 0; i < 20; ++i)
    reqs.push_back({static_cast<double>(i) * 0.01, 3, 777});
  const auto served = server.serve(
      reqs, [](std::size_t, double) { return ServerKnobs{}; });
  std::size_t stale = 0;
  for (const auto& s : served)
    if (s.stale) {
      ++stale;
      EXPECT_GT(s.quality, 0.0);  // a real (cached) answer, not a drop
      EXPECT_LT(s.service_s, 1e-4);
    }
  EXPECT_GT(stale, 0u);
}

TEST_F(ServerTest, ConcurrentModeShedsAtWindowPressure) {
  exec::ThreadPool pool(2);
  NavServer server(graph_, profiles_, 2e-6, 2);
  NavServer::Degradation d;
  // Admission backlog is the in-flight count, capped at max_in_flight - 1
  // after a collect, so threshold 1 is the reachable "any pressure" setting.
  d.shed_backlog = 1;
  d.serve_stale = false;
  server.set_degradation(d);
  const auto reqs = load(2.0, 200.0);
  const auto res = server.serve_concurrent(
      pool, reqs, [](std::size_t, double) { return ServerKnobs{}; }, 2);
  std::size_t shed = 0;
  for (const auto& s : res.served)
    if (s.shed) ++shed;
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(res.served.size(), reqs.size());  // every request got an answer
}

}  // namespace
}  // namespace antarex::nav
