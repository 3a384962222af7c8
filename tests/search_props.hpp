// Shared property-based invariant suite for antarex::search.
//
// Each seed builds a randomized design space (random knob counts, value
// lists, and — on half the seeds — a grey-box annotation) plus a randomized
// smooth cost landscape, then runs the model-seeded evolutionary search
// through the Autotuner batch path with generations evaluated on
// exec::ThreadPools of 1, 2, and 8 workers. Invariants:
//   1. Bounds-respecting genomes — every proposed configuration is valid
//      and every knob index is drawn from the space's candidate list
//      (annotations included).
//   2. Monotone best-so-far — the best known objective never worsens as
//      evaluations accumulate, and finishes at the minimum ever observed.
//   3. Determinism across pool sizes — the full search trajectory (every
//      proposed configuration, in order) and the final best are
//      byte-identical for 1/2/8 workers.
//
// The suite is instantiated twice: test_fuzz.cpp pulls a 48-seed range into
// the default tier; test_search_long.cpp instantiates the 1k-seed sweep
// behind the `long` ctest label.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/exec.hpp"
#include "search/search.hpp"
#include "support/rng.hpp"
#include "tuner/autotuner.hpp"

namespace antarex::search {

struct SearchScenarioResult {
  std::string trajectory;      ///< config_key of every proposal, in order
  double best_cost = 0.0;      ///< objective of the final best()
  double min_observed = 0.0;   ///< lowest cost ever reported
  bool all_in_bounds = true;   ///< invariant 1
  bool best_monotone = true;   ///< invariant 2
  std::size_t evaluations = 0;
};

/// Deterministic smooth landscape with seed-derived coefficients: a convex
/// bowl per knob plus one pairwise interaction term.
inline double scenario_cost(const tuner::DesignSpace& space,
                            const tuner::Configuration& c, u64 seed) {
  Rng coef(seed * 0x9e3779b9ULL + 77);
  double cost = 1.0;
  std::vector<double> xs;
  for (std::size_t i = 0; i < space.knob_count(); ++i) {
    const auto& values = space.knob(i).values;
    const double lo = values.front(), hi = values.back();
    const double x =
        hi > lo ? (space.value(c, i) - lo) / (hi - lo) : 0.0;  // in [0, 1]
    const double opt = coef.uniform(0.1, 0.9);
    const double weight = coef.uniform(0.2, 1.5);
    cost += weight * (x - opt) * (x - opt);
    xs.push_back(x);
  }
  if (xs.size() >= 2) cost += coef.uniform(-0.4, 0.4) * xs[0] * xs[1];
  return cost;
}

inline tuner::DesignSpace scenario_space(u64 seed) {
  Rng rng(seed * 0x9e3779b9ULL + 13);
  tuner::DesignSpace space;
  const std::size_t knobs = 2 + rng.index(3);
  for (std::size_t i = 0; i < knobs; ++i) {
    tuner::Knob k;
    k.name = "k" + std::to_string(i);
    const std::size_t count = 2 + rng.index(5);
    double v = rng.uniform(1.0, 4.0);
    for (std::size_t j = 0; j < count; ++j) {
      k.values.push_back(v);
      v *= rng.uniform(1.5, 2.5);  // ascending, geometric-ish
    }
    space.add_knob(std::move(k));
  }
  if (rng.bernoulli(0.5)) {
    // Grey-box annotation on one knob: drop its extremes when it has enough
    // values to stay non-empty.
    const std::size_t ki = rng.index(knobs);
    const auto& values = space.knob(ki).values;
    if (values.size() >= 3)
      space.restrict_range(space.knob(ki).name, values[1],
                           values[values.size() - 2]);
  }
  return space;
}

inline SearchScenarioResult run_search_scenario(u64 seed, int threads) {
  tuner::DesignSpace space = scenario_space(seed);

  GeneticConfig cfg;
  cfg.seed = seed * 1000003ULL + 5;
  cfg.population = 12;
  tuner::Autotuner tuner(space, std::make_unique<SearchStrategy>(cfg), {},
                         seed + 1);

  exec::ThreadPool pool(threads);
  SearchScenarioResult r;
  r.min_observed = 1e300;
  double last_best = 1e300;
  const std::size_t batch = 4;
  const std::size_t rounds = 14;
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::vector<tuner::Configuration> configs = tuner.next_batch(batch);
    for (const tuner::Configuration& c : configs) {
      r.trajectory += tuner::config_key(c) + ";";
      if (!tuner.space().valid(c)) r.all_in_bounds = false;
      for (std::size_t i = 0; i < c.size() && r.all_in_bounds; ++i) {
        const auto& cand = tuner.space().candidates(i);
        if (std::find(cand.begin(), cand.end(), c[i]) == cand.end())
          r.all_in_bounds = false;
      }
    }
    const std::vector<double> costs = exec::parallel_map<double>(
        pool, configs.size(), 1, [&](std::size_t i) {
          return scenario_cost(tuner.space(), configs[i], seed);
        });
    std::vector<std::map<std::string, double>> metrics;
    for (double c : costs) {
      metrics.push_back({{"time_s", c}});
      r.min_observed = std::min(r.min_observed, c);
    }
    tuner.report_batch(metrics);
    r.evaluations += batch;

    const auto best = tuner.best();
    if (best) {
      const double best_cost = scenario_cost(tuner.space(), *best, seed);
      if (best_cost > last_best + 1e-12) r.best_monotone = false;
      last_best = best_cost;
    }
  }
  r.best_cost = last_best;
  return r;
}

class SearchProps : public ::testing::TestWithParam<u64> {};

TEST_P(SearchProps, PopulationInvariantsHold) {
  const u64 seed = GetParam();
  const SearchScenarioResult one = run_search_scenario(seed, 1);

  // 1. Every genome respects the (annotated) design space.
  EXPECT_TRUE(one.all_in_bounds) << "seed " << seed;

  // 2. Best-so-far never worsens and ends at the observed minimum.
  EXPECT_TRUE(one.best_monotone) << "seed " << seed;
  EXPECT_NEAR(one.best_cost, one.min_observed, 1e-9) << "seed " << seed;

  // 3. Trajectories are byte-identical across 1/2/8 workers.
  const SearchScenarioResult two = run_search_scenario(seed, 2);
  const SearchScenarioResult eight = run_search_scenario(seed, 8);
  EXPECT_EQ(one.trajectory, two.trajectory) << "seed " << seed;
  EXPECT_EQ(one.trajectory, eight.trajectory) << "seed " << seed;
  EXPECT_EQ(one.best_cost, two.best_cost) << "seed " << seed;
  EXPECT_EQ(one.best_cost, eight.best_cost) << "seed " << seed;
}

}  // namespace antarex::search
