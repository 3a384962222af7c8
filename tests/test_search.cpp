// Tests for antarex::search: the surrogate (fit quality, top-K ranking), the genetic engine (domain-respecting operators, elitism,
// duplicate suppression, determinism), the SearchStrategy two-stage flow
// through the Autotuner batch path (convergence + byte-identical
// trajectories across worker counts), and the strategy factory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>

#include "exec/exec.hpp"
#include "search/search.hpp"
#include "tuner/autotuner.hpp"

namespace antarex::search {
namespace {

using tuner::Configuration;
using tuner::DesignSpace;
using tuner::Knob;

DesignSpace three_knob_space() {
  DesignSpace s;
  s.add_knob({"tile", {4, 8, 16, 32, 64, 128, 256}});
  s.add_knob({"unroll", {1, 2, 4, 8}});
  s.add_knob({"threads", {1, 2, 4, 8, 16}});
  return s;
}

/// Landscape exactly in the model family: linear + one interaction over the
/// normalized encodings. The model must fit it to r2 ~ 1.
double planar_cost(const DesignSpace& s, const Configuration& c) {
  const double t = (s.value(c, "tile") - 4.0) / 252.0;
  const double u = (s.value(c, "unroll") - 1.0) / 7.0;
  const double h = (s.value(c, "threads") - 1.0) / 15.0;
  return 2.0 + 1.5 * t - 0.8 * u + 0.6 * h + 0.9 * t * u;
}

/// Curved landscape with a unique interior optimum for convergence tests.
double bowl_cost(const DesignSpace& s, const Configuration& c) {
  const double tile = s.value(c, "tile");
  const double unroll = s.value(c, "unroll");
  const double threads = s.value(c, "threads");
  double v = 1.0;
  v += 0.002 * (tile - 32.0) * (tile - 32.0) / 32.0;
  v += 0.15 * std::fabs(std::log2(unroll / 4.0));
  v += 0.35 * std::fabs(std::log2(threads / 8.0));
  return v;
}

double oracle(const DesignSpace& s,
              double (*cost)(const DesignSpace&, const Configuration&)) {
  double best = 1e300;
  for (std::size_t i = 0; i < s.size(); ++i)
    best = std::min(best, cost(s, s.at(i)));
  return best;
}

// --------------------------------------------------------------------------
// Surrogate: quadratic features, RLS fit, top-K ranking
// --------------------------------------------------------------------------

/// Root-mean-square error of the surrogate over every config in `kb`.
double surrogate_rmse(const tuner::RlsModel& m, const DesignSpace& s,
                      const tuner::Knowledge& kb) {
  double ss = 0.0;
  for (const Configuration& c : kb.configs()) {
    const double err =
        m.predict(quadratic_features(s, c)) - *kb.mean(c, "time_s");
    ss += err * err;
  }
  return std::sqrt(ss / static_cast<double>(kb.distinct_configs()));
}

tuner::Knowledge planar_knowledge(const DesignSpace& s, u64 seed, int n) {
  tuner::Knowledge kb;
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    const Configuration c = tuner::random_config(s, rng);
    kb.observe({c, {{"time_s", planar_cost(s, c)}}});
  }
  return kb;
}

TEST(Surrogate, UnderdeterminedFitIsRejected) {
  const DesignSpace s = three_knob_space();
  // Features: 3 linear + 6 interactions (i <= j); RLS adds the bias.
  EXPECT_EQ(quadratic_features(s, s.at(0)).size(), 3u + 6u);
  tuner::Knowledge kb;
  for (std::size_t i = 0; i < 9; ++i)
    kb.observe({s.at(i * 7), {{"time_s", 1.0 + static_cast<double>(i)}}});
  EXPECT_FALSE(fit_surrogate(s, kb, "time_s"));  // 9 samples, 10 coefficients
  kb.observe({s.at(100), {{"time_s", 3.0}}});
  EXPECT_FALSE(fit_surrogate(s, kb, "energy_j"));  // no sample of the metric
  const auto m = fit_surrogate(s, kb, "time_s");
  ASSERT_TRUE(m);
  EXPECT_EQ(m->updates(), 10u);
}

TEST(Surrogate, FitsItsOwnFamilyExactly) {
  const DesignSpace s = three_knob_space();
  const tuner::Knowledge kb = planar_knowledge(s, 7, 24);
  const auto m = fit_surrogate(s, kb, "time_s");
  ASSERT_TRUE(m);
  EXPECT_LT(surrogate_rmse(*m, s, kb), 1e-6);
  // Out-of-sample prediction is exact too: the landscape is in-family.
  for (std::size_t i = 0; i < s.size(); i += 11)
    EXPECT_NEAR(m->predict(quadratic_features(s, s.at(i))),
                planar_cost(s, s.at(i)), 1e-6);
}

TEST(Surrogate, TopKRanksTheTrueOptimaFirst) {
  const DesignSpace s = three_knob_space();
  const auto m = fit_surrogate(s, planar_knowledge(s, 11, 30), "time_s");
  ASSERT_TRUE(m);

  const auto top = top_k(*m, s, 5, /*minimize=*/true);
  ASSERT_EQ(top.size(), 5u);
  // Distinct, and the first one is the true enumerated optimum.
  std::set<std::string> keys;
  for (const auto& c : top) keys.insert(tuner::config_key(c));
  EXPECT_EQ(keys.size(), top.size());
  double best = 1e300;
  Configuration best_c;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const double v = planar_cost(s, s.at(i));
    if (v < best) {
      best = v;
      best_c = s.at(i);
    }
  }
  EXPECT_EQ(tuner::config_key(top[0]), tuner::config_key(best_c));
  // Predictions are sorted best-first.
  for (std::size_t i = 1; i < top.size(); ++i)
    EXPECT_LE(m->predict(quadratic_features(s, top[i - 1])),
              m->predict(quadratic_features(s, top[i])) + 1e-12);
}

TEST(Surrogate, SampledScanIsDeterministic) {
  const DesignSpace s = three_knob_space();
  const auto m = fit_surrogate(s, planar_knowledge(s, 13, 30), "time_s");
  ASSERT_TRUE(m);
  // Force the sampled path with a scan cap below the space size.
  const auto a = top_k(*m, s, 4, true, /*seed=*/3, /*scan_cap=*/64);
  const auto b = top_k(*m, s, 4, true, /*seed=*/3, /*scan_cap=*/64);
  ASSERT_EQ(a.size(), 4u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(tuner::config_key(a[i]), tuner::config_key(b[i]));
}

// --------------------------------------------------------------------------
// GeneticEngine
// --------------------------------------------------------------------------

TEST(GeneticEngine, ChildrenRespectAnnotatedDomains) {
  DesignSpace s = three_knob_space();
  s.restrict_range("tile", 16, 64);  // candidates shrink to {16, 32, 64}
  GeneticConfig cfg;
  cfg.population = 12;
  GeneticEngine engine(cfg);

  // Parents straddle the annotation (some indices outside the candidates).
  std::vector<Configuration> parents;
  std::vector<double> fitness;
  Rng rng(5);
  for (std::size_t i = 0; i < 8; ++i) {
    Configuration c(3);
    c[0] = i % s.knob(0).values.size();  // includes out-of-annotation tiles
    c[1] = i % s.knob(1).values.size();
    c[2] = i % s.knob(2).values.size();
    parents.push_back(c);
    fitness.push_back(static_cast<double>(i));
  }
  const auto children = engine.next_generation(s, parents, fitness, true, 1);
  ASSERT_EQ(children.size(), cfg.population);
  for (const Configuration& c : children) {
    ASSERT_TRUE(s.valid(c));
    // Elites pass through unchanged (may predate the annotation); every
    // *bred* child must draw from the candidate lists. Elites here are
    // parents[0] and parents[1] by fitness.
    if (c == parents[0] || c == parents[1]) continue;
    for (std::size_t k = 0; k < 3; ++k) {
      const auto& cand = s.candidates(k);
      EXPECT_NE(std::find(cand.begin(), cand.end(), c[k]), cand.end());
    }
  }
}

TEST(GeneticEngine, ElitesSurviveAndGenerationsAreDeterministic) {
  const DesignSpace s = three_knob_space();
  GeneticConfig cfg;
  cfg.population = 10;
  GeneticEngine engine(cfg);

  std::vector<Configuration> parents;
  std::vector<double> fitness;
  Rng rng(9);
  for (int i = 0; i < 10; ++i) {
    parents.push_back(tuner::random_config(s, rng));
    fitness.push_back(bowl_cost(s, parents.back()));
  }
  const std::size_t best =
      static_cast<std::size_t>(std::min_element(fitness.begin(), fitness.end()) -
                               fitness.begin());

  const auto gen_a = engine.next_generation(s, parents, fitness, true, 3);
  const auto gen_b = engine.next_generation(s, parents, fitness, true, 3);
  ASSERT_EQ(gen_a.size(), gen_b.size());
  for (std::size_t i = 0; i < gen_a.size(); ++i)
    EXPECT_EQ(tuner::config_key(gen_a[i]), tuner::config_key(gen_b[i]));

  // The best parent survives verbatim (elitism).
  bool found = false;
  for (const Configuration& c : gen_a)
    if (tuner::config_key(c) == tuner::config_key(parents[best])) found = true;
  EXPECT_TRUE(found);

  // Different generation index => different stream => (generically)
  // different children.
  const auto gen_c = engine.next_generation(s, parents, fitness, true, 4);
  std::string a_keys, c_keys;
  for (const auto& c : gen_a) a_keys += tuner::config_key(c) + ";";
  for (const auto& c : gen_c) c_keys += tuner::config_key(c) + ";";
  EXPECT_NE(a_keys, c_keys);
}

TEST(GeneticEngine, DuplicatesAreSuppressed) {
  const DesignSpace s = three_knob_space();  // 140 configs: room to be distinct
  GeneticConfig cfg;
  cfg.population = 16;
  GeneticEngine engine(cfg);
  std::vector<Configuration> parents;
  std::vector<double> fitness;
  Rng rng(21);
  for (int i = 0; i < 16; ++i) {
    parents.push_back(tuner::random_config(s, rng));
    fitness.push_back(bowl_cost(s, parents.back()));
  }
  const auto children = engine.next_generation(s, parents, fitness, true, 1);
  std::set<std::string> keys;
  for (const Configuration& c : children) keys.insert(tuner::config_key(c));
  EXPECT_EQ(keys.size(), children.size());
}

// --------------------------------------------------------------------------
// SearchStrategy through the Autotuner
// --------------------------------------------------------------------------

TEST(SearchStrategy, ConvergesOnTheBowl) {
  DesignSpace s = three_knob_space();
  const double target = 1.05 * oracle(s, bowl_cost);
  tuner::Autotuner tuner(s, std::make_unique<SearchStrategy>(), {}, 17);
  int evals_to_target = -1;
  for (int i = 1; i <= 140; ++i) {
    const Configuration& c = tuner.next_configuration();
    tuner.report({{"time_s", bowl_cost(tuner.space(), c)}});
    const auto best = tuner.best();
    if (best && bowl_cost(tuner.space(), *best) <= target) {
      evals_to_target = i;
      break;
    }
  }
  ASSERT_GT(evals_to_target, 0) << "no convergence within one space sweep";
  EXPECT_LT(evals_to_target, 100);  // beats exhaustive enumeration
}

TEST(SearchStrategy, TrajectoryIsIdenticalAcrossWorkerCounts) {
  // The acceptance criterion: next_batch generations evaluated on pools of
  // 1, 2, and 8 workers produce byte-identical search trajectories.
  auto run = [](int threads) {
    DesignSpace s = three_knob_space();
    GeneticConfig cfg;
    cfg.seed = 99;
    tuner::Autotuner tuner(s, std::make_unique<SearchStrategy>(cfg), {}, 4);
    exec::ThreadPool pool(threads);
    std::string trajectory;
    for (int round = 0; round < 10; ++round) {
      const auto configs = tuner.next_batch(8);
      for (const auto& c : configs) trajectory += tuner::config_key(c) + ";";
      const auto costs = exec::parallel_map<double>(
          pool, configs.size(), 1,
          [&](std::size_t i) { return bowl_cost(tuner.space(), configs[i]); });
      std::vector<std::map<std::string, double>> metrics;
      for (double v : costs) metrics.push_back({{"time_s", v}});
      tuner.report_batch(metrics);
    }
    const auto best = tuner.best();
    trajectory += "| best " + (best ? tuner::config_key(*best) : "none");
    return trajectory;
  };
  const std::string t1 = run(1);
  EXPECT_EQ(t1, run(2));
  EXPECT_EQ(t1, run(8));
}

TEST(SearchStrategy, ModelIsFitAfterBootstrap) {
  // 3 knobs: 10 coefficients, so generation 0 waits for 15 measured probes.
  DesignSpace s = three_knob_space();
  auto strategy = std::make_unique<SearchStrategy>();
  SearchStrategy* raw = strategy.get();
  tuner::Autotuner tuner(s, std::move(strategy), {}, 23);
  for (int i = 0; i < 15; ++i) {
    const Configuration& c = tuner.next_configuration();
    tuner.report({{"time_s", planar_cost(tuner.space(), c)}});
  }
  EXPECT_EQ(raw->model(), nullptr);  // still probing
  EXPECT_EQ(tuner.knowledge().distinct_configs(), 15u);  // probes are distinct
  // Next decision assembles generation 0 and fits the model.
  const Configuration& c = tuner.next_configuration();
  tuner.report({{"time_s", planar_cost(tuner.space(), c)}});
  ASSERT_NE(raw->model(), nullptr);
  EXPECT_EQ(raw->model()->updates(), 15u);
  // In-family landscape: the fit predicts every measured config.
  EXPECT_LT(surrogate_rmse(*raw->model(), tuner.space(), tuner.knowledge()),
            1e-6);
}

TEST(SearchStrategy, BatchedProbesWaitForReports) {
  // AUTOTUNER-CONVERGENCE's 5-knob, 3840-config space with 16-config
  // batches. next_batch() proposes a whole batch before any of it is
  // reported, so a probe count taken from proposals would assemble
  // generation 0 from 16 measured configs, too few for 21 coefficients.
  DesignSpace s;
  s.add_knob({"tile", {4, 8, 16, 32, 64, 128, 256, 512}});
  s.add_knob({"unroll", {1, 2, 4, 8, 16}});
  s.add_knob({"threads", {1, 2, 4, 8, 16, 32}});
  s.add_knob({"prefetch", {0, 1, 2, 3}});
  s.add_knob({"vector", {1, 2, 4, 8}});
  auto strategy = std::make_unique<SearchStrategy>();
  SearchStrategy* raw = strategy.get();
  tuner::Autotuner tuner(s, std::move(strategy), {}, 3);
  for (int round = 0; round < 10 && raw->generation() == 0; ++round) {
    const auto configs = tuner.next_batch(16);
    std::vector<std::map<std::string, double>> metrics;
    for (const Configuration& c : configs)
      metrics.push_back({{"time_s", 1.0 + c[0] + 2.0 * c[1] + c[2] * c[4]}});
    tuner.report_batch(metrics);
  }
  ASSERT_EQ(raw->generation(), 1u);  // generation 0 was proposed
  ASSERT_NE(raw->model(), nullptr);
}

TEST(SearchStrategy, ResetRestartsTheFlow) {
  DesignSpace s = three_knob_space();
  SearchStrategy strategy;
  tuner::Knowledge kb;
  Rng rng(1);
  std::string first;
  // 15 probes, generation 0 (24 genomes), then the first bred genome.
  for (int i = 0; i < 40; ++i) {
    const Configuration c = strategy.next(s, kb, "time_s", true, rng);
    if (i == 0) first = tuner::config_key(c);
    strategy.observe(s, c, bowl_cost(s, c));
    kb.observe({c, {{"time_s", bowl_cost(s, c)}}});
  }
  EXPECT_EQ(strategy.generation(), 1u);
  EXPECT_NE(strategy.model(), nullptr);
  strategy.reset();
  EXPECT_EQ(strategy.model(), nullptr);
  tuner::Knowledge kb2;
  EXPECT_EQ(tuner::config_key(strategy.next(s, kb2, "time_s", true, rng)),
            first);  // same seeded streams from the top
  EXPECT_EQ(strategy.generation(), 0u);
}

// --------------------------------------------------------------------------
// Strategy factory
// --------------------------------------------------------------------------

template <class T>
bool makes(const std::string& name) {
  auto strategy = make_strategy(name);
  return dynamic_cast<T*>(strategy.get()) != nullptr;
}

TEST(MakeStrategy, ResolvesEveryKnownName) {
  EXPECT_TRUE(makes<tuner::FullSearchStrategy>("flat"));
  EXPECT_TRUE(makes<tuner::FullSearchStrategy>("full-search"));
  EXPECT_TRUE(makes<tuner::EpsilonGreedyStrategy>("epsilon-greedy"));
  EXPECT_TRUE(makes<tuner::ModelGuidedStrategy>("model-guided"));
  EXPECT_TRUE(makes<SearchStrategy>("evolutionary"));
  EXPECT_TRUE(makes<SearchStrategy>("search"));
  EXPECT_THROW(make_strategy("simulated-annealing"), Error);
}

}  // namespace
}  // namespace antarex::search
