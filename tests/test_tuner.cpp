// Tests for the grey-box autotuner: design space & annotations, monitors,
// knowledge base, RLS learner, strategies, the collect-analyse-decide-act
// loop, SLA filtering, and phase-change reaction.
#include <gtest/gtest.h>

#include <cmath>

#include "telemetry/enable.hpp"
#include "tuner/autotuner.hpp"

namespace antarex::tuner {
namespace {

DesignSpace two_knob_space() {
  DesignSpace s;
  s.add_knob({"tile", {8, 16, 32, 64}});
  s.add_knob({"unroll", {1, 2, 4}});
  return s;
}

/// Synthetic objective with a unique optimum at tile=32, unroll=4.
double landscape(double tile, double unroll) {
  return std::fabs(tile - 32.0) * 0.1 + std::fabs(unroll - 4.0) * 0.5 + 1.0;
}

// --------------------------------------------------------------------------
// DesignSpace
// --------------------------------------------------------------------------

TEST(DesignSpace, SizeIsProductOfKnobs) {
  const DesignSpace s = two_knob_space();
  EXPECT_EQ(s.size(), 12u);
  EXPECT_EQ(s.knob_count(), 2u);
}

TEST(DesignSpace, FlatIndexRoundTrip) {
  const DesignSpace s = two_knob_space();
  std::set<std::string> seen;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const Configuration c = s.at(i);
    EXPECT_TRUE(s.valid(c));
    seen.insert(config_key(c));
  }
  EXPECT_EQ(seen.size(), s.size());  // bijective
}

TEST(DesignSpace, ValueLookup) {
  const DesignSpace s = two_knob_space();
  const Configuration c{2, 1};  // tile=32, unroll=2
  EXPECT_DOUBLE_EQ(s.value(c, "tile"), 32.0);
  EXPECT_DOUBLE_EQ(s.value(c, "unroll"), 2.0);
  EXPECT_THROW(s.value(c, "nope"), Error);
}

TEST(DesignSpace, AnnotationsShrinkTheSpace) {
  DesignSpace s = two_knob_space();
  s.restrict_range("tile", 16, 32);  // grey-box code annotation
  EXPECT_EQ(s.size(), 6u);
  for (std::size_t i = 0; i < s.size(); ++i) {
    const double tile = s.value(s.at(i), "tile");
    EXPECT_GE(tile, 16.0);
    EXPECT_LE(tile, 32.0);
  }
}

TEST(DesignSpace, RejectsEmptyRestriction) {
  DesignSpace s = two_knob_space();
  EXPECT_THROW(s.restrict_range("tile", 1000, 2000), Error);
  EXPECT_THROW(s.restrict_range("tile", 32, 16), Error);
}

TEST(DesignSpace, RejectsDuplicateKnobs) {
  DesignSpace s;
  s.add_knob({"k", {1}});
  EXPECT_THROW(s.add_knob({"k", {2}}), Error);
  EXPECT_THROW(s.add_knob({"empty", {}}), Error);
}

// --------------------------------------------------------------------------
// Monitor / Goal
// --------------------------------------------------------------------------

TEST(MonitorTest, WindowStatistics) {
  Monitor m("latency");
  for (int v = 1; v <= 33; ++v) m.push(v);  // one more than the 32-sample window
  EXPECT_EQ(m.samples(), 33u);
  EXPECT_DOUBLE_EQ(m.window_percentile(0), 2.0);  // 1.0 evicted
  EXPECT_DOUBLE_EQ(m.window_percentile(100), 33.0);
}

TEST(MonitorTest, EmptyMonitorThrows) {
  Monitor m("x");
  EXPECT_THROW(m.window_percentile(50), Error);
}

TEST(GoalTest, Satisfaction) {
  const Goal lt{"lat", Goal::Op::LessThan, 10.0};
  EXPECT_TRUE(lt.satisfied_by(9.9));
  EXPECT_FALSE(lt.satisfied_by(10.0));
  const Goal gt{"quality", Goal::Op::GreaterThan, 0.9};
  EXPECT_TRUE(gt.satisfied_by(0.95));
  EXPECT_FALSE(gt.satisfied_by(0.9));
}

// --------------------------------------------------------------------------
// Knowledge
// --------------------------------------------------------------------------

TEST(KnowledgeTest, AggregatesObservations) {
  Knowledge k;
  const Configuration c{0, 1};
  k.observe({c, {{"t", 2.0}}});
  k.observe({c, {{"t", 4.0}}});
  EXPECT_TRUE(k.has(c));
  EXPECT_EQ(k.samples(c), 2u);
  EXPECT_DOUBLE_EQ(*k.mean(c, "t"), 3.0);
  EXPECT_FALSE(k.mean(c, "other").has_value());
  EXPECT_FALSE(k.mean({1, 1}, "t").has_value());
}

TEST(KnowledgeTest, BestRespectsGoals) {
  Knowledge k;
  // Config A: fast but low quality. Config B: slower, good quality.
  k.observe({{0, 0}, {{"t", 1.0}, {"q", 0.5}}});
  k.observe({{1, 0}, {{"t", 2.0}, {"q", 0.95}}});
  const auto unconstrained = k.best("t", true);
  ASSERT_TRUE(unconstrained.has_value());
  EXPECT_EQ(*unconstrained, (Configuration{0, 0}));

  const std::vector<Goal> goals{{"q", Goal::Op::GreaterThan, 0.9}};
  const auto constrained = k.best("t", true, goals);
  ASSERT_TRUE(constrained.has_value());
  EXPECT_EQ(*constrained, (Configuration{1, 0}));

  const std::vector<Goal> impossible{{"q", Goal::Op::GreaterThan, 0.99}};
  EXPECT_FALSE(k.best("t", true, impossible).has_value());
}

TEST(KnowledgeTest, ParetoFrontKeepsOnlyNonDominated) {
  Knowledge k;
  // (time, energy): a=(1,10) b=(2,5) c=(3,6) d=(4,1) — c is dominated by b.
  k.observe({{0, 0}, {{"t", 1.0}, {"e", 10.0}}});
  k.observe({{1, 0}, {{"t", 2.0}, {"e", 5.0}}});
  k.observe({{2, 0}, {{"t", 3.0}, {"e", 6.0}}});
  k.observe({{3, 0}, {{"t", 4.0}, {"e", 1.0}}});
  k.observe({{0, 1}, {{"t", 9.0}}});  // missing energy: excluded

  const auto front = k.pareto_front("t", "e");
  ASSERT_EQ(front.size(), 3u);
  EXPECT_EQ(front[0], (Configuration{0, 0}));
  EXPECT_EQ(front[1], (Configuration{1, 0}));
  EXPECT_EQ(front[2], (Configuration{3, 0}));
}

TEST(KnowledgeTest, ParetoFrontSingleAndEmpty) {
  Knowledge k;
  EXPECT_TRUE(k.pareto_front("t", "e").empty());
  k.observe({{0}, {{"t", 1.0}, {"e", 1.0}}});
  EXPECT_EQ(k.pareto_front("t", "e").size(), 1u);
}

TEST(KnowledgeTest, ParetoFrontTiesOnFirstMetric) {
  Knowledge k;
  k.observe({{0}, {{"t", 1.0}, {"e", 5.0}}});
  k.observe({{1}, {{"t", 1.0}, {"e", 3.0}}});  // same t, better e: dominates
  const auto front = k.pareto_front("t", "e");
  ASSERT_EQ(front.size(), 1u);
  EXPECT_EQ(front[0], (Configuration{1}));
}

TEST(KnowledgeTest, ExportImportRoundTrip) {
  Knowledge k;
  k.observe({{0, 1}, {{"t", 2.0}, {"q", 0.5}}});
  k.observe({{0, 1}, {{"t", 4.0}}});
  k.observe({{2, 0}, {{"t", 9.0}}});

  const std::string text = k.export_text();
  Knowledge restored;
  restored.import_text(text);

  EXPECT_EQ(restored.distinct_configs(), 2u);
  EXPECT_DOUBLE_EQ(*restored.mean({0, 1}, "t"), 3.0);
  EXPECT_DOUBLE_EQ(*restored.mean({0, 1}, "q"), 0.5);
  EXPECT_DOUBLE_EQ(*restored.mean({2, 0}, "t"), 9.0);
  EXPECT_EQ(restored.samples({0, 1}), 2u);
  // best() agrees with the original.
  EXPECT_EQ(*restored.best("t", true), *k.best("t", true));
  // The round trip is byte-stable, so a second hop changes nothing.
  EXPECT_EQ(restored.export_text(), text);
}

TEST(KnowledgeTest, ImportMergesWithRuntimeSamples) {
  // Deploy-time list seeds the mean; runtime observations keep refining it.
  Knowledge k;
  k.import_text("1,1 t 4 10\n");
  k.observe({{1, 1}, {{"t", 20.0}}});
  EXPECT_DOUBLE_EQ(*k.mean({1, 1}, "t"), 12.0);  // (4*10 + 20) / 5
}

TEST(KnowledgeTest, ImportSkipsCommentsAndRejectsGarbage) {
  Knowledge k;
  k.import_text("# operating point list\n\n0 t 1 5.0\n");
  EXPECT_EQ(k.distinct_configs(), 1u);
  EXPECT_THROW(k.import_text("not a valid line"), Error);
  EXPECT_THROW(k.import_text("0 t zero 5.0"), Error);
  EXPECT_THROW(k.import_text("x,y t 1 5.0"), Error);
  // Signed counts and indices, empty indices and non-finite means are
  // rejected, not wrapped to huge values or stored.
  EXPECT_THROW(k.import_text("0 t -1 1.5"), Error);
  EXPECT_THROW(k.import_text("-1 t 2 1.0"), Error);
  EXPECT_THROW(k.import_text("1,,2 t 3 nan"), Error);
  EXPECT_THROW(k.import_text("1,2 t 3 nan"), Error);
  EXPECT_THROW(k.import_text("1,,2 t 3 1.0"), Error);
  EXPECT_THROW(k.import_text("0 t 99999999999999999999999 1.0"), Error);
  EXPECT_EQ(k.distinct_configs(), 1u);
  // A huge count folds in one step instead of one add per sample.
  k.import_text("7 t 1000000000000000 2.5");
  EXPECT_EQ(k.samples({7}), 1000000000000000u);
  EXPECT_DOUBLE_EQ(*k.mean({7}, "t"), 2.5);
}

// --------------------------------------------------------------------------
// RLS learner
// --------------------------------------------------------------------------

TEST(Rls, LearnsLinearFunction) {
  RlsModel m(2, 1.0);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const double a = rng.uniform(-1, 1);
    const double b = rng.uniform(-1, 1);
    m.update({a, b}, 3.0 * a - 2.0 * b + 0.5);
  }
  EXPECT_NEAR(m.predict({1.0, 1.0}), 1.5, 0.01);
  EXPECT_NEAR(m.predict({0.0, 0.0}), 0.5, 0.01);
}

TEST(Rls, ForgettingTracksDrift) {
  RlsModel m(1, 0.90);
  // First regime: y = x. Second regime: y = -x.
  for (int i = 0; i < 100; ++i) m.update({1.0}, 1.0);
  for (int i = 0; i < 100; ++i) m.update({1.0}, -1.0);
  EXPECT_NEAR(m.predict({1.0}), -1.0, 0.05);
}

TEST(Rls, ResetForgetsEverything) {
  RlsModel m(1);
  m.update({1.0}, 5.0);
  m.reset();
  EXPECT_EQ(m.updates(), 0u);
  EXPECT_DOUBLE_EQ(m.predict({1.0}), 0.0);
}

// --------------------------------------------------------------------------
// Strategies
// --------------------------------------------------------------------------

TEST(FullSearch, SweepsEveryConfigurationOnce) {
  DesignSpace s = two_knob_space();
  Knowledge k;
  FullSearchStrategy strat;
  Rng rng(1);
  std::set<std::string> proposed;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const Configuration c = strat.next(s, k, "t", true, rng);
    proposed.insert(config_key(c));
    k.observe({c, {{"t", landscape(s.value(c, "tile"), s.value(c, "unroll"))}}});
  }
  EXPECT_EQ(proposed.size(), s.size());
  // After the sweep: exploit the optimum.
  const Configuration best = strat.next(s, k, "t", true, rng);
  EXPECT_DOUBLE_EQ(s.value(best, "tile"), 32.0);
  EXPECT_DOUBLE_EQ(s.value(best, "unroll"), 4.0);
}

TEST(EpsilonGreedy, EpsilonDecays) {
  EpsilonGreedyStrategy strat(0.5, 0.9);
  DesignSpace s = two_knob_space();
  Knowledge k;
  Rng rng(2);
  for (int i = 0; i < 50; ++i) strat.next(s, k, "t", true, rng);
  EXPECT_LT(strat.epsilon(), 0.01);
  strat.reset();
  EXPECT_DOUBLE_EQ(strat.epsilon(), 0.5);
}

TEST(ModelGuided, ConvergesOnLinearLandscape) {
  DesignSpace s;
  s.add_knob({"x", {0, 1, 2, 3, 4, 5, 6, 7}});
  ModelGuidedStrategy strat;
  Knowledge k;
  Rng rng(3);
  // Objective decreasing in x: optimum at x=7.
  Configuration last;
  for (int i = 0; i < 60; ++i) {
    const Configuration c = strat.next(s, k, "obj", true, rng);
    const double y = 10.0 - s.value(c, "x");
    k.observe({c, {{"obj", y}}});
    strat.observe(s, c, y);
    last = c;
  }
  EXPECT_DOUBLE_EQ(s.value(strat.next(s, k, "obj", true, rng), "x"), 7.0);
}

// --------------------------------------------------------------------------
// Autotuner loop
// --------------------------------------------------------------------------

class FakeApp {
 public:
  explicit FakeApp(double noise = 0.0, u64 seed = 11) : noise_(noise), rng_(seed) {}

  std::map<std::string, double> run(const DesignSpace& s, const Configuration& c) {
    double t = landscape(s.value(c, "tile"), s.value(c, "unroll"));
    if (phase_shifted_) t = landscape(s.value(c, "tile"), 1.0) * 3.0;
    if (noise_ > 0.0) t *= 1.0 + rng_.normal(0.0, noise_);
    return {{"time_s", t}, {"quality", 0.9}};
  }

  void shift_phase() { phase_shifted_ = true; }

 private:
  double noise_;
  Rng rng_;
  bool phase_shifted_ = false;
};

TEST(AutotunerLoop, ConvergesToOptimum) {
  Autotuner tuner(two_knob_space(), std::make_unique<FullSearchStrategy>());
  FakeApp app;
  for (int i = 0; i < 20; ++i) {
    const Configuration& c = tuner.next_configuration();
    tuner.report(app.run(tuner.space(), c));
  }
  const auto best = tuner.best();
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(tuner.space().value(*best, "tile"), 32.0);
  EXPECT_DOUBLE_EQ(tuner.space().value(*best, "unroll"), 4.0);
}

TEST(AutotunerLoop, GreyBoxAnnotationSpeedsConvergence) {
  // Annotated: tile restricted near the optimum -> fewer samples to reach it.
  DesignSpace annotated = two_knob_space();
  annotated.restrict_range("tile", 32, 64);

  auto samples_to_optimum = [](DesignSpace space) {
    Autotuner tuner(std::move(space), std::make_unique<FullSearchStrategy>());
    FakeApp app;
    for (int i = 1; i <= 50; ++i) {
      const Configuration& c = tuner.next_configuration();
      tuner.report(app.run(tuner.space(), c));
      const auto best = tuner.best();
      if (best && tuner.space().value(*best, "tile") == 32.0 &&
          tuner.space().value(*best, "unroll") == 4.0)
        return i;
    }
    return 51;
  };
  EXPECT_LT(samples_to_optimum(std::move(annotated)),
            samples_to_optimum(two_knob_space()));
}

TEST(AutotunerLoop, BatchedEvaluationMatchesSequentialFullSearch) {
  // A batch of k distinct full-search decisions reported in batch order must
  // learn the same knowledge as k sequential next/report iterations.
  Autotuner seq(two_knob_space(), std::make_unique<FullSearchStrategy>());
  Autotuner batched(two_knob_space(), std::make_unique<FullSearchStrategy>());
  FakeApp app_seq, app_batch;

  constexpr std::size_t kBatch = 4;
  for (int round = 0; round < 5; ++round) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      const Configuration& c = seq.next_configuration();
      seq.report(app_seq.run(seq.space(), c));
    }

    const std::vector<Configuration> batch = batched.next_batch(kBatch);
    ASSERT_EQ(batch.size(), kBatch);
    // FullSearch's cursor yields distinct configurations within a batch
    // while the space is still being swept.
    if (round == 0) {
      for (std::size_t i = 1; i < batch.size(); ++i)
        EXPECT_NE(batch[i], batch[0]);
    }
    std::vector<std::map<std::string, double>> metrics;
    for (const Configuration& c : batch)
      metrics.push_back(app_batch.run(batched.space(), c));
    batched.report_batch(metrics);
  }

  EXPECT_EQ(seq.iterations(), batched.iterations());
  const auto best_seq = seq.best();
  const auto best_batch = batched.best();
  ASSERT_TRUE(best_seq.has_value());
  ASSERT_TRUE(best_batch.has_value());
  EXPECT_EQ(*best_seq, *best_batch);
}

TEST(AutotunerLoop, BatchApiValidatesPairing) {
  Autotuner tuner(two_knob_space(), std::make_unique<FullSearchStrategy>());
  EXPECT_THROW(tuner.report_batch({{{"time_s", 1.0}}}), Error);
  EXPECT_THROW(tuner.next_batch(0), Error);

  const auto batch = tuner.next_batch(3);
  // Wrong-size report and interleaved single-shot calls are rejected.
  EXPECT_THROW(tuner.report_batch({{{"time_s", 1.0}}}), Error);
  EXPECT_THROW(tuner.next_batch(2), Error);
  std::vector<std::map<std::string, double>> metrics(batch.size(),
                                                     {{"time_s", 1.0}});
  tuner.report_batch(metrics);
  EXPECT_EQ(tuner.iterations(), 3u);
}

TEST(AutotunerLoop, ReportWithoutNextThrows) {
  Autotuner tuner(two_knob_space(), std::make_unique<FullSearchStrategy>());
  EXPECT_THROW(tuner.report({{"time_s", 1.0}}), Error);
  tuner.next_configuration();
  EXPECT_THROW(tuner.report({{"wrong_metric", 1.0}}), Error);
}

TEST(AutotunerLoop, RepeatedNextIsStableWithoutReport) {
  Autotuner tuner(two_knob_space(), std::make_unique<EpsilonGreedyStrategy>());
  const Configuration a = tuner.next_configuration();
  const Configuration b = tuner.next_configuration();
  EXPECT_EQ(a, b);
}

TEST(AutotunerLoop, DetectsPhaseChangeAndRelearns) {
  AutotunerConfig cfg;
  cfg.min_samples_for_phase = 2;
  Autotuner tuner(two_knob_space(), std::make_unique<FullSearchStrategy>(), cfg);
  FakeApp app;

  // Learn the initial phase thoroughly (sweep + repeats of the best).
  for (int i = 0; i < 40; ++i) {
    const Configuration& c = tuner.next_configuration();
    tuner.report(app.run(tuner.space(), c));
  }
  EXPECT_EQ(tuner.phase_changes(), 0u);

  // Shift the workload: optimal unroll moves and costs triple.
  app.shift_phase();
  for (int i = 0; i < 40; ++i) {
    const Configuration& c = tuner.next_configuration();
    tuner.report(app.run(tuner.space(), c));
  }
  EXPECT_GE(tuner.phase_changes(), 1u);
  // And the tuner re-learned a best configuration for the new phase.
  const auto best = tuner.best();
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(tuner.space().value(*best, "tile"), 32.0);
}

TEST(AutotunerLoop, GoalsFilterBest) {
  AutotunerConfig cfg;
  cfg.goals = {{"quality", Goal::Op::GreaterThan, 0.95}};
  Autotuner tuner(two_knob_space(), std::make_unique<FullSearchStrategy>(), cfg);
  FakeApp app;  // produces quality 0.9 < goal
  for (int i = 0; i < 15; ++i) {
    const Configuration& c = tuner.next_configuration();
    tuner.report(app.run(tuner.space(), c));
  }
  EXPECT_FALSE(tuner.best().has_value());  // nothing meets the SLA
}

TEST(AutotunerLoop, WarmStartFromExportedKnowledge) {
  // Design-time: one tuner explores fully and exports its knowledge
  // ("conveying the results to runtime optimizers", Sec. III-B).
  Autotuner design(two_knob_space(), std::make_unique<FullSearchStrategy>());
  FakeApp app;
  for (int i = 0; i < 20; ++i) {
    const Configuration& c = design.next_configuration();
    design.report(app.run(design.space(), c));
  }
  const std::string exported = design.knowledge().export_text();

  // Deploy-time: a fresh tuner seeds from the list; with epsilon = 0 its very
  // first decision is pure exploitation of the imported knowledge.
  Autotuner deploy(two_knob_space(), std::make_unique<EpsilonGreedyStrategy>(0.0),
                   {}, 123);
  deploy.seed_knowledge(exported);
  const Configuration first = deploy.next_configuration();
  EXPECT_DOUBLE_EQ(deploy.space().value(first, "tile"), 32.0);
  EXPECT_DOUBLE_EQ(deploy.space().value(first, "unroll"), 4.0);
}

TEST(AutotunerLoop, SeedKnowledgeRejectsForeignConfigurations) {
  Autotuner tuner(two_knob_space(), std::make_unique<FullSearchStrategy>());
  // 3 knob indices for a 2-knob space.
  EXPECT_THROW(tuner.seed_knowledge("0,0,0 time_s 1 5.0\n"), Error);
  // Index beyond the knob's value count.
  EXPECT_THROW(tuner.seed_knowledge("9,0 time_s 1 5.0\n"), Error);
}

TEST(AutotunerLoop, NoisyMeasurementsStillConverge) {
  Autotuner tuner(two_knob_space(), std::make_unique<EpsilonGreedyStrategy>(0.5, 0.97),
                  {}, 77);
  FakeApp app(0.05);
  for (int i = 0; i < 300; ++i) {
    const Configuration& c = tuner.next_configuration();
    tuner.report(app.run(tuner.space(), c));
  }
  const auto best = tuner.best();
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(tuner.space().value(*best, "tile"), 32.0);
}

// --------------------------------------------------------------------------
// Poisoned-sample discard (antarex::fault sensor glitches)
// --------------------------------------------------------------------------

TEST(AutotunerPoison, GlitchedSampleIsDiscarded) {
  Autotuner tuner(two_knob_space(), std::make_unique<FullSearchStrategy>(), {}, 5);
  FakeApp app;

  const Configuration& c1 = tuner.next_configuration();
  auto m1 = app.run(tuner.space(), c1);
  // A sensor glitch fires mid-measurement: the report must not be learned.
  telemetry::mark_samples_poisoned();
  tuner.report(m1);
  EXPECT_EQ(tuner.iterations(), 0u);
  EXPECT_EQ(tuner.samples_discarded(), 1u);
  EXPECT_EQ(tuner.knowledge().observations(), 0u);

  // The next clean iteration is learned normally.
  const Configuration& c2 = tuner.next_configuration();
  tuner.report(app.run(tuner.space(), c2));
  EXPECT_EQ(tuner.iterations(), 1u);
  EXPECT_EQ(tuner.samples_discarded(), 1u);
}

TEST(AutotunerPoison, GlitchedBatchIsDiscardedWhole) {
  Autotuner tuner(two_knob_space(), std::make_unique<FullSearchStrategy>(), {}, 5);
  FakeApp app;
  const auto batch = tuner.next_batch(4);
  std::vector<std::map<std::string, double>> metrics;
  for (const auto& c : batch) metrics.push_back(app.run(tuner.space(), c));
  telemetry::mark_samples_poisoned();
  tuner.report_batch(metrics);
  EXPECT_EQ(tuner.iterations(), 0u);
  EXPECT_EQ(tuner.samples_discarded(), 4u);

  // The tuner is not wedged: a fresh batch still works.
  const auto batch2 = tuner.next_batch(2);
  metrics.clear();
  for (const auto& c : batch2) metrics.push_back(app.run(tuner.space(), c));
  tuner.report_batch(metrics);
  EXPECT_EQ(tuner.iterations(), 2u);
}

}  // namespace
}  // namespace antarex::tuner
