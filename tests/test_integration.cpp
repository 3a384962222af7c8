// Cross-module integration tests: the full ANTAREX loops that no single
// library test covers.
//
//  1. profile -> auto-specialize: woven probes feed the ProfileStore, the
//     AutoSpecializer turns hot argument values into installed versions
//     (paper Sec. IV, "fully automatic dynamic optimizations").
//  2. autotuner drives DSL unrolling: the knob is a *code transformation*.
//  3. autotuner drives cluster DVFS: goals expressed on RAPL energy.
//  4. precision tuning driven by monitors and goals.
//  5. the docking pipeline on the simulated heterogeneous cluster.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "cir/analysis.hpp"
#include "cir/parser.hpp"
#include "dock/dock.hpp"
#include "dsl/runtime.hpp"
#include "dsl/weaver.hpp"
#include "passes/const_fold.hpp"
#include "passes/specialize.hpp"
#include "passes/unroll.hpp"
#include "precision/precision.hpp"
#include "rtrm/sharded_cluster.hpp"
#include "tuner/autotuner.hpp"
#include "vm/engine.hpp"

namespace antarex {
namespace {

// --------------------------------------------------------------------------
// 1. Profile-guided automatic specialization
// --------------------------------------------------------------------------

class AutoSpecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    module_ = cir::parse_module(R"(
      int kernel(int size, int x) {
        int s = 0;
        for (int i = 0; i < size; i++) { s = s + x; }
        return s;
      }
      int other(double y, int n) { return n; }
      int driver(int size, int x) { return kernel(size, x); }
    )");
    store_.install(engine_);
    engine_.load_module(*module_);
    weaver_ = std::make_unique<dsl::Weaver>(*module_, &engine_);
    weaver_->load_source(R"(
      aspectdef P
        input fn end
        select fCall end
        apply
          insert before %{profile_args('[[fn]]', '[[$fCall.location]]', [[$fCall.argList]]);}%;
        end
        condition $fCall.name == fn end
      end
    )");
    weaver_->run("P", {dsl::Val::str("kernel")});
    engine_.load_module(*module_);  // reload woven code
  }

  void drive(i64 size, int calls) {
    for (int i = 0; i < calls; ++i)
      engine_.call("driver", {vm::Value::from_int(size), vm::Value::from_int(i)});
  }

  std::unique_ptr<cir::Module> module_;
  vm::Engine engine_;
  dsl::ProfileStore store_;
  std::unique_ptr<dsl::Weaver> weaver_;
};

TEST_F(AutoSpecTest, HotValueGetsSpecializedAutomatically) {
  dsl::AutoSpecializer::Options opts;
  opts.min_calls = 32;
  opts.min_share = 0.6;
  dsl::AutoSpecializer autospec(*module_, engine_, opts);

  drive(48, 40);  // dominant value 48
  EXPECT_EQ(autospec.step(store_), 1u);
  EXPECT_EQ(engine_.version_count("kernel"), 1u);
  ASSERT_NE(module_->find("kernel__size_48"), nullptr);
  // Variant is loop-free (specialize -> fold -> unroll happened).
  EXPECT_TRUE(cir::collect_for_loops(*module_->find("kernel__size_48")).empty());

  // Subsequent calls hit the version and stay correct.
  EXPECT_EQ(engine_.call("driver", {vm::Value::from_int(48), vm::Value::from_int(2)})
                .as_int(),
            96);
  EXPECT_GT(engine_.dispatch_stats("kernel").specialized_hits, 0u);
}

TEST_F(AutoSpecTest, ColdFunctionIsLeftAlone) {
  dsl::AutoSpecializer::Options opts;
  opts.min_calls = 100;
  dsl::AutoSpecializer autospec(*module_, engine_, opts);
  drive(48, 10);  // below min_calls
  EXPECT_EQ(autospec.step(store_), 0u);
  EXPECT_EQ(engine_.version_count("kernel"), 0u);
}

TEST_F(AutoSpecTest, NoDominantValueNoSpecialization) {
  dsl::AutoSpecializer::Options opts;
  opts.min_calls = 32;
  opts.min_share = 0.8;
  dsl::AutoSpecializer autospec(*module_, engine_, opts);
  // Spread BOTH integer arguments so no value dominates at 80%.
  for (i64 s = 0; s < 50; ++s)
    engine_.call("driver",
                 {vm::Value::from_int(8 + (s % 5)), vm::Value::from_int(s % 7)});
  EXPECT_EQ(autospec.step(store_), 0u);
}

TEST_F(AutoSpecTest, StepIsIdempotentPerValue) {
  dsl::AutoSpecializer::Options opts;
  opts.min_calls = 16;
  dsl::AutoSpecializer autospec(*module_, engine_, opts);
  drive(32, 20);
  EXPECT_EQ(autospec.step(store_), 1u);
  EXPECT_EQ(autospec.step(store_), 0u);  // same hot value, nothing new
  drive(64, 200);                        // new dominant value
  EXPECT_EQ(autospec.step(store_), 1u);
  EXPECT_EQ(engine_.version_count("kernel"), 2u);
  EXPECT_EQ(autospec.versions_installed(), 2u);
}

TEST_F(AutoSpecTest, RespectsMaxVersions) {
  dsl::AutoSpecializer::Options opts;
  opts.min_calls = 8;
  opts.min_share = 0.4;
  opts.max_versions = 2;
  dsl::AutoSpecializer autospec(*module_, engine_, opts);
  for (i64 size : {16, 24, 40, 56}) {
    // A fresh store at the same address, which the installed probe feeds.
    store_ = dsl::ProfileStore();
    drive(size, 30);
    autospec.step(store_);
  }
  EXPECT_LE(engine_.version_count("kernel"), 2u);
}

// --------------------------------------------------------------------------
// 1b. Composed aspects: profiling + unrolling woven into the same module
// --------------------------------------------------------------------------

TEST(ComposedAspects, ProfilingAndUnrollingCoexist) {
  // Fig. 2 + Fig. 3 applied to one module, in both orders; semantics must be
  // identical and both effects present.
  const char* app_src = R"(
    int kernel(int x) {
      int s = 0;
      for (int i = 0; i < 6; i++) { s = s + x * i; }
      return s;
    }
    int run(int x) { int a = kernel(x); return a + kernel(x + 1); }
  )";
  const char* aspects = R"(
    aspectdef Profile
      input fn end
      select fCall end
      apply
        insert before %{profile_args('[[fn]]', '[[$fCall.location]]', [[$fCall.argList]]);}%;
      end
      condition $fCall.name == fn end
    end
    aspectdef Unroll
      input $func, threshold end
      select $func.loop{type=='for'} end
      apply
        do LoopUnroll('full');
      end
      condition $loop.isInnermost && $loop.numIter <= threshold end
    end
  )";

  auto weave_both = [&](bool profile_first) {
    auto m = cir::parse_module(app_src);
    dsl::Weaver w(*m);
    w.load_source(aspects);
    auto kernel_jp = std::make_shared<dsl::JoinPoint>();
    kernel_jp->kind = dsl::JoinPoint::Kind::Function;
    kernel_jp->module = m.get();
    kernel_jp->func = m->find("kernel");
    if (profile_first) {
      w.run("Profile", {dsl::Val::str("kernel")});
      w.run("Unroll", {dsl::Val::join_point(kernel_jp), dsl::Val::num(16)});
    } else {
      w.run("Unroll", {dsl::Val::join_point(kernel_jp), dsl::Val::num(16)});
      w.run("Profile", {dsl::Val::str("kernel")});
    }
    EXPECT_EQ(w.stats().inserts, 2u);
    EXPECT_EQ(w.stats().unrolls, 1u);
    return m;
  };

  for (bool profile_first : {true, false}) {
    auto m = weave_both(profile_first);
    EXPECT_TRUE(cir::check_module(*m).empty());
    EXPECT_TRUE(cir::collect_for_loops(*m->find("kernel")).empty());

    vm::Engine engine;
    dsl::ProfileStore store;
    store.install(engine);
    engine.load_module(*m);
    // 0*3+...+5*3 = 45 ; 0*4+...+5*4 = 60.
    EXPECT_EQ(engine.call("run", {vm::Value::from_int(3)}).as_int(), 105);
    EXPECT_EQ(store.profile("kernel").calls, 2u);
  }
}

// --------------------------------------------------------------------------
// 2. Autotuner drives a code transformation knob
// --------------------------------------------------------------------------

TEST(TunerDrivesTransformations, PicksBestUnrollFactor) {
  // Knob = partial-unroll factor; metric = VM instructions. The tuner must
  // find the factor that minimizes interpreted work.
  const char* src =
      "double k(double* a, int n) { double s = 0.0; "
      "for (int i = 0; i < n; i++) { s = s + a[i] * a[i]; } return s; }";

  tuner::DesignSpace space;
  space.add_knob({"factor", {1, 2, 4, 8, 16}});
  tuner::Autotuner tuner(std::move(space),
                         std::make_unique<tuner::FullSearchStrategy>());

  auto measure = [&](int factor) {
    auto m = cir::parse_module(src);
    if (factor > 1) {
      cir::Function* f = m->find("k");
      // The loop bound is dynamic, so only partial unrolling with a static
      // main loop is impossible; emulate the real setup: specialize n=64
      // first (the hot size), then partially unroll.
      cir::Function* v = passes::specialize_function(*m, "k", "n", 64);
      passes::ConstantFoldPass().run(*v);
      auto loops = cir::collect_for_loops(*v);
      if (!loops.empty()) passes::unroll_loop_partial(*v, loops[0], factor);
      f = v;
      vm::Engine e;
      e.load_module(*m);
      auto buf = std::make_shared<std::vector<double>>(64, 1.0);
      e.call(f->name, {vm::Value::from_float_array(buf)});
      return e.executed_instructions();
    }
    vm::Engine e;
    e.load_module(*m);
    auto buf = std::make_shared<std::vector<double>>(64, 1.0);
    e.call("k", {vm::Value::from_float_array(buf), vm::Value::from_int(64)});
    return e.executed_instructions();
  };

  for (int i = 0; i < 8; ++i) {
    const auto& cfg = tuner.next_configuration();
    const int factor = static_cast<int>(tuner.space().value(cfg, "factor"));
    tuner.report({{"time_s", static_cast<double>(measure(factor))}});
  }
  const auto best = tuner.best();
  ASSERT_TRUE(best.has_value());
  // Bigger factors amortize loop control; the best must not be factor 1.
  EXPECT_GT(tuner.space().value(*best, "factor"), 1.0);
}

// --------------------------------------------------------------------------
// 3. Autotuner drives cluster DVFS with an energy objective
// --------------------------------------------------------------------------

TEST(TunerDrivesCluster, FindsEnergyOptimalPStateUnderDeadline) {
  using namespace rtrm;
  const power::DeviceSpec spec = power::DeviceSpec::xeon_haswell();

  power::WorkloadModel w;
  w.cpu_gcycles = 40.0;
  w.cores_used = 12;
  w.mem_seconds = 0.3;

  tuner::DesignSpace space;
  std::vector<double> freqs;
  for (const auto& op : spec.dvfs.points()) freqs.push_back(op.freq_ghz);
  space.add_knob({"freq", freqs});

  tuner::AutotunerConfig cfg;
  cfg.objective = "energy_j";
  cfg.goals = {{"time_s", tuner::Goal::Op::LessThan, 2.2}};
  tuner::Autotuner tuner(std::move(space),
                         std::make_unique<tuner::FullSearchStrategy>(), cfg);

  for (std::size_t i = 0; i < spec.dvfs.size() + 2; ++i) {
    const auto& c = tuner.next_configuration();
    const double f = tuner.space().value(c, "freq");

    // Map knob -> P-state index: the performance governor proposes the top
    // and the global step-down pins the device `top - op` states below it.
    ShardedClusterConfig ccfg;
    ccfg.base.governor = GovernorPolicy::Performance;
    ccfg.base.ambient_c = 22.0;
    ccfg.shards = 1;
    ShardedCluster cluster(ccfg);
    cluster.add_node(0.0, {{cluster.add_spec(spec), {}}});
    for (std::size_t op = 0; op < spec.dvfs.size(); ++op)
      if (spec.dvfs.at(op).freq_ghz == f)
        cluster.set_op_step_down(spec.dvfs.size() - 1 - op);
    Job job;
    job.id = 1;
    job.units = 1.0;
    job.profiles[power::DeviceType::Cpu] = w;
    cluster.submit(std::move(job));
    while (cluster.dispatcher().completed() == 0) cluster.run_for(0.05, 0.05);
    tuner.report({{"energy_j", cluster.device_energy_j(0, 0)},
                  {"time_s", cluster.now_s()}});
  }

  const auto best = tuner.best();
  ASSERT_TRUE(best.has_value());
  const double f_best = tuner.space().value(*best, "freq");
  // Deadline excludes the very low frequencies; energy excludes the top.
  EXPECT_GT(f_best, spec.dvfs.lowest().freq_ghz);
  EXPECT_LT(f_best, spec.dvfs.highest().freq_ghz);
}

// --------------------------------------------------------------------------
// 4. Precision tuning with goals
// --------------------------------------------------------------------------

TEST(PrecisionWithGoals, MeetsQualityGoalAtMinimumEnergy) {
  // The kernel: dot product; the goal: relative error < 1e-5; the objective:
  // energy (from the level's cost model).
  Rng rng(3);
  std::vector<double> a(256), b(256);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.normal(0, 1);
    b[i] = rng.normal(0, 1);
  }
  auto dot = [&](int bits) {
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
      acc = precision::quantize(
          acc + precision::quantize(a[i] * b[i], bits), bits);
    return acc;
  };
  const double ref = dot(52);

  tuner::DesignSpace space;
  const auto levels = precision::standard_levels();
  std::vector<double> bits;
  for (const auto& l : levels) bits.push_back(l.mantissa_bits);
  space.add_knob({"bits", bits});

  tuner::AutotunerConfig cfg;
  cfg.objective = "energy";
  cfg.goals = {{"error", tuner::Goal::Op::LessThan, 1e-5}};
  tuner::Autotuner tuner(std::move(space),
                         std::make_unique<tuner::FullSearchStrategy>(), cfg);

  for (std::size_t i = 0; i < levels.size() + 2; ++i) {
    const auto& c = tuner.next_configuration();
    const int mbits = static_cast<int>(tuner.space().value(c, "bits"));
    double energy = 1.0;
    for (const auto& l : levels)
      if (l.mantissa_bits == mbits) energy = l.energy_per_op;
    tuner.report({{"energy", energy},
                  {"error", precision::relative_error(ref, dot(mbits))}});
  }
  const auto best = tuner.best();
  ASSERT_TRUE(best.has_value());
  // fp32 (23 bits) meets 1e-5 on this kernel; narrower levels do not.
  EXPECT_EQ(tuner.space().value(*best, "bits"), 23.0);
}

// --------------------------------------------------------------------------
// 5. Docking campaign on the heterogeneous cluster
// --------------------------------------------------------------------------

TEST(DockingOnCluster, HeterogeneousPlacementBeatsCpuOnly) {
  using namespace rtrm;
  Rng rng(11);
  const dock::DockParams params;

  auto make_cluster = [&](bool with_gpu) {
    ShardedClusterConfig cfg;
    cfg.base.placement = PlacementPolicy::FastestFirst;
    cfg.base.governor = GovernorPolicy::Ondemand;
    cfg.shards = 1;
    auto cluster = std::make_unique<ShardedCluster>(cfg);
    const u32 cpu = cluster->add_spec(power::DeviceSpec::xeon_haswell());
    if (with_gpu) {
      const u32 gpu = cluster->add_spec(power::DeviceSpec::gpgpu());
      cluster->add_node(60.0, {{cpu, {}}, {gpu, {}}});
    } else {
      cluster->add_node(60.0, {{cpu, {}}});
    }
    return cluster;
  };

  auto submit_campaign = [&](ShardedCluster& cluster, u64 seed) {
    Rng lr(seed);
    for (u64 id = 1; id <= 12; ++id) {
      const dock::Molecule lig = dock::random_ligand(lr, 10, 120);
      Job j;
      j.id = id;
      j.name = "ligand";
      j.units = dock::ligand_cost_units(lig, params);
      power::WorkloadModel cpu;
      cpu.cpu_gcycles = 2.0;
      cpu.cores_used = 12;
      j.profiles[power::DeviceType::Cpu] = cpu;
      power::WorkloadModel gpu;
      gpu.cpu_gcycles = 2.0;
      gpu.cores_used = 2496;  // embarrassingly parallel scoring
      j.profiles[power::DeviceType::Gpu] = gpu;
      cluster.submit(std::move(j));
    }
  };

  auto campaign_finish = [](const ShardedCluster& cluster) {
    double finish = 0.0;
    for (const Job& j : cluster.dispatcher().completed_jobs())
      finish = std::max(finish, j.finish_time_s);
    return finish;
  };

  auto cpu_only = make_cluster(false);
  submit_campaign(*cpu_only, 5);
  ASSERT_TRUE(cpu_only->run_until_idle(100000.0, 0.25));

  auto het = make_cluster(true);
  submit_campaign(*het, 5);
  ASSERT_TRUE(het->run_until_idle(100000.0, 0.25));

  EXPECT_LT(campaign_finish(*het), campaign_finish(*cpu_only));
  EXPECT_EQ(het->dispatcher().completed(), 12u);
  // The GPU actually absorbed work.
  EXPECT_GT(het->device_completed_jobs(0, 1), 0u);
}

}  // namespace
}  // namespace antarex
