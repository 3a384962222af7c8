// Property-based differential testing.
//
// A seeded random mini-C program generator produces well-formed programs;
// properties checked over hundreds of seeds:
//   1. parse -> print -> parse round-trips to identical source,
//   2. every generated program passes the semantic checker,
//   3. every pass pipeline preserves observable behaviour (return value and
//      output-array contents) — the compiler's core soundness property,
//   4. the bytecode compiler/VM agree with themselves across optimization
//      levels (differential execution),
//   5. weaving profiling probes never changes program results.
#include <gtest/gtest.h>

#include "cir/analysis.hpp"
#include "cir/parser.hpp"
#include "cir/printer.hpp"
#include "dsl/runtime.hpp"
#include "dsl/weaver.hpp"
#include "passes/pass_manager.hpp"
#include "program_gen.hpp"
#include "vm/engine.hpp"

namespace antarex {
namespace {

struct RunResult {
  i64 ret = 0;
  std::vector<i64> out;
};

RunResult run_program(const cir::Module& m, i64 p) {
  vm::Engine engine;
  engine.set_instruction_limit(20'000'000);
  engine.load_module(m);
  auto out = std::make_shared<std::vector<i64>>(ProgramGen::kArr, 0);
  const i64 ret =
      engine.call("f", {vm::Value::from_int(p), vm::Value::from_int_array(out)})
          .as_int();
  return {ret, *out};
}

class FuzzSeeds : public ::testing::TestWithParam<u64> {};

TEST_P(FuzzSeeds, GeneratedProgramIsWellFormed) {
  ProgramGen gen(GetParam());
  const std::string src = gen.generate();
  auto m = cir::parse_module(src);
  const auto diags = cir::check_module(*m);
  EXPECT_TRUE(diags.empty()) << src << "\nfirst: "
                             << (diags.empty() ? "" : diags[0].message);
}

TEST_P(FuzzSeeds, PrintParseRoundTrip) {
  ProgramGen gen(GetParam());
  auto m1 = cir::parse_module(gen.generate());
  const std::string p1 = cir::to_source(*m1);
  auto m2 = cir::parse_module(p1);
  EXPECT_EQ(p1, cir::to_source(*m2));
}

TEST_P(FuzzSeeds, AllPipelinesPreserveBehaviour) {
  ProgramGen gen(GetParam());
  const std::string src = gen.generate();
  auto reference_module = cir::parse_module(src);
  const RunResult ref = run_program(*reference_module, 3);

  const char* pipelines[] = {
      "fold",
      "dce",
      "fold,dce",
      "unroll:8",
      "unroll:8,fold,dce",
      "unroll-partial:2",
      "strength,fold",
      "fold,dce,unroll:16,fold,dce,strength,inline",
  };
  for (const char* pipeline : pipelines) {
    auto m = cir::parse_module(src);
    passes::PassManager pm(*m);
    pm.add_pipeline(pipeline);
    pm.run_to_fixpoint(*m->find("f"), 4);
    // Transformed program must still be well formed...
    const auto diags = cir::check_module(*m);
    ASSERT_TRUE(diags.empty())
        << "pipeline '" << pipeline << "' broke the program:\n"
        << cir::to_source(*m) << "\nfirst: " << diags[0].message
        << "\noriginal:\n" << src;
    // ...and observationally equivalent.
    const RunResult got = run_program(*m, 3);
    EXPECT_EQ(got.ret, ref.ret) << "pipeline '" << pipeline << "'\n" << src;
    EXPECT_EQ(got.out, ref.out) << "pipeline '" << pipeline << "'\n" << src;
  }
}

TEST_P(FuzzSeeds, DifferentInputsStayConsistent) {
  // The optimized program must agree with the unoptimized one on several
  // inputs, not just the one used above.
  ProgramGen gen(GetParam());
  const std::string src = gen.generate();
  auto plain = cir::parse_module(src);
  auto opt = cir::parse_module(src);
  passes::PassManager pm(*opt);
  pm.add_pipeline("fold,dce,unroll:16,fold,dce,strength");
  pm.run_to_fixpoint(*opt->find("f"), 4);
  for (i64 p : {-7, 0, 1, 42}) {
    const RunResult a = run_program(*plain, p);
    const RunResult b = run_program(*opt, p);
    EXPECT_EQ(a.ret, b.ret) << "p=" << p << "\n" << src;
    EXPECT_EQ(a.out, b.out) << "p=" << p << "\n" << src;
  }
}

TEST_P(FuzzSeeds, WeavingProbesIsBehaviourPreserving) {
  ProgramGen gen(GetParam());
  // Wrap the generated f in a driver that calls it, so there are call join
  // points to weave.
  const std::string src = gen.generate() +
                          "int driver(int p, int* out) { int a = f(p, out); "
                          "return a + f(p + 1, out); }\n";
  auto plain = cir::parse_module(src);

  auto woven = cir::parse_module(src);
  dsl::Weaver weaver(*woven);
  weaver.load_source(R"(
    aspectdef P
      select fCall{'f'} end
      apply
        insert before %{profile_args('f', 'fuzz', [[$fCall.argList]]);}%;
        insert after %{monitor_end(0);}%;
      end
    end
  )");
  weaver.run("P");
  EXPECT_EQ(weaver.stats().inserts, 4u);  // 2 call sites x 2 inserts

  auto run_driver = [](const cir::Module& m, i64 p) {
    vm::Engine engine;
    engine.set_instruction_limit(40'000'000);
    dsl::ProfileStore store;
    store.install(engine);
    engine.load_module(m);
    auto out = std::make_shared<std::vector<i64>>(ProgramGen::kArr, 0);
    const i64 ret = engine
                        .call("driver", {vm::Value::from_int(p),
                                         vm::Value::from_int_array(out)})
                        .as_int();
    return std::pair<i64, std::vector<i64>>(ret, *out);
  };
  EXPECT_EQ(run_driver(*plain, 5), run_driver(*woven, 5));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         ::testing::Range<u64>(1000, 1040));

}  // namespace
}  // namespace antarex

// ---------------------------------------------------------------------------
// Fault-schedule properties (CI-fast slice).
//
// The same invariant suite the nightly tier sweeps over 1000 seeds
// (test_fault_long.cpp) runs here over a small range so every default test
// run exercises random crash/glitch/throttle schedules end to end: no lost
// jobs, energy conservation, monotone virtual time.
// ---------------------------------------------------------------------------
#include "fault_props.hpp"

namespace antarex::fault {

INSTANTIATE_TEST_SUITE_P(FastSeeds, FaultScheduleProps,
                         ::testing::Range<u64>(1, 49));

}  // namespace antarex::fault

// ---------------------------------------------------------------------------
// Power-governance property sweep (fast slice).
//
// The governance invariant suite the nightly tier sweeps over 1000 seeds
// (test_govern_long.cpp) runs here over a small range so every default test
// run exercises random caps, fairness settings, and crash schedules end to
// end: zero cap violations, budget conservation, no joules lost, no lost
// jobs.
// ---------------------------------------------------------------------------
#include "govern_props.hpp"

namespace antarex::govern {

INSTANTIATE_TEST_SUITE_P(FastSeeds, CapGovernanceProps,
                         ::testing::Range<u64>(1, 49));

}  // namespace antarex::govern

// ---------------------------------------------------------------------------
// Cluster-monitoring property sweep (fast slice).
//
// The monitoring invariant suite the nightly tier sweeps over 1000 seeds
// (test_monitor_long.cpp) runs here over 48 seeds so every default test run
// exercises randomized monitored clusters end to end: frame accounting,
// >= 0.8 precision/recall on injected throttles and slow nodes, determinism
// across 1/2/8-worker pools, and capacity-shaped fabric memory.
// ---------------------------------------------------------------------------
#include "monitor_props.hpp"

namespace antarex::monitor {

INSTANTIATE_TEST_SUITE_P(FastSeeds, MonitorProps, ::testing::Range<u64>(1, 49));

}  // namespace antarex::monitor

// ---------------------------------------------------------------------------
// Design-space search property sweep (fast slice).
//
// The model-seeded evolutionary search invariant suite the nightly tier
// sweeps over 1000 seeds (test_search_long.cpp) runs here over 48 seeds so
// every default test run exercises randomized design spaces end to end:
// bounds-respecting genomes, monotone best-so-far, and byte-identical
// trajectories across 1/2/8-worker pools.
// ---------------------------------------------------------------------------
#include "search_props.hpp"

namespace antarex::search {

INSTANTIATE_TEST_SUITE_P(FastSeeds, SearchProps, ::testing::Range<u64>(1, 49));

}  // namespace antarex::search

// ---------------------------------------------------------------------------
// Causal-propagation property sweep (fast slice).
//
// The request-scoped tracing invariant suite the nightly tier sweeps over
// 1000 seeds (test_causal_long.cpp) runs here over 48 seeds so every default
// test run exercises randomized request fleets on a real work-stealing pool:
// every span reaches its trace root (zero orphans), latency decompositions
// cover the request, and the reconstructed tree structure is byte-identical
// across 1/2/8 workers.
// ---------------------------------------------------------------------------
#include "causal_props.hpp"

namespace antarex::causal {

INSTANTIATE_TEST_SUITE_P(FastSeeds, CausalProps, ::testing::Range<u64>(1, 49));

}  // namespace antarex::causal

// ---------------------------------------------------------------------------
// Sharded-cluster property sweep (fast slice).
//
// The sharding invariant suite the nightly tier sweeps over 1000 seeds
// (test_sharded_long.cpp) runs here over 48 seeds so every default test run
// exercises the SoA engine against randomized heterogeneous plants: energy
// conservation to 1e-9, no lost jobs, monotone virtual time, and
// byte-identical state traces across shard and worker counts.
// ---------------------------------------------------------------------------
#include "sharded_props.hpp"

namespace antarex::rtrm {

INSTANTIATE_TEST_SUITE_P(FastSeeds, ShardedClusterProps,
                         ::testing::Range<u64>(1, 49));

}  // namespace antarex::rtrm

// ---------------------------------------------------------------------------
// Front-end malformed-input sweep (fast slice).
//
// The mutation suite the nightly tier sweeps over 1000 seeds
// (test_front_end_long.cpp) runs here over 48 seeds so every default test run
// feeds both parsers byte-flipped, truncated, spliced and erased mini-C
// programs and LARA aspects: each one parses or throws antarex::Error.
// ---------------------------------------------------------------------------
#include "front_end_props.hpp"

namespace antarex {

INSTANTIATE_TEST_SUITE_P(FastSeeds, FrontEndProps, ::testing::Range<u64>(1, 49));

}  // namespace antarex
