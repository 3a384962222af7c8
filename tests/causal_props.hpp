// Shared property-based invariant suite for antarex::causal.
//
// Each seed builds a randomized request fleet on a real exec::ThreadPool:
// async-submitted requests carrying explicit root trace contexts (with
// random nested span ladders and optional TaskGroup subtasks forked from
// inside the workers), plus parallel_for requests whose chunk tasks inherit
// the caller's context. Invariants checked over the reconstructed forest:
//   1. Causal completeness — one tree per request, every span closed, every
//      span's parent chain reaches the trace root (zero orphans).
//   2. Decomposition sanity — every latency bucket is non-negative, the
//      buckets cover the request (sum >= total, equality for sequential
//      trees), and the decomposed total never exceeds the wall time.
//   3. Determinism — the timestamp-free structure() serialization is
//      byte-identical across 1/2/8 pool workers: work stolen across threads
//      still parents identically.
//
// The suite is instantiated twice: test_fuzz.cpp pulls a small seed range
// into the default tier; test_causal_long.cpp instantiates the 1k-seed
// sweep behind the `long` ctest label.
#pragma once

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "causal/causal.hpp"
#include "exec/pool.hpp"
#include "support/rng.hpp"
#include "telemetry/telemetry.hpp"

namespace antarex::causal {

struct CausalScenarioResult {
  std::size_t requests = 0;
  std::size_t trees = 0;
  std::size_t spans = 0;
  std::size_t orphans = 0;
  bool complete = false;
  std::string structure;  ///< determinism key (timestamp-free)
};

/// Random nested span ladder. TraceEvent stores the name pointer, so every
/// name is a string literal; the shape (depth and which names) is the only
/// random part, drawn from a per-request generator.
inline void span_ladder(Rng& rng, int depth) {
  if (depth <= 0) return;
  switch (rng.index(4)) {
    case 0: {
      TELEMETRY_SPAN("compute");
      span_ladder(rng, depth - 1);
      break;
    }
    case 1: {
      TELEMETRY_SPAN("cache.lookup");
      span_ladder(rng, depth - 1);
      break;
    }
    case 2: {
      TELEMETRY_SPAN("degraded.path");
      span_ladder(rng, depth - 1);
      break;
    }
    default: {
      TELEMETRY_SPAN("step");
      span_ladder(rng, depth - 1);
      break;
    }
  }
}

/// One randomized request fleet at a given pool size. The request shapes
/// are drawn before anything executes, so worker scheduling cannot perturb
/// the generator: everything observable is a pure function of the seed and
/// `threads` must not change the reconstructed structure.
inline CausalScenarioResult run_causal_scenario(u64 seed, int threads) {
  telemetry::Registry::global().reset();
  telemetry::set_enabled(true);
  Rng rng(seed * 0x9e3779b9ULL + 11);

  struct AsyncShape {
    int depth = 1;
    bool subtask = false;
  };
  struct ForShape {
    std::size_t n = 16;
    std::size_t grain = 4;
  };
  std::vector<AsyncShape> async_shapes(8 + rng.index(17));  // 8..24
  for (AsyncShape& s : async_shapes) {
    s.depth = 1 + static_cast<int>(rng.index(4));
    s.subtask = rng.bernoulli(0.5);
  }
  std::vector<ForShape> for_shapes(2 + rng.index(5));  // 2..6
  for (ForShape& s : for_shapes) {
    s.n = 16 + rng.index(49);
    s.grain = 4 + rng.index(13);
  }

  {
    exec::ThreadPool pool(threads);
    exec::TaskGroup subtasks(pool);
    std::vector<std::future<void>> futures;
    futures.reserve(async_shapes.size());
    for (std::size_t i = 0; i < async_shapes.size(); ++i) {
      const telemetry::TraceContext root =
          telemetry::TraceContext::root(i + 1);
      telemetry::mark_scheduled(root);
      const AsyncShape shape = async_shapes[i];
      futures.push_back(pool.async([root, shape, &subtasks] {
        telemetry::ContextScope scope(root);
        TELEMETRY_SPAN("req");
        Rng local(root.trace_id * 0x2545f491'4f6cdd1dULL + 3);
        span_ladder(local, shape.depth);
        if (shape.subtask)
          subtasks.run([] { TELEMETRY_SPAN("subtask"); });
      }));
    }
    for (std::future<void>& f : futures) f.get();
    subtasks.wait();

    // parallel_for requests: the chunks inherit the caller's context and
    // land on whichever worker steals them.
    for (std::size_t j = 0; j < for_shapes.size(); ++j) {
      const telemetry::TraceContext root =
          telemetry::TraceContext::root(1000 + j);
      telemetry::mark_scheduled(root);
      telemetry::ContextScope scope(root);
      TELEMETRY_SPAN("req");
      pool.parallel_for(for_shapes[j].n, for_shapes[j].grain,
                        [](std::size_t b, std::size_t e) {
                          TELEMETRY_SPAN("compute");
                          volatile double acc = 0.0;
                          for (std::size_t k = b; k < e; ++k)
                            acc = acc + static_cast<double>(k);
                          (void)acc;
                        });
    }
  }

  const TraceForest forest = TraceForest::from_registry();
  CausalScenarioResult res;
  res.requests = async_shapes.size() + for_shapes.size();
  res.trees = forest.trees().size();
  res.spans = forest.total_spans();
  res.orphans = forest.total_orphans();
  res.complete = forest.complete();
  res.structure = forest.structure();

  // Per-tree analytic invariants, checked here so both instantiations (the
  // fast slice and the 1k-seed sweep) carry them.
  for (const RequestTree& tree : forest.trees()) {
    EXPECT_NE(tree.root, static_cast<std::size_t>(SIZE_MAX))
        << "tree " << tree.trace_id << " has no unique root span";
    if (tree.root == SIZE_MAX) continue;
    const Decomposition d = decompose(tree);
    EXPECT_GE(d.queue_wait_s, 0.0);
    EXPECT_GE(d.compute_s, 0.0);
    EXPECT_GE(d.cache_hit_s, 0.0);
    EXPECT_GE(d.degraded_s, 0.0);
    EXPECT_GE(d.other_s, 0.0);
    // The buckets cover the request: no wall time goes unaccounted. Strict
    // equality holds for sequential trees; parallel chunks may overlap and
    // be attributed more than once, so >= is the general invariant.
    EXPECT_GE(d.sum(), d.total_s - 1e-9);
    // Wall time: earliest of the sched mark and every span begin, to the
    // latest span end.
    u64 first_ns = tree.sched_ns;
    u64 last_ns = 0;
    for (const SpanNode& s : tree.spans) {
      if (first_ns == 0 || s.begin_ns < first_ns) first_ns = s.begin_ns;
      if (s.end_ns > last_ns) last_ns = s.end_ns;
    }
    const double wall = static_cast<double>(last_ns - first_ns) * 1e-9;
    EXPECT_LE(d.total_s, wall + 1e-9)
        << "decomposed total exceeds wall time in tree " << tree.trace_id;
  }

  telemetry::set_enabled(false);
  return res;
}

class CausalProps : public ::testing::TestWithParam<u64> {};

TEST_P(CausalProps, EverySpanReachesItsRoot) {
  const CausalScenarioResult res = run_causal_scenario(GetParam(), 2);
  EXPECT_EQ(res.trees, res.requests);
  EXPECT_EQ(res.orphans, 0u);
  EXPECT_TRUE(res.complete) << "forest incomplete at seed " << GetParam();
  EXPECT_GE(res.spans, res.requests);  // at least the "req" span per tree
}

TEST_P(CausalProps, ByteIdenticalAcrossPoolSizes) {
  const CausalScenarioResult r1 = run_causal_scenario(GetParam(), 1);
  const CausalScenarioResult r2 = run_causal_scenario(GetParam(), 2);
  const CausalScenarioResult r8 = run_causal_scenario(GetParam(), 8);
  EXPECT_EQ(r1.structure, r2.structure)
      << "structure differs between 1 and 2 workers at seed " << GetParam();
  EXPECT_EQ(r2.structure, r8.structure)
      << "structure differs between 2 and 8 workers at seed " << GetParam();
  EXPECT_TRUE(r1.complete && r2.complete && r8.complete);
}

}  // namespace antarex::causal
