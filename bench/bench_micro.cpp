// Micro-benchmarks (google-benchmark) for the hot paths of the stack:
// mini-C parsing, aspect weaving, select-chain evaluation, VM dispatch
// (generic vs specialized), pass pipelines, routing queries, and docking
// scoring. These back the per-stage cost numbers quoted in EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include <optional>

#include "cir/parser.hpp"
#include "dock/dock.hpp"
#include "dsl/runtime.hpp"
#include "dsl/weaver.hpp"
#include "govern/sharded_cap.hpp"
#include "monitor/fabric.hpp"
#include "nav/nav.hpp"
#include "passes/pass_manager.hpp"
#include "passes/specialize.hpp"
#include "rtrm/sharded_cluster.hpp"
#include "support/strings.hpp"
#include "telemetry/telemetry.hpp"
#include "vm/compiler.hpp"
#include "vm/engine.hpp"

namespace {

using namespace antarex;

constexpr const char* kKernelSrc = R"(
  double kernel(double* a, int n) {
    double acc = 0.0;
    for (int i = 0; i < n; i++) { acc = acc + a[i] * a[i]; }
    return acc;
  }
)";

void BM_MiniCParse(benchmark::State& state) {
  for (auto _ : state) {
    auto m = cir::parse_module(kKernelSrc);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_MiniCParse);

void BM_BytecodeCompile(benchmark::State& state) {
  auto m = cir::parse_module(kKernelSrc);
  for (auto _ : state) {
    auto cf = vm::compile_function(*m->find("kernel"));
    benchmark::DoNotOptimize(cf);
  }
}
BENCHMARK(BM_BytecodeCompile);

void BM_VmKernelCall(benchmark::State& state) {
  auto m = cir::parse_module(kKernelSrc);
  vm::Engine engine;
  engine.load_module(*m);
  auto buf = std::make_shared<std::vector<double>>(
      static_cast<std::size_t>(state.range(0)), 1.5);
  for (auto _ : state) {
    auto v = engine.call("kernel", {vm::Value::from_float_array(buf),
                                    vm::Value::from_int(state.range(0))});
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_VmKernelCall)->Arg(16)->Arg(256);

// Call overhead in the shape of the toolflow app (bench/perf): six loop
// kernels and a helper, called from one entry, with a profile_args probe
// woven before the calls to one kernel — 73 bytecode calls and 6 host
// probe calls per entry call. Items are interpreted instructions.
void BM_VmCallHeavy(benchmark::State& state) {
  std::string src;
  for (int k = 0; k < 6; ++k)
    src += format(
        "int k%d(int* a, int n) { int acc = %d;\n"
        "  for (int i = 0; i < %d; i++) { int t = a[(i + %d) %% n] * 4 + %d;"
        " acc = (acc + t) %% 9973; }\n"
        "  return acc; }\n",
        k, k + 1, 8 + k, 2 * k, 3 * k);
  src += "int mix(int x, int y) { return (x * 31 + y) % 1000003; }\n"
         "int app(int* a, int n, int reps) { int s = 0;\n"
         "  for (int r = 0; r < reps; r++) {\n";
  for (int k = 0; k < 6; ++k) src += format("    s = mix(s, k%d(a, n));\n", k);
  src += "    a[r % n] = s % 97; }\n  return s; }\n";
  auto m = cir::parse_module(src);
  dsl::Weaver weaver(*m);
  weaver.load_source(R"(
    aspectdef P
      input f end
      select fCall end
      apply
        insert before %{profile_args('[[f]]', '[[$fCall.location]]', [[$fCall.argList]]);}%;
      end
      condition $fCall.name == f end
    end
  )");
  weaver.run("P", {dsl::Val::str("k2")});
  vm::Engine engine;
  dsl::ProfileStore store;
  store.install(engine);
  engine.load_module(*m);
  auto a = std::make_shared<std::vector<i64>>(16, 7);
  for (auto _ : state) {
    auto r = engine.call("app", {vm::Value::from_int_array(a), vm::Value::from_int(16),
                                 vm::Value::from_int(6)});
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<i64>(engine.executed_instructions()));
}
BENCHMARK(BM_VmCallHeavy);

void BM_AspectParse(benchmark::State& state) {
  constexpr const char* src = R"(
    aspectdef P
      input f end
      select fCall end
      apply
        insert before %{profile_args('[[f]]', '[[$fCall.location]]', [[$fCall.argList]]);}%;
      end
      condition $fCall.name == f end
    end
  )";
  for (auto _ : state) {
    auto lib = dsl::parse_aspects(src);
    benchmark::DoNotOptimize(lib);
  }
}
BENCHMARK(BM_AspectParse);

void BM_WeaveProfileAspect(benchmark::State& state) {
  std::string app;
  for (int f = 0; f < 8; ++f)
    app += format("int w%d(int a) { return a + %d; }\n", f, f);
  app += "int run(int n) { int acc = 0;\n";
  for (int s = 0; s < 32; ++s) app += format("  acc = acc + w%d(n);\n", s % 8);
  app += "  return acc; }\n";
  constexpr const char* aspect = R"(
    aspectdef P
      input f end
      select fCall end
      apply
        insert before %{profile_args('[[f]]', '[[$fCall.location]]', [[$fCall.argList]]);}%;
      end
      condition $fCall.name == f end
    end
  )";
  for (auto _ : state) {
    state.PauseTiming();
    auto m = cir::parse_module(app);
    dsl::Weaver weaver(*m);
    weaver.load_source(aspect);
    state.ResumeTiming();
    weaver.run("P", {dsl::Val::str("w0")});
    benchmark::DoNotOptimize(weaver.stats().inserts);
  }
}
BENCHMARK(BM_WeaveProfileAspect);

void BM_PassPipeline(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    auto m = cir::parse_module(
        "int f() { int s = 0; for (int i = 0; i < 16; i++) { s = s + i * 2 + 0; } "
        "return s * 1; }");
    state.ResumeTiming();
    passes::PassManager pm(*m);
    pm.add_pipeline("fold,unroll:16,fold,dce,strength");
    pm.run_all();
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_PassPipeline);

void BM_SpecializedDispatch(benchmark::State& state) {
  auto m = cir::parse_module(
      "int kernel(int size, int x) { int s = 0; "
      "for (int i = 0; i < size; i++) s = s + x; return s; }");
  vm::Engine engine;
  engine.load_module(*m);
  const bool specialized = state.range(0) != 0;
  if (specialized) {
    engine.prepare_specialize("kernel", 0);
    cir::Function* v = passes::specialize_function(*m, "kernel", "size", 32);
    passes::PassManager pm(*m);
    pm.add_pipeline("fold,unroll:64,dce");
    pm.run(*v);
    engine.add_version("kernel", 32, vm::compile_function(*v));
  }
  for (auto _ : state) {
    auto r = engine.call("kernel", {vm::Value::from_int(32), vm::Value::from_int(5)});
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SpecializedDispatch)->Arg(0)->Arg(1);

void BM_RoutingQuery(benchmark::State& state) {
  Rng rng(5);
  const nav::RoadGraph city = nav::RoadGraph::grid_city(rng, 32, 32);
  nav::SpeedProfiles profiles;
  const bool astar = state.range(0) != 0;
  for (auto _ : state) {
    auto r = nav::shortest_path_td(city, profiles, 0, 1023, 8.5 * 3600,
                                   {astar, 1.0});
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RoutingQuery)->Arg(0)->Arg(1);

void BM_DockRefinePose(benchmark::State& state) {
  Rng rng(9);
  const dock::AffinityGrid grid = dock::AffinityGrid::synthetic_pocket(rng, 20);
  const dock::Molecule mol = dock::random_ligand(rng, 30, 60);
  dock::Pose start;
  start.tx = start.ty = start.tz = 9.0;
  dock::RefineParams params;
  params.steps = 100;
  for (auto _ : state) {
    Rng r(11);
    benchmark::DoNotOptimize(dock::refine_pose(grid, mol, start, params, r));
  }
}
BENCHMARK(BM_DockRefinePose);

void BM_DockScorePose(benchmark::State& state) {
  Rng rng(9);
  const dock::AffinityGrid grid = dock::AffinityGrid::synthetic_pocket(rng, 20);
  const dock::Molecule mol = dock::random_ligand(rng, 30, 60);
  dock::Pose pose;
  pose.tx = pose.ty = pose.tz = 9.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dock::score_pose(grid, mol, pose));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<i64>(mol.atoms.size()));
}
BENCHMARK(BM_DockScorePose);

// One global dock of a 40-atom ligand with default DockParams (24 rotations
// x 64 translations, pruned); items are the poses it scored.
void BM_DockLigand(benchmark::State& state) {
  Rng rng(9);
  const dock::AffinityGrid grid = dock::AffinityGrid::synthetic_pocket(rng, 24);
  const dock::Molecule mol = dock::random_ligand(rng, 40, 40);
  i64 poses = 0;
  for (auto _ : state) {
    Rng r(11);
    const dock::DockResult res = dock::dock_ligand(grid, mol, {}, r);
    poses += static_cast<i64>(res.poses_evaluated);
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(poses);
}
BENCHMARK(BM_DockLigand);

// Per-tick cluster stepping cost of the sharded SoA plant. The fleet is
// pre-settled (one long warm-up run) so the calendar holds only parked
// nodes: the steady-state tick is what an exascale-length run pays almost
// everywhere, and a parking regression shows up here as a jump from
// nanoseconds to a cost proportional to the node count.
void BM_ClusterTickSharded(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  rtrm::ShardedClusterConfig cfg;
  cfg.shards = std::max<std::size_t>(8, nodes / 1024);
  rtrm::ShardedCluster cluster(cfg);
  rtrm::ClusterBlueprint::exascale(7, nodes).build(cluster);
  cluster.run_for(600.0, 0.25);  // park the fleet at its thermal fixed point
  for (auto _ : state) cluster.run_for(0.25, 0.25);
  state.SetItemsProcessed(state.iterations() * static_cast<i64>(nodes));
}
BENCHMARK(BM_ClusterTickSharded)->Arg(256)->Arg(1024)->Arg(16384);

// Cluster tick of a 1,024-node fleet whose devices are still cooling from
// their boot temperature towards their idle fixed point, so every device
// runs the full step math. The fleet is rebuilt (untimed) every 64 ticks,
// long before any device parks (~1,700 ticks at this dt). Per node.
void BM_ClusterTickWarm(benchmark::State& state) {
  constexpr std::size_t kNodes = 1024;
  constexpr int kTicksPerFleet = 64;
  const auto blueprint = rtrm::ClusterBlueprint::exascale(7, kNodes);
  rtrm::ShardedClusterConfig cfg;
  cfg.shards = 8;
  std::optional<rtrm::ShardedCluster> cluster;
  int ticks = kTicksPerFleet;
  for (auto _ : state) {
    if (ticks == kTicksPerFleet) {
      state.PauseTiming();
      cluster.emplace(cfg);
      blueprint.build(*cluster);
      ticks = 0;
      state.ResumeTiming();
    }
    cluster->run_for(0.25, 0.25);
    ++ticks;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<i64>(kNodes));
}
BENCHMARK(BM_ClusterTickWarm);

// The govern control hook per node: a settled 1,024-node fleet under a
// ShardedCapCoordinator whose cap sits 5% above the fleet's idle floor (as in
// fleet_hour), with a control step on every tick. The hook clamps every live
// node to its budget; the epoch never closes, so no renegotiation is timed.
// The parked tick it rides on is BM_ClusterTickSharded's ~360 ns per fleet.
void BM_CapControl(benchmark::State& state) {
  constexpr std::size_t kNodes = 1024;
  constexpr double kDt = 0.25;
  rtrm::ShardedClusterConfig cfg;
  cfg.shards = 8;
  cfg.base.control_period_s = kDt;
  rtrm::ShardedCluster cluster(cfg);
  rtrm::ClusterBlueprint::exascale(7, kNodes).build(cluster);
  cluster.run_for(600.0, kDt);
  double floor_w = 0.0;
  for (std::size_t i = 0; i < kNodes; ++i) floor_w += cluster.node_floor_w(i);
  govern::ShardedCapConfig cap_cfg;
  cap_cfg.cluster_cap_w = 1.05 * floor_w;
  cap_cfg.epoch_s = 1e9;
  govern::ShardedCapCoordinator cap(cluster, cap_cfg);
  cap.attach();
  cluster.run_for(4 * kDt, kDt);  // let the first clamps settle
  for (auto _ : state) cluster.run_for(kDt, kDt);
  state.SetItemsProcessed(state.iterations() * static_cast<i64>(kNodes));
}
BENCHMARK(BM_CapControl);

// Monitor cost per node-sample: the settled 1,024-node fleet from above with
// a MonitorFabric sampling every step (sample_period_s == dt). One item is
// one node sampled, published, aggregated and run through the detector; the
// parked plant's own tick is the nanosecond floor BM_ClusterTickSharded
// measures.
void BM_MonitorSample(benchmark::State& state) {
  constexpr std::size_t kNodes = 1024;
  constexpr double kDt = 0.25;
  rtrm::ShardedClusterConfig cfg;
  cfg.shards = 8;
  rtrm::ShardedCluster cluster(cfg);
  rtrm::ClusterBlueprint::exascale(7, kNodes).build(cluster);
  cluster.run_for(600.0, kDt);
  monitor::FabricConfig fcfg;
  fcfg.sample_period_s = kDt;
  monitor::MonitorFabric fabric(fcfg);
  fabric.attach(cluster);
  cluster.run_for(kDt, kDt);  // the first sweep only primes RAPL readings
  const u64 before = fabric.samples();
  for (auto _ : state) cluster.run_for(kDt, kDt);
  state.SetItemsProcessed(static_cast<i64>((fabric.samples() - before) * kNodes));
}
BENCHMARK(BM_MonitorSample);

// One TELEMETRY_SPAN opened and closed outside any causal context. Arg 0 runs
// with telemetry off, which should cost the one relaxed load DESIGN promises;
// arg 1 with it on: two clock reads and two locked pushes into the trace
// buffer. The buffer is emptied before it fills, so the on case never takes
// the cheaper drop path.
void BM_SpanEmission(benchmark::State& state) {
  const telemetry::ScopedEnable enable(state.range(0) != 0);
  telemetry::TraceBuffer& trace = telemetry::Registry::global().trace();
  trace.clear();
  const std::size_t spans_per_fill = trace.capacity() / 2;
  std::size_t spans = 0;
  for (auto _ : state) {
    { TELEMETRY_SPAN("bench.span"); }
    if (++spans == spans_per_fill) {
      trace.clear();
      spans = 0;
    }
  }
  trace.clear();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanEmission)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
