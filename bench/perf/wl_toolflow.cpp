// toolflow: the Figure-1 compile flow as a closed loop with one caller.
//
// Each build cycle takes a seeded six-kernel mini-C app through every box of
// the flow: parse, weave the ProfileArguments aspect, let a flat autotuner
// try eight pass pipelines (clone, optimise, compile, run, report the
// instruction count), then deploy four jobs on a small power-capped plant.
// This is the only workload in which cir, dsl, passes, vm and tuner do work.
#include <memory>
#include <optional>

#include "cir/parser.hpp"
#include "dsl/runtime.hpp"
#include "dsl/weaver.hpp"
#include "harness.hpp"
#include "passes/pass_manager.hpp"
#include "rtrm/sharded_cluster.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "tuner/autotuner.hpp"
#include "vm/engine.hpp"

namespace perf {
namespace {

using namespace antarex;

constexpr int kKernels = 6;
constexpr i64 kArray = 16;
constexpr i64 kReps = 6;

// The flat autotuner's design space: candidate 0 runs no pass, so its
// result is the reference every other candidate must reproduce.
const char* const kPipelines[] = {
    "",
    "fold",
    "dce",
    "fold,dce",
    "strength,fold",
    "unroll:16,fold,dce",
    "inline,fold,dce",
    "fold,dce,unroll:16,fold,dce,strength,inline",
};
constexpr int kCandidates = sizeof(kPipelines) / sizeof(kPipelines[0]);

const char* const kProfileAspect = R"(
  aspectdef ProfileArguments
    input funcName end
    select fCall end
    apply
      insert before %{profile_args('[[funcName]]', '[[$fCall.location]]', [[$fCall.argList]]);}%;
    end
    condition $fCall.name == funcName end
  end
)";

struct App {
  std::string source;
  std::string probed;          ///< kernel whose calls get the probe
  std::vector<i64> input;      ///< the `a` argument
  double job_gcycles = 0.0;    ///< size of each deployed job
};

/// A seeded app: six loop kernels with foldable constants, dead stores,
/// power-of-two multiplies and unrollable trip counts, one small helper the
/// inliner can take, and an entry function that calls every kernel `reps` times.
App make_app(Rng& rng) {
  App app;
  std::string& src = app.source;
  for (int k = 0; k < kKernels; ++k) {
    const i64 init = rng.uniform_int(1, 9);
    const i64 trip = rng.uniform_int(8, 16);
    const i64 offset = rng.uniform_int(0, kArray - 1);
    const i64 mul = i64{1} << rng.uniform_int(1, 3);
    const i64 c1 = rng.uniform_int(1, 9);
    const i64 c2 = rng.uniform_int(1, 9);
    const i64 mod = rng.uniform_int(1000, 9999);
    src += format(
        "int k%d(int* a, int n) {\n"
        "  int acc = %lld;\n"
        "  for (int i = 0; i < %lld; i++) {\n"
        "    int t = a[(i + %lld) %% n] * %lld + (%lld * %lld);\n"
        "    int unused = t * 3;\n"
        "    acc = (acc + t) %% %lld;\n"
        "  }\n"
        "  return acc;\n"
        "}\n",
        k, static_cast<long long>(init), static_cast<long long>(trip),
        static_cast<long long>(offset), static_cast<long long>(mul),
        static_cast<long long>(c1), static_cast<long long>(c2),
        static_cast<long long>(mod));
  }
  src += "int mix(int x, int y) { return (x * 31 + y) % 1000003; }\n";
  src += "int app(int* a, int n, int reps) {\n  int s = 0;\n"
         "  for (int r = 0; r < reps; r++) {\n";
  for (int k = 0; k < kKernels; ++k) src += format("    s = mix(s, k%d(a, n));\n", k);
  src += "    a[r % n] = s % 97;\n  }\n  return s;\n}\n";

  app.probed = format("k%d", static_cast<int>(rng.uniform_int(0, kKernels - 1)));
  for (i64 i = 0; i < kArray; ++i) app.input.push_back(rng.uniform_int(0, 96));
  app.job_gcycles = rng.uniform(10.0, 40.0);
  return app;
}

struct Clocks {
  LayerClock parse, clone, weave, passes, compile, call, tuner, deploy;
  LayerClock free_ast, free_vm;  ///< teardown, counted in busy time only
};

struct BuildOutcome {
  u64 instructions = 0;
  i64 result = 0;
  std::size_t best = 0;
  u64 miscompiled = 0;
  u64 jobs_done = 0;
  u64 device_steps = 0;
  std::size_t inserts = 0;
};

std::vector<vm::Value> app_args(const App& app) {
  return {vm::Value::from_int_array(std::make_shared<std::vector<i64>>(app.input)),
          vm::Value::from_int(kArray), vm::Value::from_int(kReps)};
}

BuildOutcome build(const App& app, Clocks& c) {
  BuildOutcome out;
  std::unique_ptr<cir::Module> module =
      timed(c.parse, "bench.cir", [&] { return cir::parse_module(app.source); });

  dsl::ProfileStore store;
  timed(c.weave, "bench.dsl", [&] {
    dsl::Weaver weaver(*module);
    weaver.load_source(kProfileAspect);
    weaver.run("ProfileArguments", {dsl::Val::str(app.probed)});
    out.inserts = weaver.stats().inserts;
  });

  std::unique_ptr<tuner::Autotuner> autotuner =
      timed(c.tuner, "bench.tuner", [] {
        tuner::DesignSpace space;
        std::vector<double> ids;
        for (int i = 0; i < kCandidates; ++i) ids.push_back(i);
        space.add_knob({"pipeline", ids});
        return std::make_unique<tuner::Autotuner>(
            std::move(space), std::make_unique<tuner::FullSearchStrategy>());
      });

  std::vector<i64> results(kCandidates, 0);
  for (int n = 0; n < kCandidates; ++n) {
    const std::size_t candidate = timed(c.tuner, "bench.tuner", [&] {
      const tuner::Configuration& cfg = autotuner->next_configuration();
      return static_cast<std::size_t>(autotuner->space().value(cfg, "pipeline"));
    });
    std::unique_ptr<cir::Module> variant =
        timed(c.clone, "bench.cir", [&] { return module->clone(); });
    timed(c.passes, "bench.passes", [&] {
      passes::PassManager pm(*variant);
      pm.add_pipeline(kPipelines[candidate]);
      pm.run_all();
    });
    std::optional<vm::Engine> engine;
    timed(c.compile, "bench.vm", [&] {
      engine.emplace();
      store.install(*engine);
      engine->load_module(*variant);
    });
    results[candidate] = timed(c.call, "bench.vm", [&] {
      return engine->call("app", app_args(app)).as_int();
    });
    const u64 instructions = engine->executed_instructions();
    timed(c.free_vm, "bench.vm", [&] { engine.reset(); });
    timed(c.free_ast, "bench.cir", [&] { variant.reset(); });
    out.instructions += instructions;
    timed(c.tuner, "bench.tuner", [&] {
      autotuner->report({{"time_s", static_cast<double>(instructions)}});
    });
  }
  timed(c.free_ast, "bench.cir", [&] { module.reset(); });
  for (i64 r : results) out.miscompiled += r != results[0];
  out.result = results[0];
  out.best = static_cast<std::size_t>(
      autotuner->space().value(*autotuner->best(), "pipeline"));

  timed(c.deploy, "bench.rtrm", [&] {
    rtrm::ShardedClusterConfig cfg;
    cfg.base.governor = rtrm::GovernorPolicy::EnergyAware;
    cfg.base.facility_cap_w = 800.0;
    cfg.shards = 1;
    rtrm::ShardedCluster cluster(cfg);
    const u32 xeon = cluster.add_spec(power::DeviceSpec::xeon_haswell());
    for (int n = 0; n < 2; ++n)
      cluster.add_node(60.0,
                       {{xeon, power::Variability{}}, {xeon, power::Variability{}}});
    for (u64 id = 1; id <= 4; ++id) {
      rtrm::Job job;
      job.id = id;
      job.name = "build";
      job.units = 2.0;
      power::WorkloadModel w;
      w.cpu_gcycles = app.job_gcycles;
      w.cores_used = 12;
      w.mem_seconds = 0.2;
      job.profiles[power::DeviceType::Cpu] = w;
      cluster.submit(std::move(job));
    }
    cluster.run_until_idle(2000.0);
    out.jobs_done = cluster.dispatcher().completed();
    out.device_steps = cluster.full_device_steps();
  });
  return out;
}

}  // namespace

Pass run_toolflow(const Options& opts, exec::ThreadPool& /*pool*/, int /*index*/) {
  Pass p;
  const std::size_t builds = opts.smoke ? 6 : 300;

  const auto t_setup = Clock::now();
  Rng rng(opts.seed);
  std::vector<App> apps;
  apps.reserve(builds);
  for (std::size_t i = 0; i < builds; ++i) apps.push_back(make_app(rng));
  p.setup_s = seconds_since(t_setup);

  Clocks c;
  u64 instructions = 0, miscompiled = 0, jobs_done = 0, device_steps = 0;
  u64 inserts = 0;
  double checksum = 0.0, best_sum = 0.0;
  p.latency_ms.reserve(builds);
  const auto t_work = Clock::now();
  {
    antarex::telemetry::ScopedSpan pass_span("bench.pass");
    for (const App& app : apps) {
      const auto t0 = Clock::now();
      const BuildOutcome b = build(app, c);
      p.latency_ms.push_back(seconds_since(t0) * 1e3);
      instructions += b.instructions;
      miscompiled += b.miscompiled;
      jobs_done += b.jobs_done;
      device_steps += b.device_steps;
      inserts += b.inserts;
      checksum += static_cast<double>(b.result);
      best_sum += static_cast<double>(b.best);
    }
  }
  p.work_s = seconds_since(t_work);

  p.ops = builds;
  p.attempted = builds * (kCandidates + 4);
  p.failed = miscompiled + (builds * 4 - jobs_done);
  p.check(miscompiled == 0,
          format("toolflow: %llu candidates differ from the no-pass output",
                 static_cast<unsigned long long>(miscompiled)));
  p.check(jobs_done == builds * 4,
          format("toolflow: %llu of %zu deployed jobs completed",
                 static_cast<unsigned long long>(jobs_done), builds * 4));
  p.check(inserts >= builds, "toolflow: the aspect wove no probe into a build");

  p.counts["vm.instructions"] = static_cast<double>(instructions);
  p.counts["toolflow.result_checksum"] = checksum;
  p.counts["toolflow.best_pipeline_sum"] = best_sum;
  p.counts["dsl.inserts"] = static_cast<double>(inserts);
  p.counts["rtrm.jobs_completed"] = static_cast<double>(jobs_done);
  p.counts["rtrm.full_device_steps"] = static_cast<double>(device_steps);

  const auto busy_pct = [&](const LayerClock& clock) {
    return 100.0 * clock.seconds / p.work_s;
  };
  p.layers["cir.parse_us"] = c.parse.us_per_call();
  p.layers["cir.clone_us"] = c.clone.us_per_call();
  p.layers["dsl.weave_us"] = c.weave.us_per_call();
  p.layers["passes.pipeline_us"] = c.passes.us_per_call();
  p.layers["vm.compile_us"] = c.compile.us_per_call();
  p.layers["vm.call_us"] = c.call.us_per_call();
  p.layers["vm.ops_per_us"] =
      c.call.seconds > 0.0 ? static_cast<double>(instructions) / (c.call.seconds * 1e6)
                           : 0.0;
  p.layers["vm.instructions"] = static_cast<double>(instructions);
  p.layers["tuner.decide_us"] = c.tuner.us_per_call();
  p.layers["rtrm.deploy_us"] = c.deploy.us_per_call();
  p.layers["rtrm.jobs_completed"] = static_cast<double>(jobs_done);
  p.layers["rtrm.full_device_steps"] = static_cast<double>(device_steps);
  p.layers["cir.busy_pct"] =
      busy_pct(c.parse) + busy_pct(c.clone) + busy_pct(c.free_ast);
  p.layers["dsl.busy_pct"] = busy_pct(c.weave);
  p.layers["passes.busy_pct"] = busy_pct(c.passes);
  p.layers["vm.busy_pct"] =
      busy_pct(c.compile) + busy_pct(c.call) + busy_pct(c.free_vm);
  p.layers["tuner.busy_pct"] = busy_pct(c.tuner);
  p.layers["rtrm.busy_pct"] = busy_pct(c.deploy);
  return p;
}

}  // namespace perf
