// Runtime resource & power management (paper Sec. V) as a standalone demo.
//
// A small heterogeneous cluster (CPU + GPU nodes) runs a job stream while:
//  - a facility power cap is enforced by the hierarchical controllers,
//  - the thermal guard keeps silicon below the critical temperature,
//  - the energy-aware governor picks operating points per workload,
//  - the cooling model translates IT power to facility power across seasons.
//
// Telemetry is enabled for the whole run: the example writes
// power_management_trace.json (open in chrome://tracing or
// https://ui.perfetto.dev), power_management_metrics.json,
// power_management_attribution.json (per-scenario energy attribution via
// antarex::obs), and power_management_report.html (self-contained HTML
// report), and prints the registry summary table at the end.
//
// Build & run:  ./build/examples/power_management
#include <algorithm>
#include <cstdio>

#include "obs/obs.hpp"
#include "power/rapl.hpp"
#include "rtrm/sharded_cluster.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace antarex;
using namespace antarex::rtrm;

/// Two nodes of two Xeons each; node 1 also carries a GPGPU.
void add_nodes(ShardedCluster& cluster) {
  const u32 cpu = cluster.add_spec(power::DeviceSpec::xeon_haswell());
  const u32 gpu = cluster.add_spec(power::DeviceSpec::gpgpu());
  cluster.add_node(60.0, {{cpu, {}}, {cpu, {}}});
  cluster.add_node(60.0, {{cpu, {}}, {cpu, {}}, {gpu, {}}});
}

void submit_stream(ShardedCluster& cluster) {
  for (u64 id = 1; id <= 10; ++id) {
    Job j;
    j.id = id;
    j.name = format("job%llu", static_cast<unsigned long long>(id));
    j.units = 20.0;
    power::WorkloadModel cpu;
    cpu.cpu_gcycles = 20.0;
    cpu.cores_used = 12;
    cpu.mem_seconds = (id % 3 == 0) ? 0.5 : 0.05;
    j.profiles[power::DeviceType::Cpu] = cpu;
    if (id % 2 == 0) {
      power::WorkloadModel gpu;
      gpu.cpu_gcycles = 20.0;
      gpu.cores_used = 2496;
      j.profiles[power::DeviceType::Gpu] = gpu;
    }
    cluster.submit(std::move(j));
  }
}

struct RunStats {
  double makespan = 0.0;
  double peak_w = 0.0;
  double it_kj = 0.0;
  double facility_kj = 0.0;
  double max_temp = 0.0;
};

// The observability rig shared by all scenarios: a simulated RAPL package
// fed the cluster's IT power, the energy accountant sampling it every sim
// step, and the policy engine ticking on the same clock. Scenario runs are
// wrapped in a span so the accountant attributes each scenario's joules to
// its name; time_base_s keeps the driving clock monotonic across the
// scenarios' independent sim clocks.
struct ObsRig {
  power::RaplDomain package{"sim-package"};
  obs::EnergyAccountant accountant;
  obs::PolicyEngine policies;
  double time_base_s = 0.0;
};

RunStats run(ObsRig& rig, const char* scenario, ClusterConfig cfg) {
  telemetry::ScopedSpan span(scenario);
  ShardedClusterConfig scfg;
  scfg.base = cfg;
  scfg.shards = 1;
  ShardedCluster cluster(scfg);
  add_nodes(cluster);
  cluster.add_step_observer([&rig](double now, double it_power_w, double dt) {
    rig.package.accumulate(it_power_w, dt);
    rig.accountant.sample(rig.time_base_s + now);
    rig.policies.tick(rig.time_base_s + now);
  });
  submit_stream(cluster);
  const bool ok = cluster.run_until_idle(5000.0, 0.25);
  rig.time_base_s += cluster.now_s();
  ANTAREX_CHECK(ok, "power_management: cluster failed to drain");
  RunStats s;
  for (const Job& j : cluster.dispatcher().completed_jobs())
    s.makespan = std::max(s.makespan, j.finish_time_s);
  s.peak_w = cluster.telemetry().peak_it_power_w;
  s.it_kj = cluster.telemetry().it_energy_j / 1e3;
  s.facility_kj = cluster.telemetry().facility_energy_j / 1e3;
  s.max_temp = cluster.telemetry().max_temperature_c;
  return s;
}

}  // namespace

int main() {
  std::puts("== ANTAREX runtime resource & power management ==\n");
  telemetry::set_enabled(true);

  ObsRig rig;
  rig.accountant.add_domain(&rig.package);
  rig.accountant.install();
  obs::install_builtin_policies(rig.policies);
  obs::SpanTracker::global().set_policy_engine(&rig.policies);

  Table t({"scenario", "makespan (s)", "peak IT power (W)", "IT energy (kJ)",
           "facility energy (kJ)", "max temp (C)"});

  ClusterConfig base;
  base.governor = GovernorPolicy::Ondemand;
  base.placement = PlacementPolicy::FastestFirst;
  base.ambient_c = 18.0;
  base.control_period_s = 0.25;
  const RunStats uncapped = run(rig, "scenario.uncapped", base);
  t.add_row({"ondemand, uncapped", format("%.1f", uncapped.makespan),
             format("%.0f", uncapped.peak_w), format("%.1f", uncapped.it_kj),
             format("%.1f", uncapped.facility_kj),
             format("%.0f", uncapped.max_temp)});

  ClusterConfig capped = base;
  capped.facility_cap_w = 0.65 * uncapped.peak_w;
  const RunStats cap = run(rig, "scenario.capped", capped);
  t.add_row({format("ondemand, cap %.0f W", *capped.facility_cap_w),
             format("%.1f", cap.makespan), format("%.0f", cap.peak_w),
             format("%.1f", cap.it_kj), format("%.1f", cap.facility_kj),
             format("%.0f", cap.max_temp)});

  ClusterConfig green = base;
  green.governor = GovernorPolicy::EnergyAware;
  const RunStats ea = run(rig, "scenario.energy_aware", green);
  t.add_row({"energy-aware governor", format("%.1f", ea.makespan),
             format("%.0f", ea.peak_w), format("%.1f", ea.it_kj),
             format("%.1f", ea.facility_kj), format("%.0f", ea.max_temp)});

  ClusterConfig summer = green;
  summer.ambient_c = 35.0;
  const RunStats hot = run(rig, "scenario.summer", summer);
  t.add_row({"energy-aware, summer (35 C)", format("%.1f", hot.makespan),
             format("%.0f", hot.peak_w), format("%.1f", hot.it_kj),
             format("%.1f", hot.facility_kj), format("%.0f", hot.max_temp)});

  t.print();

  std::printf("\npower cap: avg IT power %.0f -> %.0f W (peak includes the "
              "boot transient before the controller converges)\n",
              uncapped.it_kj * 1e3 / uncapped.makespan,
              cap.it_kj * 1e3 / cap.makespan);
  std::printf("energy-aware governor: %.1f%% less IT energy than ondemand "
              "(%.1f%% longer makespan)\n",
              100.0 * (1.0 - ea.it_kj / uncapped.it_kj),
              100.0 * (ea.makespan / uncapped.makespan - 1.0));
  std::printf("season: facility energy %.1f -> %.1f kJ (+%.1f%%) at identical "
              "IT work\n",
              ea.facility_kj, hot.facility_kj,
              100.0 * (hot.facility_kj / ea.facility_kj - 1.0));

  std::puts("\n-- energy attribution (who spent the joules) --");
  rig.accountant.by_phase().table("scenario").print();
  std::printf("attributed %.1f kJ over %llu samples; policy fires: "
              "thermal=%llu phase_change=%llu backpressure=%llu\n",
              rig.accountant.attributed_joules() / 1e3,
              static_cast<unsigned long long>(rig.accountant.samples()),
              static_cast<unsigned long long>(
                  rig.policies.fires("thermal.throttle_alert")),
              static_cast<unsigned long long>(
                  rig.policies.fires("tuner.phase_change")),
              static_cast<unsigned long long>(
                  rig.policies.fires("nav.backpressure")));

  std::puts("\n-- telemetry registry after all four scenarios --");
  telemetry::summary_table().print();

  rig.accountant.uninstall();
  obs::SpanTracker::global().set_policy_engine(nullptr);

  const std::string trace_json = telemetry::chrome_trace_json();
  const std::string metrics_json = telemetry::metrics_json();
  const std::string attribution_json = rig.accountant.json();
  telemetry::write_text_file("power_management_trace.json", trace_json);
  telemetry::write_text_file("power_management_metrics.json", metrics_json);
  telemetry::write_text_file("power_management_attribution.json",
                             attribution_json);

  obs::ReportInputs report;
  report.title = "power_management — RTRM scenarios";
  report.trace_json = trace_json;
  report.metrics_json = metrics_json;
  report.attribution_json = attribution_json;
  telemetry::write_text_file("power_management_report.html",
                             obs::html_report(report));

  const auto& trace = telemetry::Registry::global().trace();
  std::printf("\nwrote power_management_trace.json (%zu events, %llu dropped)"
              " — load it in chrome://tracing or ui.perfetto.dev\n"
              "wrote power_management_metrics.json, "
              "power_management_attribution.json\n"
              "wrote power_management_report.html — self-contained; open in "
              "any browser\n",
              trace.size(),
              static_cast<unsigned long long>(trace.dropped()));

  std::puts("\npower_management done.");
  return 0;
}
