// antarex_perf — host-performance benchmark of the ANTAREX stack.
//
//   antarex_perf --workload W --seed S --threads T [--seconds N] [--trace 0|1]
//                [--trace-out FILE] [--smoke]
//
// Runs passes of workload W (see harness.hpp) until the measured work time
// reaches N seconds, checks every pass's outputs, and prints a readable
// summary followed by one JSON line: correctness, attempted and failed
// operations, the end-to-end metrics, the per-layer metrics, the
// deterministic counts and the host calibration score. With --trace 1 it
// alternates untraced and traced passes; the traced ones add the
// telemetry.* metrics, the per-layer self-time split and a Chrome trace.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <set>

#include "causal/critical_path.hpp"
#include "harness.hpp"
#include "support/json.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace perf;
using antarex::format;

const Workload kWorkloads[] = {
    {"toolflow", "the Figure-1 compile flow; cir, dsl, passes, vm and tuner at work",
     &run_toolflow},
    {"dock_campaign", "UC1 docking; coarse tasks of uneven size on the pool",
     &run_dock},
    {"nav_diurnal", "UC2 serving; thousands of fine-grained pool tasks", &run_nav},
    {"fleet_hour", "a governed, monitored 25k-node fleet from power-on", &run_fleet},
};

/// Every per-layer metric. A workload that does not drive a layer reports 0
/// for it; a workload may not report a name outside this list.
const char* const kLayerMetrics[] = {
    "cir.parse_us", "cir.clone_us", "dsl.weave_us", "passes.pipeline_us",
    "vm.compile_us", "vm.call_us", "vm.ops_per_us", "vm.instructions",
    "tuner.decide_us", "rtrm.deploy_us", "cir.busy_pct", "dsl.busy_pct",
    "passes.busy_pct", "vm.busy_pct", "tuner.busy_pct", "rtrm.busy_pct",
    "dock.poses", "dock.ns_per_pose", "nav.expanded", "nav.ns_per_expansion",
    "nav.exact_share", "exec.utilization", "exec.imbalance", "exec.steals",
    "exec.queue_wait_mean_us", "rtrm.plant_ms_per_step",
    "rtrm.control_ms_per_step", "rtrm.full_device_steps", "rtrm.jobs_completed",
    "govern.epoch_ms_per_step", "govern.epochs", "govern.violations",
    "govern.redistributions", "monitor.sample_ms_per_step", "monitor.self_share",
    "monitor.samples", "fault.applied",
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "antarex_perf: %s\n"
               "usage: antarex_perf --workload W --seed S --threads T [--seconds N]\n"
               "                    [--trace 0|1] [--trace-out FILE] [--smoke]\n"
               "workloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  o.threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--threads") {
      o.threads = std::stoi(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      o.trace = value() != "0";
    } else if (arg == "--trace-out") {
      o.trace_out = value();
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.threads < 1) usage("--threads must be at least 1");
  if (!(o.seconds >= 0.0)) usage("--seconds must be non-negative");
  return o;
}

volatile u64 g_calib_sink;

/// Nanoseconds for a fixed integer loop, best of three: a host speed score
/// to normalise results recorded on different machines.
double calibrate_ns() {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    u64 x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    g_calib_sink = x;
    best = std::min(best, seconds_since(t0) * 1e9);
  }
  return best;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// Median of the better half of per-pass values. Every pass does the same
/// work, so passes differ only by load from outside the process, which on a
/// shared host arrives in bursts of seconds; the better half leaves them out.
double median_of_best_half(std::vector<double> xs, bool higher_is_better) {
  if (higher_is_better) {
    std::sort(xs.begin(), xs.end(), std::greater<>());
  } else {
    std::sort(xs.begin(), xs.end());
  }
  xs.resize((xs.size() + 1) / 2);
  return median(std::move(xs));
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  return format("%.17g", v);
}

std::string json_object(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [key, value] : m) {
    if (out.size() > 1) out += ", ";
    out += antarex::json_quote(key) + ": " + json_number(value);
  }
  return out + "}";
}

struct Traced {
  Pass pass;
  SelfTimes self;
  double dropped = 0.0;
  double orphans = 0.0;
};

int run(const Options& opts, const Workload& wl) {
  const double calib_ns = calibrate_ns();
  antarex::exec::ThreadPool pool(opts.threads);
  auto& registry = antarex::telemetry::Registry::global();
  registry.trace().set_capacity(1 << 18);  // holds a whole traced pass

  std::vector<Pass> plain;
  std::vector<Traced> traced;
  double plain_s = 0.0, traced_s = 0.0;
  const double budget = opts.smoke ? 0.0 : opts.trace ? opts.seconds / 2 : opts.seconds;
  const std::size_t min_plain =
      opts.smoke ? (opts.trace ? 1 : 2) : (opts.trace ? 2 : 3);
  const std::size_t min_traced = opts.trace ? (opts.smoke ? 1 : 2) : 0;
  const auto t_run = Clock::now();
  for (int index = 0;; ++index) {
    const bool enough_plain = plain.size() >= min_plain && plain_s >= budget;
    const bool enough_traced =
        traced.size() >= min_traced && (!opts.trace || traced_s >= budget);
    // Past two minutes stop at the minimum, so a slow host still finishes.
    const bool late = seconds_since(t_run) > 120.0;
    if (enough_plain && enough_traced) break;
    if (late && plain.size() >= min_plain && traced.size() >= min_traced) break;

    const bool trace_this =
        opts.trace && !enough_traced && (enough_plain || traced.size() < plain.size());
    if (!trace_this) {
      plain.push_back(wl.run(opts, pool, index));
      plain_s += plain.back().work_s;
      continue;
    }
    registry.reset();
    antarex::telemetry::set_enabled(true);
    self_time_begin();
    Traced t{wl.run(opts, pool, index), {}, 0.0, 0.0};
    t.self = self_time_end();
    antarex::telemetry::set_enabled(false);
    t.dropped = static_cast<double>(registry.trace().dropped());
    t.orphans = static_cast<double>(
        antarex::causal::TraceForest::from_registry().total_orphans());
    traced_s += t.pass.work_s;
    traced.push_back(std::move(t));
  }
  if (!opts.trace_out.empty() && !traced.empty())
    antarex::telemetry::write_text_file(opts.trace_out,
                                        antarex::telemetry::chrome_trace_json());

  // --- correctness -----------------------------------------------------------
  std::vector<const Pass*> all;
  for (const Pass& p : plain) all.push_back(&p);
  for (const Traced& t : traced) all.push_back(&t.pass);
  std::vector<std::string> errors;
  u64 attempted = 0, failed = 0;
  for (const Pass* p : all) {
    attempted += p->attempted;
    failed += p->failed;
    errors.insert(errors.end(), p->errors.begin(), p->errors.end());
    if (p->counts != all.front()->counts)
      errors.push_back("deterministic counts differ between passes");
  }
  std::set<std::string> known(std::begin(kLayerMetrics), std::end(kLayerMetrics));
  for (const Pass* p : all)
    for (const auto& [key, value] : p->layers)
      if (!known.count(key)) errors.push_back("unlisted per-layer metric " + key);
  std::sort(errors.begin(), errors.end());
  errors.erase(std::unique(errors.begin(), errors.end()), errors.end());

  // --- end-to-end metrics (untraced passes) ----------------------------------
  std::map<std::string, double> metrics;
  std::vector<double> setups, rates, works, p50s, p90s;
  for (const Pass& p : plain) {
    setups.push_back(p.setup_s);
    rates.push_back(static_cast<double>(p.ops) / p.work_s);
    works.push_back(p.work_s);
    p50s.push_back(antarex::percentile(p.latency_ms, 50.0));
    p90s.push_back(antarex::percentile(p.latency_ms, 90.0));
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  metrics["setup_s"] = median(setups);
  metrics["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
  metrics["throughput_per_s"] = median_of_best_half(rates, true);
  metrics["latency_p50_ms"] = median_of_best_half(p50s, false);
  metrics["latency_p90_ms"] = median_of_best_half(p90s, false);

  // --- per-layer metrics -----------------------------------------------------
  for (const char* name : kLayerMetrics) {
    std::vector<double> xs;
    for (const Pass& p : plain)
      xs.push_back(p.layers.count(name) ? p.layers.at(name) : 0.0);
    metrics[name] = median(xs);
  }
  std::map<std::string, double> main_share, worker_share;
  if (opts.trace) {
    // Traced and untraced passes alternate; comparing each traced pass with
    // the untraced one before it cancels most of the host's drift.
    std::vector<double> ratios, spans, dropped;
    for (std::size_t i = 0; i < std::min(plain.size(), traced.size()); ++i)
      ratios.push_back(traced[i].pass.work_s / plain[i].work_s);
    double orphans = 0.0, traced_wall = 0.0;
    std::map<std::string, double> main_s, worker_s;
    for (const Traced& t : traced) {
      spans.push_back(static_cast<double>(t.self.spans));
      dropped.push_back(t.dropped);
      orphans = std::max(orphans, t.orphans);
      traced_wall += t.pass.work_s;
      for (const auto& [layer, s] : t.self.main_s) main_s[layer] += s;
      for (const auto& [layer, s] : t.self.worker_s) worker_s[layer] += s;
    }
    metrics["telemetry.trace_overhead_pct"] = 100.0 * (median(ratios) - 1.0);
    metrics["telemetry.spans"] = median(spans);
    metrics["telemetry.dropped"] = median(dropped);
    metrics["causal.orphans"] = orphans;
    for (const auto& [layer, s] : main_s) main_share[layer] = 100.0 * s / traced_wall;
    for (const auto& [layer, s] : worker_s)
      worker_share[layer] = 100.0 * s / (traced_wall * opts.threads);
  }

  // --- report ----------------------------------------------------------------
  std::printf("workload %s: %s\n", wl.name, wl.why);
  std::printf("seed %llu, %d threads: %zu untraced + %zu traced passes, "
              "%.2f s measured\n",
              static_cast<unsigned long long>(opts.seed), opts.threads, plain.size(),
              traced.size(), plain_s + traced_s);
  for (const std::string& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  if (opts.trace) {
    double sum = 0.0;
    for (const auto& [layer, pct] : main_share) sum += pct;
    std::printf("self time on the main thread, %% of traced wall time (sum %.1f%%):\n",
                sum);
    for (const auto& [layer, pct] : main_share)
      std::printf("  %-10s %6.2f%%\n", layer.c_str(), pct);
    if (!worker_share.empty())
      std::printf("self time on pool workers, %% of %d workers x traced wall time:\n",
                  opts.threads);
    for (const auto& [layer, pct] : worker_share)
      std::printf("  %-10s %6.2f%%\n", layer.c_str(), pct);
  }

  std::string json = "{\"workload\": " + antarex::json_quote(wl.name);
  json += format(", \"seed\": %llu, \"threads\": %d, \"passes\": %zu, "
                 "\"traced_passes\": %zu",
                 static_cast<unsigned long long>(opts.seed), opts.threads, plain.size(),
                 traced.size());
  json += std::string(", \"correct\": ") + (errors.empty() ? "true" : "false");
  json += ", \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i)
    json += (i ? ", " : "") + antarex::json_quote(errors[i]);
  json += format("], \"attempted\": %llu, \"failed\": %llu",
                 static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(failed));
  json += ", \"metrics\": " + json_object(metrics);
  json += ", \"counts\": " + json_object(all.front()->counts);
  json += ", \"pass_work_s\": [";
  for (std::size_t i = 0; i < works.size(); ++i)
    json += (i ? ", " : "") + json_number(works[i]);
  json += "]";
  json += ", \"self_share_pct\": " + json_object(main_share);
  json += ", \"worker_share_pct\": " + json_object(worker_share);
  json += ", \"host\": {\"calib_ns\": " + json_number(calib_ns) + "}}";
  std::printf("%s\n", json.c_str());
  return errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  for (const Workload& wl : kWorkloads)
    if (opts.workload == wl.name) {
      try {
        return run(opts, wl);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "antarex_perf: %s\n", e.what());
        return 1;
      }
    }
  usage(("unknown workload " + opts.workload).c_str());
}
