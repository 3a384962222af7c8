// Shared harness of the host-performance benchmark (bench/perf).
//
// A run of one workload is a sequence of passes. Every pass sets up its
// inputs from the seed (timed as set-up), does a fixed amount of work through
// the stack's public APIs (timed as work), and checks the outputs. Passes of
// one run are identical, so their deterministic counts must repeat exactly;
// the run repeats passes until the measured work time reaches --seconds.
//
// Per-layer numbers come from timing each public call in the benchmark's own
// code (LayerClock). In a traced pass the same calls are also wrapped in
// `bench.<layer>` spans, so the spans the program emits nest under them, and
// self_time_begin/self_time_end turn the span tree into per-layer self time
// (span minus child spans).
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "exec/pool.hpp"
#include "support/common.hpp"
#include "telemetry/trace.hpp"

namespace perf {

using antarex::u64;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;  ///< measured work time the run must reach
  int threads = 1;        ///< pool workers
  bool trace = false;     ///< alternate untraced and traced passes
  bool smoke = false;     ///< ~1% sized passes, two of them
  std::string trace_out;  ///< Chrome trace of the last traced pass
};

/// Call count and wall time of one layer's public calls.
struct LayerClock {
  u64 calls = 0;
  double seconds = 0.0;

  double us_per_call() const {
    return calls ? seconds * 1e6 / static_cast<double>(calls) : 0.0;
  }
};

/// Run `f` inside a `span` trace span (inert unless telemetry is on) and add
/// its wall time to `clock`. `span` must be a string literal.
template <typename F>
decltype(auto) timed(LayerClock& clock, const char* span, F&& f) {
  antarex::telemetry::ScopedSpan s(span);
  struct Stop {
    LayerClock& c;
    Clock::time_point t0 = Clock::now();
    ~Stop() {
      c.seconds += seconds_since(t0);
      ++c.calls;
    }
  } stop{clock};
  return f();
}

/// What one pass measured.
struct Pass {
  double setup_s = 0.0;
  double work_s = 0.0;
  u64 ops = 0;                      ///< units of work (the throughput numerator)
  std::vector<double> latency_ms;   ///< one sample per user-visible operation
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> errors;  ///< failed output checks
  /// Deterministic outcomes; they must repeat exactly in every pass.
  std::map<std::string, double> counts;
  /// Per-layer metrics of this pass.
  std::map<std::string, double> layers;

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

/// Fill the exec.* layer metrics from pool statistics gathered over `wall_s`.
void add_pool_metrics(Pass& p, const antarex::exec::PoolStats& stats,
                      double wall_s);

struct Workload {
  const char* name;
  const char* why;
  /// One pass; `index` is the pass number within the run (0 first).
  Pass (*run)(const Options& opts, antarex::exec::ThreadPool& pool, int index);
};

Pass run_toolflow(const Options&, antarex::exec::ThreadPool&, int);
Pass run_dock(const Options&, antarex::exec::ThreadPool&, int);
Pass run_nav(const Options&, antarex::exec::ThreadPool&, int);
Pass run_fleet(const Options&, antarex::exec::ThreadPool&, int);

/// Per-layer self time of the spans closed between self_time_begin() and
/// self_time_end(), split into the thread that called begin (the main
/// thread) and every other thread (the pool's workers). A span's layer is its
/// name up to the first '.', after a leading "bench."; the harness's own
/// `bench.pass` root counts as layer "harness".
struct SelfTimes {
  std::map<std::string, double> main_s;
  std::map<std::string, double> worker_s;
  u64 spans = 0;
};

/// Install the span hooks and zero the accounts. Call with no span open.
void self_time_begin();
/// Remove the hooks and return the accounts. Call with no span open and the
/// pool idle.
SelfTimes self_time_end();

}  // namespace perf
