// The process-wide metric registry: named counters, gauges, fixed-bucket
// histograms, windowed series, and the trace buffer.
//
// Hot-path contract: instrument sites cache the reference returned by
// counter()/gauge()/histogram() (the TELEMETRY_* macros do this with a
// function-local static), so the map lookup happens once per site and each
// update is an enabled() branch plus a handful of relaxed atomic ops.
//
// Concurrency contract (hardened for the antarex::exec worker pool): every
// registry operation is safe from any thread. Registration/first-touch is
// mutex-guarded (and the macros' function-local statics are C++ magic
// statics, so concurrent first-touch of one site initializes exactly once);
// Counter/Gauge/Histogram updates are lock-free atomics; Series and the
// trace buffer take a private mutex (they hold non-trivial state). reset()
// zeroes metrics in place and never destroys them, so cached references stay
// valid even when reset() races with updates — a racing update may land
// before or after the zeroing, but never corrupts.
#pragma once

#include <atomic>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "support/common.hpp"
#include "support/stats.hpp"
#include "telemetry/enable.hpp"
#include "telemetry/trace.hpp"

namespace antarex::telemetry {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(u64 n = 1) {
    if (!enabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void inc() { add(1); }
  u64 value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<u64> value_{0};
};

/// Last-value metric with min/max envelope (queue depths, power draw,
/// per-worker busy time, ...). Concurrent set() keeps the envelope exact via
/// CAS; "last" is whichever store won.
class Gauge {
 public:
  void set(double v) {
    if (!enabled()) return;
    last_.store(v, std::memory_order_relaxed);
    cas_min(min_, v);
    cas_max(max_, v);
    updates_.fetch_add(1, std::memory_order_relaxed);
  }
  double last() const { return last_.load(std::memory_order_relaxed); }
  double min() const { return updates() ? min_.load(std::memory_order_relaxed) : 0.0; }
  double max() const { return updates() ? max_.load(std::memory_order_relaxed) : 0.0; }
  u64 updates() const { return updates_.load(std::memory_order_relaxed); }
  void reset() {
    last_.store(0.0, std::memory_order_relaxed);
    min_.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
    max_.store(-std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
    updates_.store(0, std::memory_order_relaxed);
  }

 private:
  static void cas_min(std::atomic<double>& slot, double v) {
    double cur = slot.load(std::memory_order_relaxed);
    while (v < cur &&
           !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  static void cas_max(std::atomic<double>& slot, double v) {
    double cur = slot.load(std::memory_order_relaxed);
    while (v > cur &&
           !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<double> last_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
  std::atomic<u64> updates_{0};
};

/// Fixed-range, fixed-bucket histogram: antarex::Histogram's binning and
/// quantile rules over atomic buckets. Out-of-range values clamp to the edge
/// buckets; NaN throws. Tracks sum/count for exact means. Buckets and totals
/// are atomics, so concurrent add() never tears; a snapshot taken mid-add
/// may see the bucket before the total (observability skew, not corruption).
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  std::size_t bins() const { return counts_.size(); }
  u64 bucket(std::size_t i) const;
  u64 count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    const u64 n = count();
    return n ? sum() / static_cast<double>(n) : 0.0;
  }
  /// Approximate quantiles, q in [0,1], read from one snapshot: the buckets
  /// are copied once into an antarex::Histogram, whose total is the sum of
  /// the copy, so the results stay ordered by q even while writers keep
  /// adding. This is what the exporters publish as p50/p95/p99.
  std::vector<double> approx_quantiles(std::initializer_list<double> qs) const;
  void reset();

 private:
  double lo_, hi_;
  std::vector<std::atomic<u64>> counts_;
  std::atomic<u64> count_{0};
  std::atomic<double> sum_{0.0};
};

/// A named sample stream with windowed statistics — the registry-resident
/// backend of tuner::Monitor. NOT gated by enabled(): monitors feed the
/// autotuner's control loop, so dropping samples would change behaviour,
/// not just visibility. The window is support/stats' SlidingWindow; the
/// exponentially weighted moving average favours recent operating conditions
/// ("autotune the system according to the most recent operating conditions",
/// Sec. IV). A private mutex guards both, because the window holds
/// non-trivial state.
class Series {
 public:
  explicit Series(std::size_t window = 64);

  void push(double sample);

  std::size_t count() const;
  bool empty() const { return count() == 0; }
  double last() const;
  double window_mean() const;
  double window_percentile(double p) const;
  /// Several window percentiles from one locked, sorted copy of the window,
  /// so they stay ordered by p while writers keep pushing.
  std::vector<double> window_percentiles(std::initializer_list<double> ps) const;
  double ewma() const;

  void clear();

 private:
  mutable std::mutex mu_;
  SlidingWindow window_;
  double ewma_ = 0.0;  ///< seeded by the first sample (total_ == 0 until then)
  double last_ = 0.0;
  std::size_t total_ = 0;
};

class Registry {
 public:
  Registry();

  /// The process-wide registry every TELEMETRY_* macro and monitor uses.
  /// Intentionally leaked: spans may fire during static destruction.
  static Registry& global();

  // Get-or-create by name, from any thread. References/pointers remain valid
  // for the life of the registry (node-based storage).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// A counter that additionally registers `name` as a *drop* counter: a
  /// count of data discarded at a bounded buffer (trace ring, broker shard
  /// queue, ...). The metrics-JSON exporter collects every drop counter into
  /// a dedicated "drops" section so saturation is never silent.
  Counter& drop_counter(const std::string& name);
  /// lo/hi/bins apply on first creation only.
  Histogram& histogram(const std::string& name, double lo, double hi,
                       std::size_t bins);
  /// `window` applies on first creation only.
  Series& series(const std::string& name, std::size_t window = 64);

  TraceBuffer& trace() { return trace_; }
  const TraceBuffer& trace() const { return trace_; }

  // Sorted snapshots for the exporters (cold path).
  std::vector<std::pair<std::string, const Counter*>> counters() const;
  std::vector<std::pair<std::string, const Gauge*>> gauges() const;
  std::vector<std::pair<std::string, const Histogram*>> histograms() const;
  std::vector<std::pair<std::string, const Series*>> all_series() const;
  /// Drop counters only (a subset of counters()), for the "drops" section.
  std::vector<std::pair<std::string, const Counter*>> drop_counters() const;

  /// Zero every metric and clear the trace buffer (test isolation). Metric
  /// objects stay alive — cached references remain valid.
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::set<std::string> drop_names_;  ///< counters_ keys that count drops
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<Series>> series_;
  TraceBuffer trace_;
};

}  // namespace antarex::telemetry
