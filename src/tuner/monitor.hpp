// Monitors and goals — the "collect" and SLA sides of the autotuner's
// collect-analyse-decide-act loop (paper Sec. II & IV).
#pragma once

#include <string>
#include <vector>

#include "telemetry/registry.hpp"

namespace antarex::tuner {

/// A named runtime metric stream with windowed statistics. The application
/// (or the instrumentation woven by the DSL) pushes samples; the autotuner
/// and the SLA checker read aggregates.
///
/// The rolling statistics live in a telemetry::Series owned by the global
/// telemetry registry, so every monitored stream is visible to the exporters
/// (metrics JSON, summary table) without extra plumbing, and there is a
/// single rolling-stats implementation in the codebase. Its window holds the
/// last 32 samples. Constructing a Monitor claims (and resets) the registry
/// stream of the same name; two live monitors with the same metric name share
/// one stream.
class Monitor {
 public:
  explicit Monitor(std::string metric);

  const std::string& metric() const { return metric_; }
  void push(double sample);

  std::size_t samples() const { return series_->count(); }
  double window_percentile(double p) const;

 private:
  std::string metric_;
  telemetry::Series* series_;  ///< owned by telemetry::Registry::global()
};

/// Service Level Agreement goal over one metric.
struct Goal {
  enum class Op { LessThan, GreaterThan };
  std::string metric;
  Op op = Op::LessThan;
  double bound = 0.0;

  bool satisfied_by(double value) const {
    return op == Op::LessThan ? value < bound : value > bound;
  }
};

}  // namespace antarex::tuner
