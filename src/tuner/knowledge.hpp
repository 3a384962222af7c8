// Knowledge base: what the autotuner has learned about each configuration.
//
// "Continuous on-line learning techniques are adopted to update the knowledge
// from the data collected by the monitors" (paper Sec. IV): measurements are
// folded into per-configuration running statistics; queries filter by SLA
// goals and rank by the objective.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "support/stats.hpp"
#include "tuner/knob.hpp"
#include "tuner/monitor.hpp"

namespace antarex::tuner {

struct Measurement {
  Configuration config;
  std::map<std::string, double> metrics;
};

class Knowledge {
 public:
  void observe(const Measurement& m);

  bool has(const Configuration& c) const;
  std::size_t distinct_configs() const { return table_.size(); }
  std::size_t observations() const { return observations_; }

  /// Mean of a metric for a configuration; nullopt if never observed.
  std::optional<double> mean(const Configuration& c, const std::string& metric) const;

  /// All configurations with at least one observation.
  std::vector<Configuration> configs() const;
  std::size_t samples(const Configuration& c) const;

  /// Best-known configuration for the objective among those whose *known
  /// means* satisfy every goal. Returns nullopt if nothing qualifies.
  std::optional<Configuration> best(const std::string& objective, bool minimize,
                                    const std::vector<Goal>& goals = {}) const;

  /// Non-dominated configurations for two objectives, both minimized
  /// (negate a metric at observe time to maximize it). This is the
  /// mARGOt-style multi-objective operating-point list — e.g. the
  /// time/energy front the RTRM picks from when the power budget changes.
  /// Sorted ascending by the first metric; configs missing either metric are
  /// excluded.
  std::vector<Configuration> pareto_front(const std::string& metric_a,
                                          const std::string& metric_b) const;

  void clear();

  /// Serialize to a line-oriented text format (mARGOt-style operating-point
  /// list: design-time exploration results shipped to deploy time, the
  /// "conveying the results to runtime optimizers" of paper Sec. III-B).
  /// Format, one line per (config, metric):  `<i0,i1,...> <metric> <n> <mean>`
  std::string export_text() const;

  /// Merge a previously exported list into this knowledge base. Each line
  /// counts as n observations of the stored mean, merged in one step whatever
  /// n is (variance is not preserved — deploy-time knowledge seeds the mean,
  /// runtime samples refine it). Throws antarex::Error on malformed input:
  /// a wrong field count, an index or count that is not plain decimal digits
  /// within size_t (a sign or an empty field included), a zero count, or a
  /// mean that is not a finite number.
  void import_text(const std::string& text);

 private:
  struct Entry {
    Configuration config;
    std::map<std::string, RunningStats> stats;
  };

  std::map<std::string, Entry> table_;  ///< keyed by config_key
  std::size_t observations_ = 0;
};

}  // namespace antarex::tuner
