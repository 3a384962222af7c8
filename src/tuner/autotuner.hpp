// The application autotuner: the collect-analyse-decide-act loop of paper
// Sec. II ("The application monitoring and autotuning will be supported by a
// runtime layer implementing an application level collect-analyse-decide-act
// loop") and Sec. IV.
//
// Usage pattern (one loop iteration of the managed application):
//   const Configuration& c = tuner.next_configuration();   // decide + act
//   ... run the computation with knob values from c ...
//   tuner.report({{"time_s", t}, {"energy_j", e}});        // collect+analyse
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "support/rng.hpp"
#include "tuner/knowledge.hpp"
#include "tuner/monitor.hpp"
#include "tuner/strategy.hpp"

namespace antarex::tuner {

struct AutotunerConfig {
  std::string objective = "time_s";
  bool minimize = true;
  std::vector<Goal> goals;

  /// Phase-change detection: if the observed objective for a configuration
  /// learned from at least this many samples deviates from its learned mean
  /// by more than half for two consecutive reports, the knowledge is stale —
  /// drop it and re-explore ("react promptly to changing workloads", Sec. IV).
  std::size_t min_samples_for_phase = 3;
};

class Autotuner {
 public:
  Autotuner(DesignSpace space, std::unique_ptr<Strategy> strategy,
            AutotunerConfig config = {}, u64 seed = 1);

  /// Decide + act: the configuration the application should use now.
  const Configuration& next_configuration();

  /// Collect + analyse: report the metrics measured under the configuration
  /// returned by the latest next_configuration().
  void report(const std::map<std::string, double>& metrics);

  /// Decide + act for a batch: k configurations to evaluate concurrently
  /// (e.g. on an exec::ThreadPool). Strategies make k successive decisions
  /// against the same knowledge; FullSearch's cursor keeps them distinct
  /// while sweeping. Must be paired with report_batch().
  std::vector<Configuration> next_batch(std::size_t k);

  /// Collect + analyse for a batch: metrics[i] was measured under the i-th
  /// configuration of the preceding next_batch(). Observations fold in batch
  /// order regardless of which thread finished first, so the learned state
  /// is deterministic for any evaluation schedule.
  void report_batch(const std::vector<std::map<std::string, double>>& metrics);

  const DesignSpace& space() const { return space_; }
  DesignSpace& space() { return space_; }
  const Knowledge& knowledge() const { return knowledge_; }
  const AutotunerConfig& config() const { return config_; }
  const Strategy& strategy() const { return *strategy_; }

  /// Best configuration learned so far (goals honoured); nullopt if nothing
  /// measured yet or no configuration meets the goals.
  std::optional<Configuration> best() const;

  /// Warm start: merge a Knowledge::export_text() list produced at design
  /// time, so the first next_configuration() can already exploit
  /// (the tuner-level face of split compilation, paper Sec. III-B).
  /// Configurations that do not fit this design space are rejected.
  void seed_knowledge(const std::string& exported_text);

  std::size_t iterations() const { return iterations_; }
  std::size_t phase_changes() const { return phase_changes_; }
  /// Reports dropped because a sensor glitch poisoned the measurement window.
  std::size_t samples_discarded() const { return samples_discarded_; }

 private:
  /// The shared collect+analyse path behind report() and report_batch().
  void observe_one(const Configuration& config,
                   const std::map<std::string, double>& metrics);
  /// True if a sensor glitch fired between the decide and this report
  /// (telemetry::poison_epoch() advanced): the sample may embed a corrupted
  /// energy/power reading, so it is dropped instead of learned.
  bool measurement_poisoned() const;
  void discard_one();

  DesignSpace space_;
  std::unique_ptr<Strategy> strategy_;
  AutotunerConfig config_;
  Rng rng_;
  Knowledge knowledge_;

  Configuration current_;
  std::vector<Configuration> pending_batch_;
  bool awaiting_report_ = false;
  std::size_t iterations_ = 0;
  int phase_suspicion_ = 0;
  std::size_t phase_changes_ = 0;
  std::size_t samples_discarded_ = 0;
  u64 poison_epoch_at_decide_ = 0;
};

}  // namespace antarex::tuner
