// SearchStrategy: the two-stage model-seeded evolutionary exploration,
// packaged as a tuner::Strategy so the existing Autotuner loop — including
// next_batch()/report_batch() parallel evaluation on an exec::ThreadPool —
// drives it unchanged.
//
// Lifecycle per phase (reset() restarts it):
//   1. Probes: distinct seeded-random configs until the knowledge holds
//      half again as many measured configs as the surrogate has
//      coefficients (capped by the space size). The count is of *reported*
//      configs, so a next_batch() that runs ahead of its reports keeps
//      probing instead of fitting from too few.
//   2. Generation 0: fit the surrogate (a tuner::RlsModel over normalized
//      quadratic features) from the knowledge base; seed half the
//      population from its top predictions and the rest by random fill.
//   3. Generations 1..: evolve with the GeneticEngine; fitness is the
//      knowledge-fed objective mean, memoized across generations so a genome
//      re-proposed later is never re-derived from scratch.
//
// Determinism: the strategy ignores the Autotuner's Rng entirely — every
// draw comes from exec::stream_seed over (seed, decision index), so a
// search trajectory is bit-identical for any worker count evaluating the
// batches.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "search/genetic.hpp"
#include "support/stats.hpp"
#include "tuner/learner.hpp"
#include "tuner/strategy.hpp"

namespace antarex::search {

/// Surrogate features of a configuration: one term per knob, normalized to
/// [0, 1] over the knob's full value list (so annotations do not move the
/// encoding), then one product per knob pair i <= j — the squares let the
/// model fit bowls, not just planes. No bias term: RlsModel adds its own.
std::vector<double> quadratic_features(const tuner::DesignSpace& space,
                                       const tuner::Configuration& c);

/// Fit the surrogate for `metric`: an RlsModel with lambda 1 and delta 1e8
/// (ridge regression with a 1e-8 penalty on every weight), one update per
/// valid knowledge config with that metric, its mean, in configs() order.
/// nullopt when underdetermined — fewer configs than coefficients.
std::optional<tuner::RlsModel> fit_surrogate(const tuner::DesignSpace& space,
                                             const tuner::Knowledge& kb,
                                             const std::string& metric);

/// The k configurations with the best predicted metric, distinct, best
/// first. Enumerates the space when it has at most `scan_cap` configs;
/// otherwise ranks `scan_cap` seeded-random candidates (per-index streams
/// keyed by `seed`, so the ranking is reproducible at any parallelism).
/// Ties break by config_key.
std::vector<tuner::Configuration> top_k(const tuner::RlsModel& model,
                                        const tuner::DesignSpace& space,
                                        std::size_t k, bool minimize,
                                        u64 seed = 1,
                                        std::size_t scan_cap = 8192);

class SearchStrategy final : public tuner::Strategy {
 public:
  explicit SearchStrategy(GeneticConfig cfg = {});

  tuner::Configuration next(const tuner::DesignSpace& space,
                            const tuner::Knowledge& knowledge,
                            const std::string& objective, bool minimize,
                            Rng& rng) override;
  void observe(const tuner::DesignSpace& space, const tuner::Configuration& c,
               double objective_value) override;
  void reset() override;

  const GeneticConfig& config() const { return cfg_; }
  u64 generation() const { return generation_; }
  /// The fitted surrogate; nullptr until generation 0 was seeded from a
  /// determined fit.
  const tuner::RlsModel* model() const { return model_ ? &*model_ : nullptr; }

 private:
  void seed_generation_zero(const tuner::DesignSpace& space,
                            const tuner::Knowledge& knowledge,
                            const std::string& objective, bool minimize);
  void evolve(const tuner::DesignSpace& space, bool minimize);
  double fitness_of(const tuner::Configuration& c, bool minimize) const;
  tuner::Configuration random_distinct(const tuner::DesignSpace& space,
                                       std::vector<std::string>& keys);

  GeneticConfig cfg_;
  GeneticEngine engine_;
  std::optional<tuner::RlsModel> model_;

  std::vector<tuner::Configuration> queue_;  ///< genomes awaiting proposal
  std::size_t queue_pos_ = 0;
  std::vector<tuner::Configuration> population_;
  std::map<std::string, RunningStats> fitness_;  ///< memoized by config_key
  u64 generation_ = 0;
  u64 decision_counter_ = 0;  ///< stream index for every internal draw
  std::vector<std::string> probe_keys_;  ///< probes proposed this phase
};

/// Strategy factory covering the flat tuner built-ins ("flat"/"full-search",
/// "epsilon-greedy", "model-guided") and the two-stage "evolutionary"
/// search. Throws antarex::Error on an unknown name — the bench `--strategy`
/// flag's backend.
std::unique_ptr<tuner::Strategy> make_strategy(const std::string& name);

}  // namespace antarex::search
