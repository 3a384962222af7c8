// SearchStrategy: the two-stage model-seeded evolutionary exploration,
// packaged as a tuner::Strategy so the existing Autotuner loop — including
// next_batch()/report_batch() parallel evaluation on an exec::ThreadPool —
// drives it unchanged.
//
// Lifecycle per phase (reset() restarts it):
//   1. Bootstrap: a fixed number of distinct seeded-random probes, enough to
//      fit the performance model.
//   2. Generation 0: fit PerfModel from the knowledge base; seed the
//      population from the model's top-K predictions and random fill.
//   3. Generations 1..: evolve with the GeneticEngine; fitness is the
//      knowledge-fed objective mean, memoized across generations so a genome
//      re-proposed later is never re-derived from scratch.
//
// Determinism: the strategy ignores the Autotuner's Rng entirely — every
// draw comes from exec::stream_seed over (genetic.seed, decision index), so a
// search trajectory is bit-identical for any worker count evaluating the
// batches.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "search/genetic.hpp"
#include "search/model.hpp"
#include "support/stats.hpp"
#include "tuner/strategy.hpp"

namespace antarex::search {

struct SearchConfig {
  GeneticConfig genetic;         ///< population, elites and the stream seed
  std::size_t bootstrap = 16;    ///< random probes before the model is fit
  std::size_t model_top_k = 12;  ///< model-seeded share of generation 0
};

class SearchStrategy final : public tuner::Strategy {
 public:
  explicit SearchStrategy(SearchConfig cfg = {});

  std::string name() const override { return "evolutionary"; }
  tuner::Configuration next(const tuner::DesignSpace& space,
                            const tuner::Knowledge& knowledge,
                            const std::string& objective, bool minimize,
                            Rng& rng) override;
  void observe(const tuner::DesignSpace& space, const tuner::Configuration& c,
               double objective_value) override;
  void reset() override;

  const SearchConfig& config() const { return cfg_; }
  u64 generation() const { return generation_; }
  /// The fitted performance model; nullptr until generation 0 was seeded
  /// with a successful fit.
  const PerfModel* model() const { return model_.fitted() ? &model_ : nullptr; }

 private:
  void seed_generation_zero(const tuner::DesignSpace& space,
                            const tuner::Knowledge& knowledge,
                            const std::string& objective, bool minimize);
  void evolve(const tuner::DesignSpace& space, bool minimize);
  double fitness_of(const tuner::Configuration& c, bool minimize) const;
  tuner::Configuration random_distinct(const tuner::DesignSpace& space,
                                       std::vector<std::string>& keys);

  SearchConfig cfg_;
  GeneticEngine engine_;
  PerfModel model_;

  std::vector<tuner::Configuration> queue_;  ///< genomes awaiting proposal
  std::size_t queue_pos_ = 0;
  std::vector<tuner::Configuration> population_;
  std::map<std::string, RunningStats> fitness_;  ///< memoized by config_key
  u64 generation_ = 0;
  u64 decision_counter_ = 0;  ///< stream index for every internal draw
  bool bootstrapped_ = false;
};

/// Strategy factory covering the flat tuner built-ins ("flat"/"full-search",
/// "epsilon-greedy", "model-guided") and the two-stage "evolutionary"
/// search. Throws antarex::Error on an unknown name — the bench `--strategy`
/// flag's backend.
std::unique_ptr<tuner::Strategy> make_strategy(const std::string& name);

}  // namespace antarex::search
