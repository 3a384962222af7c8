#include "search/strategy.hpp"

#include <algorithm>
#include <limits>

#include "exec/parallel.hpp"

namespace antarex::search {

SearchStrategy::SearchStrategy(SearchConfig cfg)
    : cfg_(cfg), engine_(cfg.genetic) {
  ANTAREX_REQUIRE(cfg_.bootstrap >= 2, "SearchStrategy: bootstrap < 2");
  ANTAREX_REQUIRE(cfg_.model_top_k <= cfg_.genetic.population,
                  "SearchStrategy: model_top_k exceeds the population");
}

void SearchStrategy::reset() {
  queue_.clear();
  queue_pos_ = 0;
  population_.clear();
  fitness_.clear();
  model_ = PerfModel();
  generation_ = 0;
  decision_counter_ = 0;
  bootstrapped_ = false;
}

void SearchStrategy::observe(const tuner::DesignSpace&,
                             const tuner::Configuration& c, double value) {
  fitness_[tuner::config_key(c)].add(value);
}

double SearchStrategy::fitness_of(const tuner::Configuration& c,
                                  bool minimize) const {
  const auto it = fitness_.find(tuner::config_key(c));
  if (it == fitness_.end() || it->second.count() == 0) {
    // Unevaluated genome (e.g. a batch cut a generation short): worst
    // possible fitness, so selection never favours the unknown.
    return minimize ? std::numeric_limits<double>::infinity()
                    : -std::numeric_limits<double>::infinity();
  }
  return it->second.mean();
}

tuner::Configuration SearchStrategy::random_distinct(
    const tuner::DesignSpace& space, std::vector<std::string>& keys) {
  // Bounded retries: on tiny spaces distinctness may be unsatisfiable.
  tuner::Configuration c;
  for (int attempt = 0; attempt < 16; ++attempt) {
    Rng rng(exec::stream_seed(cfg_.genetic.seed, decision_counter_++));
    c = tuner::random_config(space, rng);
    std::string key = tuner::config_key(c);
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
      keys.push_back(std::move(key));
      return c;
    }
  }
  keys.push_back(tuner::config_key(c));
  return c;
}

void SearchStrategy::seed_generation_zero(const tuner::DesignSpace& space,
                                          const tuner::Knowledge& knowledge,
                                          const std::string& objective,
                                          bool minimize) {
  std::vector<tuner::Configuration> pop;
  std::vector<std::string> keys;
  auto add = [&](const tuner::Configuration& c) {
    if (pop.size() >= cfg_.genetic.population || !space.valid(c)) return;
    std::string key = tuner::config_key(c);
    if (std::find(keys.begin(), keys.end(), key) != keys.end()) return;
    keys.push_back(std::move(key));
    pop.push_back(c);
  };

  // 1. Model-seeded share: fit from everything measured so far and take the
  //    top-K predictions. An underdetermined fit skips this share.
  model_.fit(space, knowledge, objective);
  if (model_.fitted()) {
    for (const tuner::Configuration& c :
         model_.top_k(space, cfg_.model_top_k, minimize, cfg_.genetic.seed))
      add(c);
  }

  // 2. Random fill keeps exploration pressure.
  while (pop.size() < cfg_.genetic.population)
    pop.push_back(random_distinct(space, keys));

  population_ = std::move(pop);
  queue_ = population_;
  queue_pos_ = 0;
  generation_ = 0;
}

void SearchStrategy::evolve(const tuner::DesignSpace& space, bool minimize) {
  std::vector<double> fitness(population_.size());
  for (std::size_t i = 0; i < population_.size(); ++i)
    fitness[i] = fitness_of(population_[i], minimize);
  ++generation_;
  population_ = engine_.next_generation(space, population_, fitness, minimize,
                                        generation_);
  queue_ = population_;
  queue_pos_ = 0;
}

tuner::Configuration SearchStrategy::next(const tuner::DesignSpace& space,
                                          const tuner::Knowledge& knowledge,
                                          const std::string& objective,
                                          bool minimize, Rng&) {
  ANTAREX_REQUIRE(space.knob_count() > 0, "SearchStrategy: empty design space");
  if (queue_pos_ >= queue_.size()) {
    if (!bootstrapped_) {
      // Stage 0: distinct random probes to make the model fittable.
      std::vector<std::string> keys;
      queue_.clear();
      const std::size_t probes =
          std::min(cfg_.bootstrap, std::max<std::size_t>(2, space.size()));
      for (std::size_t i = 0; i < probes; ++i)
        queue_.push_back(random_distinct(space, keys));
      queue_pos_ = 0;
      bootstrapped_ = true;
    } else if (population_.empty()) {
      seed_generation_zero(space, knowledge, objective, minimize);
    } else {
      evolve(space, minimize);
    }
  }
  return queue_[queue_pos_++];
}

std::unique_ptr<tuner::Strategy> make_strategy(const std::string& name) {
  if (auto builtin = tuner::make_builtin_strategy(name)) return builtin;
  if (name == "evolutionary" || name == "search")
    return std::make_unique<SearchStrategy>();
  throw Error("unknown strategy '" + name +
              "' (want flat|full-search|epsilon-greedy|model-guided|"
              "evolutionary)");
}

}  // namespace antarex::search
