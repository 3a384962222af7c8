#include "search/strategy.hpp"

#include <algorithm>
#include <limits>

#include "exec/parallel.hpp"

namespace antarex::search {

namespace {

/// Length of quadratic_features() for n knobs: n linear terms plus
/// n(n+1)/2 products.
std::size_t feature_count(std::size_t n) { return n + n * (n + 1) / 2; }

/// Measured configs the probe stage waits for: half again as many as the
/// surrogate's coefficients (the features plus RLS's bias), capped by the
/// space. The margin was picked on AUTOTUNER-CONVERGENCE over twenty seeds
/// (EXPERIMENTS.md, CLAIM-SLA).
std::size_t probe_target(const tuner::DesignSpace& space) {
  const std::size_t coefficients = feature_count(space.knob_count()) + 1;
  return std::min(space.size(), coefficients + coefficients / 2);
}

/// Valid knowledge configs with a reported value of `objective`.
std::size_t measured(const tuner::DesignSpace& space,
                     const tuner::Knowledge& kb, const std::string& objective) {
  std::size_t count = 0;
  for (const tuner::Configuration& c : kb.configs())
    if (space.valid(c) && kb.mean(c, objective)) ++count;
  return count;
}

}  // namespace

std::vector<double> quadratic_features(const tuner::DesignSpace& space,
                                       const tuner::Configuration& c) {
  const std::size_t n = space.knob_count();
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<double>& values = space.knob(i).values;
    const double lo = *std::min_element(values.begin(), values.end());
    const double hi = *std::max_element(values.begin(), values.end());
    x[i] = hi > lo ? (space.value(c, i) - lo) / (hi - lo) : 0.0;
  }
  std::vector<double> f = x;
  f.reserve(feature_count(n));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) f.push_back(x[i] * x[j]);
  return f;
}

std::optional<tuner::RlsModel> fit_surrogate(const tuner::DesignSpace& space,
                                             const tuner::Knowledge& kb,
                                             const std::string& metric) {
  ANTAREX_REQUIRE(space.knob_count() > 0, "fit_surrogate: empty design space");
  tuner::RlsModel model(feature_count(space.knob_count()), 1.0, 1e8);
  for (const tuner::Configuration& c : kb.configs()) {
    if (!space.valid(c)) continue;
    if (const auto y = kb.mean(c, metric))
      model.update(quadratic_features(space, c), *y);
  }
  // dims() features plus the bias: fewer samples leave it underdetermined.
  if (model.updates() <= model.dims()) return std::nullopt;
  return model;
}

std::vector<tuner::Configuration> top_k(const tuner::RlsModel& model,
                                        const tuner::DesignSpace& space,
                                        std::size_t k, bool minimize, u64 seed,
                                        std::size_t scan_cap) {
  ANTAREX_REQUIRE(k >= 1, "top_k: needs k >= 1");
  struct Scored {
    tuner::Configuration config;
    std::string key;
    double pred;
  };
  const std::size_t n = space.size();
  const bool enumerate = n <= scan_cap;
  const std::size_t scan = enumerate ? n : scan_cap;
  std::vector<Scored> scored;
  scored.reserve(scan);
  for (std::size_t s = 0; s < scan; ++s) {
    tuner::Configuration c;
    if (enumerate) {
      c = space.at(s);
    } else {
      Rng rng(exec::stream_seed(seed, s));
      c = tuner::random_config(space, rng);
    }
    const double pred = model.predict(quadratic_features(space, c));
    std::string key = tuner::config_key(c);
    scored.push_back({std::move(c), std::move(key), pred});
  }
  std::sort(scored.begin(), scored.end(), [&](const Scored& a, const Scored& b) {
    if (a.pred != b.pred) return minimize ? a.pred < b.pred : a.pred > b.pred;
    return a.key < b.key;
  });
  // Sampled candidates can repeat; dedupe while collecting the k best.
  std::vector<tuner::Configuration> out;
  std::vector<std::string> keys;
  for (const Scored& s : scored) {
    if (out.size() >= k) break;
    if (std::find(keys.begin(), keys.end(), s.key) != keys.end()) continue;
    keys.push_back(s.key);
    out.push_back(s.config);
  }
  return out;
}

SearchStrategy::SearchStrategy(GeneticConfig cfg) : cfg_(cfg), engine_(cfg) {}

void SearchStrategy::reset() {
  queue_.clear();
  queue_pos_ = 0;
  population_.clear();
  fitness_.clear();
  model_.reset();
  generation_ = 0;
  decision_counter_ = 0;
  probe_keys_.clear();
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
    Rng rng(exec::stream_seed(cfg_.seed, decision_counter_++));
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
    if (pop.size() >= cfg_.population || !space.valid(c)) return;
    std::string key = tuner::config_key(c);
    if (std::find(keys.begin(), keys.end(), key) != keys.end()) return;
    keys.push_back(std::move(key));
    pop.push_back(c);
  };

  // 1. Model-seeded half: fit from everything measured so far and take the
  //    best predictions. An underdetermined fit skips this share.
  model_ = fit_surrogate(space, knowledge, objective);
  if (model_) {
    for (const tuner::Configuration& c :
         top_k(*model_, space, cfg_.population / 2, minimize, cfg_.seed))
      add(c);
  }

  // 2. Random fill keeps exploration pressure.
  while (pop.size() < cfg_.population)
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
    if (population_.empty()) {
      // Stage 0: distinct random probes until enough are measured to fit.
      if (measured(space, knowledge, objective) < probe_target(space))
        return random_distinct(space, probe_keys_);
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
