#include "tuner/strategy.hpp"

namespace antarex::tuner {

namespace {

constexpr double kModelGuidedExploreRate = 0.15;

}  // namespace

Configuration random_config(const DesignSpace& space, Rng& rng) {
  ANTAREX_REQUIRE(space.knob_count() > 0, "random_config: empty design space");
  Configuration c(space.knob_count());
  for (std::size_t i = 0; i < space.knob_count(); ++i) {
    const auto& cand = space.candidates(i);
    c[i] = cand[rng.index(cand.size())];
  }
  return c;
}

Configuration FullSearchStrategy::next(const DesignSpace& space,
                                       const Knowledge& knowledge,
                                       const std::string& objective,
                                       bool minimize, Rng&) {
  const std::size_t n = space.size();
  ANTAREX_REQUIRE(n > 0, "FullSearch: empty design space");
  // Sweep phase: propose the next never-seen configuration.
  while (cursor_ < n) {
    const Configuration c = space.at(cursor_);
    ++cursor_;
    if (!knowledge.has(c)) return c;
  }
  // Exploit phase.
  if (auto best = knowledge.best(objective, minimize)) return *best;
  cursor_ = 0;
  return space.at(0);
}

EpsilonGreedyStrategy::EpsilonGreedyStrategy(double epsilon0, double decay)
    : epsilon0_(epsilon0), decay_(decay), epsilon_(epsilon0) {
  ANTAREX_REQUIRE(epsilon0_ >= 0.0 && epsilon0_ <= 1.0,
                  "EpsilonGreedy: epsilon outside [0, 1]");
  ANTAREX_REQUIRE(decay_ > 0.0 && decay_ <= 1.0,
                  "EpsilonGreedy: decay outside (0, 1]");
}

Configuration EpsilonGreedyStrategy::next(const DesignSpace& space,
                                          const Knowledge& knowledge,
                                          const std::string& objective,
                                          bool minimize, Rng& rng) {
  const bool explore = rng.bernoulli(epsilon_);
  epsilon_ *= decay_;
  if (!explore) {
    if (auto best = knowledge.best(objective, minimize)) return *best;
  }
  return random_config(space, rng);
}

std::vector<double> ModelGuidedStrategy::features(const DesignSpace& space,
                                                  const Configuration& c) const {
  std::vector<double> f(space.knob_count());
  for (std::size_t i = 0; i < space.knob_count(); ++i) f[i] = space.value(c, i);
  return f;
}

void ModelGuidedStrategy::observe(const DesignSpace& space,
                                  const Configuration& config, double value) {
  if (!model_sized_) {
    model_ = RlsModel(space.knob_count());
    model_sized_ = true;
  }
  model_.update(features(space, config), value);
}

Configuration ModelGuidedStrategy::next(const DesignSpace& space,
                                        const Knowledge& knowledge,
                                        const std::string& objective,
                                        bool minimize, Rng& rng) {
  // Bootstrap / exploration: random samples until the surrogate has seen
  // enough points to be least-squares determined.
  const std::size_t warmup = space.knob_count() + 2;
  if (model_.updates() < warmup || rng.bernoulli(kModelGuidedExploreRate))
    return random_config(space, rng);

  // Score candidates by surrogate prediction. For tractability on huge
  // spaces, scan up to 4096 configurations (the full space when smaller,
  // otherwise a random sample).
  const std::size_t n = space.size();
  const std::size_t scan = std::min<std::size_t>(n, 4096);
  Configuration best;
  double best_pred = 0.0;
  for (std::size_t s = 0; s < scan; ++s) {
    const Configuration c =
        (n == scan) ? space.at(s) : random_config(space, rng);
    const double pred = model_.predict(features(space, c));
    if (best.empty() || (minimize ? pred < best_pred : pred > best_pred)) {
      best = c;
      best_pred = pred;
    }
  }
  // Fall back to knowledge if available and it beats the surrogate's pick
  // (guards against a badly fit linear model on non-linear landscapes).
  if (auto known = knowledge.best(objective, minimize)) {
    const auto known_mean = knowledge.mean(*known, objective);
    const auto best_mean = knowledge.mean(best, objective);
    if (known_mean && best_mean &&
        (minimize ? *known_mean < *best_mean : *known_mean > *best_mean))
      return *known;
  }
  return best;
}

std::unique_ptr<Strategy> make_builtin_strategy(const std::string& name) {
  if (name == "flat" || name == "full-search")
    return std::make_unique<FullSearchStrategy>();
  if (name == "epsilon-greedy") return std::make_unique<EpsilonGreedyStrategy>();
  if (name == "model-guided") return std::make_unique<ModelGuidedStrategy>();
  return nullptr;
}

}  // namespace antarex::tuner
