// Exploration/exploitation strategies for the autotuner's decide step.
//
// The paper positions the framework between white-box (domain-knowledge
// surfing) and black-box (long convergence) approaches. Here:
//  - FullSearch ~ exhaustive black-box baseline
//  - EpsilonGreedy ~ bandit-style online black-box
//  - ModelGuided ~ learning-driven decision making (RLS surrogate)
// Grey-box behaviour comes from running any of these over an *annotated*
// (restricted) design space.
#pragma once

#include <memory>
#include <string>

#include "support/rng.hpp"
#include "tuner/knob.hpp"
#include "tuner/knowledge.hpp"
#include "tuner/learner.hpp"

namespace antarex::tuner {

class Strategy {
 public:
  virtual ~Strategy() = default;

  /// Decide the configuration to run next.
  virtual Configuration next(const DesignSpace& space, const Knowledge& knowledge,
                             const std::string& objective, bool minimize,
                             Rng& rng) = 0;

  /// Observe a fresh measurement (for learning strategies).
  virtual void observe(const DesignSpace& space, const Configuration& config,
                       double objective_value) {
    (void)space;
    (void)config;
    (void)objective_value;
  }

  /// Forget everything (phase change).
  virtual void reset() {}
};

/// Deterministic sweep of the (annotated) space; once every configuration has
/// at least one sample, exploits the best known.
class FullSearchStrategy final : public Strategy {
 public:
  Configuration next(const DesignSpace&, const Knowledge&, const std::string&,
                     bool, Rng&) override;
  void reset() override { cursor_ = 0; }

 private:
  std::size_t cursor_ = 0;
};

/// epsilon-greedy bandit: explore a uniformly random configuration with
/// probability epsilon (decaying), otherwise exploit the best known.
class EpsilonGreedyStrategy final : public Strategy {
 public:
  explicit EpsilonGreedyStrategy(double epsilon0 = 0.4, double decay = 0.98);
  Configuration next(const DesignSpace&, const Knowledge&, const std::string&,
                     bool, Rng&) override;
  void reset() override { epsilon_ = epsilon0_; }
  double epsilon() const { return epsilon_; }

 private:
  double epsilon0_;
  double decay_;
  double epsilon_;
};

/// RLS-surrogate-guided search: predict the objective over the candidate
/// space and run the predicted best (exploring at random 15% of the time);
/// the surrogate updates online from observe().
class ModelGuidedStrategy final : public Strategy {
 public:
  Configuration next(const DesignSpace&, const Knowledge&, const std::string&,
                     bool, Rng&) override;
  void observe(const DesignSpace&, const Configuration&, double) override;
  void reset() override { model_.reset(); }
  const RlsModel* model() const { return model_.updates() ? &model_ : nullptr; }

 private:
  std::vector<double> features(const DesignSpace& space,
                               const Configuration& c) const;

  RlsModel model_{1};
  bool model_sized_ = false;
};

/// Uniformly random configuration from the (annotated) space.
Configuration random_config(const DesignSpace& space, Rng& rng);

/// Factory over the built-in strategies: "flat" / "full-search",
/// "epsilon-greedy", "model-guided". Returns nullptr for names this module
/// does not own (antarex::search layers its "evolutionary" strategy on top
/// via search::make_strategy).
std::unique_ptr<Strategy> make_builtin_strategy(const std::string& name);

}  // namespace antarex::tuner
