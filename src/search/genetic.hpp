// Evolutionary engine over tuner design spaces.
//
// Stage two of the two-stage exploration flow: a small genetic algorithm —
// tournament selection, knob-aware uniform crossover, domain-respecting
// mutation, elitism, duplicate suppression — refining the model-seeded
// starting population. Genomes are tuner::Configurations; every operator
// draws only values the design space's *candidate* lists allow, so grey-box
// annotations constrain the search exactly as they constrain the flat
// strategies.
//
// Determinism contract (DESIGN.md decision 5/8): the engine owns no RNG
// state. Every child of generation g at slot i draws from an independent
// stream seeded by exec::stream_seed over (seed, g, i), so the produced
// populations are identical regardless of how many workers later evaluate
// them — and regardless of how many times a caller re-runs a generation.
#pragma once

#include <vector>

#include "support/rng.hpp"
#include "tuner/knob.hpp"

namespace antarex::search {

/// The search's two settable values. The elite count (2), the tournament
/// size and the crossover/mutation rates are constants in genetic.cpp.
struct GeneticConfig {
  std::size_t population = 24;  ///< genomes per generation, at least 3
  /// Root of every search stream: the per-(generation, slot) breeding
  /// streams here, and SearchStrategy's probes and model scan.
  u64 seed = 0x5ea7c4;
};

class GeneticEngine {
 public:
  explicit GeneticEngine(GeneticConfig cfg = {});

  const GeneticConfig& config() const { return cfg_; }

  /// Produce the next generation from `parents` with per-genome `fitness`
  /// (lower is better when `minimize`). The two best parents (elites) pass
  /// through unchanged; the rest come from tournament-selected parents via
  /// crossover + mutation, with duplicates re-mutated (bounded retries, so
  /// tiny spaces still converge instead of spinning). Every returned genome
  /// respects the space's candidate lists.
  std::vector<tuner::Configuration> next_generation(
      const tuner::DesignSpace& space,
      const std::vector<tuner::Configuration>& parents,
      const std::vector<double>& fitness, bool minimize, u64 generation) const;

  /// Knob-aware uniform crossover: each knob from one parent or the other.
  tuner::Configuration crossover(const tuner::DesignSpace& space,
                                 const tuner::Configuration& a,
                                 const tuner::Configuration& b,
                                 Rng& rng) const;

  /// Domain-respecting mutation: per knob, with the fixed mutation
  /// probability, either step to a neighbouring candidate or reset to a
  /// uniform candidate. A genome whose current index fell outside
  /// the candidate list (annotation added after seeding) snaps back in.
  tuner::Configuration mutate(const tuner::DesignSpace& space,
                              tuner::Configuration c, Rng& rng) const;

 private:
  std::size_t tournament_pick(const std::vector<double>& fitness, bool minimize,
                              Rng& rng) const;

  GeneticConfig cfg_;
};

}  // namespace antarex::search
