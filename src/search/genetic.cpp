#include "search/genetic.hpp"

#include <algorithm>
#include <string>

#include "exec/parallel.hpp"

namespace antarex::search {

namespace {

constexpr std::size_t kElites = 2;      ///< best parents copied through unchanged
constexpr std::size_t kTournament = 3;  ///< tournament size for parent selection
constexpr double kCrossoverRate = 0.9;  ///< else the better parent is cloned
constexpr double kMutationRate = 0.25;  ///< per-knob mutation probability
constexpr double kStepBias = 0.7;       ///< neighbour-step vs uniform-reset mutation

/// Position of value-index `vi` inside the knob's candidate list, or npos.
std::size_t candidate_pos(const std::vector<std::size_t>& cand, std::size_t vi) {
  const auto it = std::find(cand.begin(), cand.end(), vi);
  return it == cand.end() ? static_cast<std::size_t>(-1)
                          : static_cast<std::size_t>(it - cand.begin());
}

}  // namespace

GeneticEngine::GeneticEngine(GeneticConfig cfg) : cfg_(cfg) {
  ANTAREX_REQUIRE(cfg_.population > kElites,
                  "GeneticEngine: population must leave room for children");
}

tuner::Configuration GeneticEngine::crossover(const tuner::DesignSpace& space,
                                              const tuner::Configuration& a,
                                              const tuner::Configuration& b,
                                              Rng& rng) const {
  ANTAREX_REQUIRE(a.size() == space.knob_count() && b.size() == a.size(),
                  "GeneticEngine: parent arity mismatch");
  tuner::Configuration child(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    child[i] = rng.bernoulli(0.5) ? a[i] : b[i];
  return child;
}

tuner::Configuration GeneticEngine::mutate(const tuner::DesignSpace& space,
                                           tuner::Configuration c,
                                           Rng& rng) const {
  for (std::size_t i = 0; i < space.knob_count(); ++i) {
    const auto& cand = space.candidates(i);
    const std::size_t pos = candidate_pos(cand, c[i]);
    if (pos == static_cast<std::size_t>(-1)) {
      c[i] = cand[rng.index(cand.size())];  // snap into the annotated domain
      continue;
    }
    if (!rng.bernoulli(kMutationRate)) continue;
    if (cand.size() == 1) continue;
    if (rng.bernoulli(kStepBias)) {
      // Neighbour step along the candidate list (knob values are ordered, so
      // this is a local move in knob space).
      const bool up = pos == 0 ? true : pos + 1 == cand.size() ? false
                                                               : rng.bernoulli(0.5);
      c[i] = cand[up ? pos + 1 : pos - 1];
    } else {
      c[i] = cand[rng.index(cand.size())];
    }
  }
  return c;
}

std::size_t GeneticEngine::tournament_pick(const std::vector<double>& fitness,
                                           bool minimize, Rng& rng) const {
  std::size_t best = rng.index(fitness.size());
  for (std::size_t t = 1; t < kTournament; ++t) {
    const std::size_t i = rng.index(fitness.size());
    const bool better =
        minimize ? fitness[i] < fitness[best] : fitness[i] > fitness[best];
    if (better || (fitness[i] == fitness[best] && i < best)) best = i;
  }
  return best;
}

std::vector<tuner::Configuration> GeneticEngine::next_generation(
    const tuner::DesignSpace& space,
    const std::vector<tuner::Configuration>& parents,
    const std::vector<double>& fitness, bool minimize, u64 generation) const {
  ANTAREX_REQUIRE(!parents.empty(), "GeneticEngine: no parents");
  ANTAREX_REQUIRE(parents.size() == fitness.size(),
                  "GeneticEngine: fitness arity mismatch");

  // Rank parents for elitism: by fitness, ties by config_key so the order
  // never depends on container iteration quirks.
  std::vector<std::size_t> rank(parents.size());
  for (std::size_t i = 0; i < rank.size(); ++i) rank[i] = i;
  std::sort(rank.begin(), rank.end(), [&](std::size_t a, std::size_t b) {
    if (fitness[a] != fitness[b])
      return minimize ? fitness[a] < fitness[b] : fitness[a] > fitness[b];
    return tuner::config_key(parents[a]) < tuner::config_key(parents[b]);
  });

  std::vector<tuner::Configuration> children;
  std::vector<std::string> keys;
  children.reserve(cfg_.population);
  auto try_add = [&](const tuner::Configuration& c) {
    std::string key = tuner::config_key(c);
    if (std::find(keys.begin(), keys.end(), key) != keys.end()) return false;
    keys.push_back(std::move(key));
    children.push_back(c);
    return true;
  };

  const std::size_t elites = std::min(kElites, parents.size());
  for (std::size_t e = 0; e < elites && children.size() < cfg_.population; ++e)
    try_add(parents[rank[e]]);

  for (std::size_t slot = 0; children.size() < cfg_.population; ++slot) {
    Rng rng(exec::stream_seed(cfg_.seed + generation * 0x9e3779b97f4a7c15ULL,
                              slot));
    const std::size_t pa = tournament_pick(fitness, minimize, rng);
    const std::size_t pb = tournament_pick(fitness, minimize, rng);
    tuner::Configuration child =
        rng.bernoulli(kCrossoverRate)
            ? crossover(space, parents[pa], parents[pb], rng)
            : parents[minimize == (fitness[pa] <= fitness[pb]) ? pa : pb];
    child = mutate(space, std::move(child), rng);
    // Duplicate suppression: re-mutate a clone a few times; on a tiny space
    // the population may legitimately not have enough distinct points, so
    // accept the duplicate after the retry budget rather than spin.
    bool added = try_add(child);
    for (int retry = 0; !added && retry < 8; ++retry) {
      child = mutate(space, std::move(child), rng);
      added = try_add(child);
    }
    if (!added) {
      keys.push_back(tuner::config_key(child));
      children.push_back(std::move(child));
    }
  }
  return children;
}

}  // namespace antarex::search
