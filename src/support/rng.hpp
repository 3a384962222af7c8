// Deterministic pseudo-random number generation.
//
// All stochastic elements of the ANTAREX simulators (manufacturing
// variability, workload generators, exploration strategies) draw from these
// generators so that every test and benchmark is reproducible from a seed.
#pragma once

#include <cstdint>
#include <vector>

#include "support/common.hpp"

namespace antarex {

/// SplitMix64: used to seed Xoshiro and for cheap hashing.
class SplitMix64 {
 public:
  explicit SplitMix64(u64 seed) : state_(seed) {}

  u64 next();

 private:
  u64 state_;
};

/// xoshiro256** by Blackman & Vigna — the project-wide PRNG.
/// Deterministic, fast, and independent of the C++ standard library's
/// implementation-defined distributions.
class Rng {
 public:
  explicit Rng(u64 seed = 0x5eed'ba5e'0000'0001ULL);

  /// Uniform in [0, 2^64).
  u64 next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  i64 uniform_int(i64 lo, i64 hi);

  /// Standard normal via Box-Muller (deterministic, no cached spare).
  double normal();

  /// Normal with given mean / standard deviation.
  double normal(double mean, double stddev);

  /// Log-normal: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma);

  /// Exponential with rate lambda (> 0).
  double exponential(double lambda);

  /// Weibull with shape k (> 0) and scale lambda (> 0). shape > 1 models
  /// wear-out (hazard grows with age) — the standard MTBF model for node
  /// crashes in the fault injector.
  double weibull(double shape, double scale);

  /// Pareto with scale x_m (> 0) and shape alpha (> 0). Heavy-tailed; used to
  /// model the "widely varying time" of docking tasks (paper Sec. VII-a).
  double pareto(double x_m, double alpha);

  /// true with probability p.
  bool bernoulli(double p);

  /// Uniformly chosen index in [0, n).
  std::size_t index(std::size_t n);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = index(i);
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  u64 s_[4];
};

}  // namespace antarex
