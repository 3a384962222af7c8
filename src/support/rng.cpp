#include "support/rng.hpp"

#include <cmath>
#include <limits>

namespace antarex {

namespace {
inline u64 rotl(u64 x, int k) { return (x << k) | (x >> (64 - k)); }
constexpr double kTwoPi = 6.283185307179586476925286766559;
}  // namespace

u64 SplitMix64::next() {
  u64 z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(u64 seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
}

u64 Rng::next_u64() {
  const u64 result = rotl(s_[1] * 5, 7) * 9;
  const u64 t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random mantissa bits -> [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  ANTAREX_REQUIRE(lo <= hi, "Rng::uniform: lo > hi");
  return lo + (hi - lo) * uniform();
}

i64 Rng::uniform_int(i64 lo, i64 hi) {
  ANTAREX_REQUIRE(lo <= hi, "Rng::uniform_int: lo > hi");
  const u64 span = static_cast<u64>(hi - lo) + 1;
  if (span == 0) return static_cast<i64>(next_u64());  // full 64-bit range
  // Rejection sampling to avoid modulo bias.
  const u64 limit = std::numeric_limits<u64>::max() - std::numeric_limits<u64>::max() % span;
  u64 r;
  do {
    r = next_u64();
  } while (r >= limit);
  return lo + static_cast<i64>(r % span);
}

double Rng::normal() {
  // Box-Muller; discard the spare to keep the stream position deterministic
  // regardless of call interleaving.
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Rng::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

double Rng::exponential(double lambda) {
  ANTAREX_REQUIRE(lambda > 0.0, "Rng::exponential: lambda must be > 0");
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -std::log(u) / lambda;
}

double Rng::weibull(double shape, double scale) {
  ANTAREX_REQUIRE(shape > 0.0 && scale > 0.0,
                  "Rng::weibull: parameters must be > 0");
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return scale * std::pow(-std::log(u), 1.0 / shape);
}

double Rng::pareto(double x_m, double alpha) {
  ANTAREX_REQUIRE(x_m > 0.0 && alpha > 0.0, "Rng::pareto: parameters must be > 0");
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return x_m / std::pow(u, 1.0 / alpha);
}

bool Rng::bernoulli(double p) { return uniform() < p; }

std::size_t Rng::index(std::size_t n) {
  ANTAREX_REQUIRE(n > 0, "Rng::index: empty range");
  return static_cast<std::size_t>(uniform_int(0, static_cast<i64>(n) - 1));
}

}  // namespace antarex
