#include "precision/precision.hpp"

#include <cmath>

namespace antarex::precision {

double quantize(double x, int mantissa_bits) {
  ANTAREX_REQUIRE(mantissa_bits >= 1 && mantissa_bits <= 52,
                  "quantize: mantissa bits must be in [1, 52]");
  if (mantissa_bits == 52 || x == 0.0 || !std::isfinite(x)) return x;
  int exp = 0;
  const double mant = std::frexp(x, &exp);  // mant in [0.5, 1)
  const double scale = std::ldexp(1.0, mantissa_bits + 1);
  // round-half-to-even on the scaled mantissa
  const double scaled = mant * scale;
  const double rounded = std::nearbyint(scaled);
  return std::ldexp(rounded / scale, exp);
}

double relative_error(double ref, double approx) {
  const double denom = std::max(std::fabs(ref), 1e-300);
  return std::fabs(ref - approx) / denom;
}

std::vector<PrecisionLevel> standard_levels() {
  // Energy/time per op calibrated to published multiplier-energy scaling:
  // roughly quadratic in mantissa width for multiply-dominated kernels, with
  // a floor from operand movement.
  return {
      {"fp64", 52, 1.00, 1.00},
      {"fp32", 23, 0.42, 0.55},
      {"fp21", 12, 0.28, 0.45},
      {"bf16-like", 7, 0.20, 0.40},
      {"fp8-like", 3, 0.15, 0.35},
  };
}

PrecisionChoice tune_precision(
    const std::function<double(const PrecisionLevel&)>& error_of,
    double tolerance, const std::vector<PrecisionLevel>& levels) {
  ANTAREX_REQUIRE(!levels.empty(), "tune_precision: no levels");
  ANTAREX_REQUIRE(tolerance >= 0.0, "tune_precision: negative tolerance");

  const PrecisionLevel* widest = &levels.front();
  for (const auto& l : levels)
    if (l.mantissa_bits > widest->mantissa_bits) widest = &l;

  const PrecisionLevel* best = nullptr;
  double best_error = 0.0;
  for (const auto& l : levels) {
    const double err = error_of(l);
    if (err <= tolerance) {
      if (!best || l.energy_per_op < best->energy_per_op) {
        best = &l;
        best_error = err;
      }
    }
  }
  PrecisionChoice choice;
  if (best) {
    choice.level = *best;
    choice.observed_error = best_error;
  } else {
    choice.level = *widest;
    choice.observed_error = error_of(*widest);
  }
  choice.energy_saving = 1.0 - choice.level.energy_per_op / widest->energy_per_op;
  return choice;
}

}  // namespace antarex::precision
