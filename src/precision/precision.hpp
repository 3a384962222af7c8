// Precision autotuning (paper Sec. IV, "Precision Autotuning"): customized
// precision trades quality for power/performance when the application can
// tolerate some loss.
//
// Reduced precision is *emulated*: doubles are re-rounded to a configurable
// number of mantissa bits after every operation of interest. The cost model
// maps mantissa width to relative energy/time per operation (narrower
// multipliers and smaller operand traffic), calibrated to the usual
// fp64/fp32/fp16 ratios.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "support/common.hpp"

namespace antarex::precision {

/// Round `x` to `mantissa_bits` of fraction (1..52). 52 is a no-op (IEEE
/// double). Uses round-to-nearest-even via ldexp arithmetic; handles
/// zero/inf/nan transparently.
double quantize(double x, int mantissa_bits);

/// |ref - approx| / max(|ref|, eps).
double relative_error(double ref, double approx);

/// One selectable precision level with its cost model.
struct PrecisionLevel {
  std::string name;
  int mantissa_bits;
  double energy_per_op = 1.0;  ///< relative to fp64
  double time_per_op = 1.0;    ///< relative to fp64
};

/// fp64 / fp32 / fp21 / bf16-like / fp8-like ladder.
std::vector<PrecisionLevel> standard_levels();

/// Result of a precision sweep.
struct PrecisionChoice {
  PrecisionLevel level;
  double observed_error = 0.0;
  double energy_saving = 0.0;  ///< vs fp64, fraction in [0, 1)
};

/// Pick the cheapest level whose observed error (as computed by `error_of`,
/// typically an application-quality metric vs the fp64 reference) stays
/// within `tolerance`. Falls back to the widest level if nothing qualifies.
PrecisionChoice tune_precision(
    const std::function<double(const PrecisionLevel&)>& error_of,
    double tolerance, const std::vector<PrecisionLevel>& levels = standard_levels());

}  // namespace antarex::precision
