// Tests for precision autotuning: quantization semantics, error metrics,
// the precision ladder's cost model, and the tolerance-driven tuner.
#include <gtest/gtest.h>

#include <cmath>

#include "precision/precision.hpp"
#include "support/rng.hpp"

namespace antarex::precision {
namespace {

TEST(Quantize, FullWidthIsIdentity) {
  for (double x : {0.0, 1.0, -3.14159, 1e-30, 1e30})
    EXPECT_DOUBLE_EQ(quantize(x, 52), x);
}

TEST(Quantize, ExactlyRepresentableValuesSurvive) {
  // 1.5 = 1.1b needs 1 mantissa bit; 0.15625 = 0.00101b needs 2.
  EXPECT_DOUBLE_EQ(quantize(1.5, 4), 1.5);
  EXPECT_DOUBLE_EQ(quantize(0.15625, 4), 0.15625);
  EXPECT_DOUBLE_EQ(quantize(-2.0, 1), -2.0);
}

TEST(Quantize, ErrorBoundedByUlp) {
  Rng rng(3);
  for (int bits : {8, 12, 23}) {
    for (int i = 0; i < 2000; ++i) {
      const double x = rng.uniform(-1e3, 1e3);
      const double q = quantize(x, bits);
      // Relative error <= 2^-(bits+1) (round-to-nearest of the mantissa).
      EXPECT_LE(relative_error(x, q), std::ldexp(1.0, -(bits + 1)) * 1.0000001)
          << "bits=" << bits << " x=" << x;
    }
  }
}

TEST(Quantize, FewerBitsNeverMoreAccurate) {
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(0.0, 100.0);
    const double e23 = relative_error(x, quantize(x, 23));
    const double e7 = relative_error(x, quantize(x, 7));
    const double e3 = relative_error(x, quantize(x, 3));
    EXPECT_LE(e23, e7 + 1e-18);
    EXPECT_LE(e7, e3 + 1e-12);
  }
}

TEST(Quantize, HandlesSpecials) {
  EXPECT_DOUBLE_EQ(quantize(0.0, 3), 0.0);
  EXPECT_TRUE(std::isinf(quantize(INFINITY, 3)));
  EXPECT_TRUE(std::isnan(quantize(NAN, 3)));
  EXPECT_THROW(quantize(1.0, 0), Error);
  EXPECT_THROW(quantize(1.0, 53), Error);
}

TEST(Quantize, SignSymmetric) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(0.0, 100.0);
    EXPECT_DOUBLE_EQ(quantize(-x, 9), -quantize(x, 9));
  }
}

TEST(Levels, LadderIsMonotoneInCost) {
  const auto levels = standard_levels();
  ASSERT_GE(levels.size(), 3u);
  for (std::size_t i = 1; i < levels.size(); ++i) {
    EXPECT_LT(levels[i].mantissa_bits, levels[i - 1].mantissa_bits);
    EXPECT_LT(levels[i].energy_per_op, levels[i - 1].energy_per_op);
    EXPECT_LE(levels[i].time_per_op, levels[i - 1].time_per_op);
  }
  EXPECT_EQ(levels.front().mantissa_bits, 52);
  EXPECT_DOUBLE_EQ(levels.front().energy_per_op, 1.0);
}

TEST(TunePrecision, PicksCheapestWithinTolerance) {
  // Error model: err = 2^-bits (a typical well-conditioned kernel).
  auto error_of = [](const PrecisionLevel& l) {
    return std::ldexp(1.0, -l.mantissa_bits);
  };
  const PrecisionChoice strict = tune_precision(error_of, 1e-10);
  EXPECT_EQ(strict.level.name, "fp64");
  EXPECT_DOUBLE_EQ(strict.energy_saving, 0.0);

  const PrecisionChoice relaxed = tune_precision(error_of, 1e-4);
  EXPECT_EQ(relaxed.level.name, "fp32");
  EXPECT_GT(relaxed.energy_saving, 0.5);

  const PrecisionChoice loose = tune_precision(error_of, 0.2);
  EXPECT_EQ(loose.level.name, "fp8-like");
  EXPECT_GT(loose.energy_saving, 0.8);
}

TEST(TunePrecision, FallsBackToWidestWhenNothingQualifies) {
  auto error_of = [](const PrecisionLevel&) { return 1.0; };  // always bad
  const PrecisionChoice c = tune_precision(error_of, 1e-6);
  EXPECT_EQ(c.level.name, "fp64");
  EXPECT_DOUBLE_EQ(c.observed_error, 1.0);
}

TEST(TunePrecision, RealKernelDotProduct) {
  // Quantized dot product vs fp64 reference on a realistic vector.
  Rng rng(13);
  std::vector<double> a(512), b(512);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.normal(0.0, 1.0);
    b[i] = rng.normal(0.0, 1.0);
  }
  auto dot = [&](int bits) {
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
      acc = quantize(acc + quantize(quantize(a[i], bits) * quantize(b[i], bits),
                                    bits),
                     bits);
    return acc;
  };
  const double ref = dot(52);
  auto error_of = [&](const PrecisionLevel& l) {
    return relative_error(ref, dot(l.mantissa_bits));
  };
  const PrecisionChoice c = tune_precision(error_of, 1e-3);
  // fp32-ish accuracy satisfies 1e-3 on a 512-element dot product; fp8 does
  // not. Exact pick depends on cancellation, but it must be an interior
  // level: cheaper than fp64, more accurate than the bottom rung.
  EXPECT_LT(c.level.energy_per_op, 1.0);
  EXPECT_LE(c.observed_error, 1e-3);
}

}  // namespace
}  // namespace antarex::precision
