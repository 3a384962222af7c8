// DVFS operating points and device specifications.
//
// Models the paper's target platforms (Sec. VI): Xeon Haswell CPUs, Xeon Phi
// (MIC) accelerators, and GPGPUs, each with a table of P-states
// (frequency/voltage pairs) the runtime power manager can select — the
// "classical performance/energy control knob" of Sec. V.
#pragma once

#include <string>
#include <vector>

#include "support/common.hpp"

namespace antarex::power {

/// One P-state: the knob value the RTRM's DVFS controller selects.
struct OperatingPoint {
  double freq_ghz = 0.0;
  double voltage_v = 0.0;
};

/// Ordered (ascending frequency) table of available P-states.
class DvfsTable {
 public:
  DvfsTable() = default;
  explicit DvfsTable(std::vector<OperatingPoint> points);

  std::size_t size() const { return points_.size(); }
  const OperatingPoint& at(std::size_t i) const;
  const OperatingPoint& lowest() const { return at(0); }
  const OperatingPoint& highest() const { return at(points_.size() - 1); }
  const std::vector<OperatingPoint>& points() const { return points_; }

  /// Closest P-state with frequency >= f (highest if none).
  const OperatingPoint& at_least(double freq_ghz) const;

  /// Linear V/f ladder: n points from (f_lo, v_lo) to (f_hi, v_hi).
  static DvfsTable linear(double f_lo, double f_hi, double v_lo, double v_hi,
                          std::size_t n);

 private:
  std::vector<OperatingPoint> points_;
};

enum class DeviceType { Cpu, Mic, Gpu };

/// Static description of one device SKU (nominal, before per-instance
/// variability). The numeric defaults below are calibrated so that the
/// claim-level benches reproduce the paper's motivating figures — they model
/// device *classes*, not any specific part number.
struct DeviceSpec {
  DeviceType type = DeviceType::Cpu;
  std::string name;
  int cores = 1;
  double flops_per_cycle_per_core = 2.0;
  double c_eff_nf = 30.0;        ///< effective switched capacitance [nF]
  double leak_w_ref = 15.0;      ///< leakage power at T_ref = 50C, nominal V
  double leak_temp_coeff = 0.02; ///< exponential leakage growth per degree C
  double idle_activity = 0.05;   ///< dynamic activity factor when idle
  double mem_bw_gbs = 60.0;      ///< sustained memory bandwidth [GB/s]
  DvfsTable dvfs;

  double peak_gflops(const OperatingPoint& op) const;

  /// Nominal SKUs used across examples, tests and benches.
  static DeviceSpec xeon_haswell();  ///< 12-core host CPU socket
  static DeviceSpec xeon_phi();      ///< MIC accelerator (Salomon-style)
  static DeviceSpec gpgpu();         ///< discrete GPU accelerator
};

}  // namespace antarex::power
