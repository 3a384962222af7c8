// First-order RC thermal model of a device + heatsink.
//
// The RTRM's "distributed optimal thermal management controller" (Sec. V)
// needs a plant to control: temperature rises toward ambient + P*R_th with
// time constant tau, and leakage feeds back through PowerModel.
#pragma once

#include "support/common.hpp"

namespace antarex::power {

/// Stateless: the cluster plant keeps every device's temperature in a flat
/// array and advances it through these helpers.
class ThermalModel {
 public:
  /// r_th: steady-state C/W above ambient; tau: thermal time constant.
  static constexpr double kDefaultRth = 0.25;
  static constexpr double kDefaultTau = 12.0;
  static constexpr double kDefaultInitialC = 40.0;

  /// The fraction of the gap to the target closed in one dt,
  /// 1 - exp(-dt/tau) (exact exponential integration, stable for any dt). It
  /// depends on dt and tau only, so a caller stepping many devices by the
  /// same dt evaluates it once.
  static double decay(double dt_s, double tau_s = kDefaultTau);
  /// The temperature after one step of `decay` toward the steady state
  /// ambient + power * r_th.
  static double relaxed_c(double temp_c, double power_w, double ambient_c,
                          double decay, double r_th_c_per_w = kDefaultRth) {
    const double target = ambient_c + power_w * r_th_c_per_w;
    return temp_c + (target - temp_c) * decay;
  }
};

}  // namespace antarex::power
