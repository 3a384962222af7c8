// First-order RC thermal model of a device + heatsink.
//
// The RTRM's "distributed optimal thermal management controller" (Sec. V)
// needs a plant to control: temperature rises toward ambient + P*R_th with
// time constant tau, and leakage feeds back through PowerModel.
#pragma once

#include "support/common.hpp"

namespace antarex::power {

class ThermalModel {
 public:
  /// Defaults shared with the SoA cluster engine, which stores temperatures
  /// in flat arrays instead of owning ThermalModel instances.
  static constexpr double kDefaultRth = 0.25;
  static constexpr double kDefaultTau = 12.0;
  static constexpr double kDefaultInitialC = 40.0;

  /// r_th: steady-state C/W above ambient; tau: thermal time constant.
  ThermalModel(double r_th_c_per_w = kDefaultRth, double tau_s = kDefaultTau,
               double initial_c = kDefaultInitialC);

  /// Advance by dt with the given dissipated power and ambient temperature.
  void step(double power_w, double ambient_c, double dt_s);

  /// Stateless core of step(), shared with the SoA cluster engine so both
  /// paths run identical arithmetic. decay() is the fraction of the gap to
  /// the target closed in one dt, 1 - exp(-dt/tau); it depends on dt and tau
  /// only, so a caller stepping many devices by the same dt evaluates it
  /// once. relaxed_c() is the temperature after that step.
  static double decay(double dt_s, double tau_s = kDefaultTau);
  static double relaxed_c(double temp_c, double power_w, double ambient_c,
                          double decay, double r_th_c_per_w = kDefaultRth) {
    const double target = ambient_c + power_w * r_th_c_per_w;
    return temp_c + (target - temp_c) * decay;
  }

  double temperature_c() const { return temp_c_; }
  void reset(double temp_c) { temp_c_ = temp_c; }

  /// Temperature the model converges to under constant conditions.
  double steady_state_c(double power_w, double ambient_c) const;

 private:
  double r_th_;
  double tau_s_;
  double temp_c_;
};

}  // namespace antarex::power
