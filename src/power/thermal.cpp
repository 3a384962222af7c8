#include "power/thermal.hpp"

#include <cmath>

namespace antarex::power {

ThermalModel::ThermalModel(double r_th_c_per_w, double tau_s, double initial_c)
    : r_th_(r_th_c_per_w), tau_s_(tau_s), temp_c_(initial_c) {
  ANTAREX_REQUIRE(r_th_ > 0.0 && tau_s_ > 0.0, "ThermalModel: bad constants");
}

void ThermalModel::step(double power_w, double ambient_c, double dt_s) {
  temp_c_ = relaxed_c(temp_c_, power_w, ambient_c, decay(dt_s, tau_s_), r_th_);
}

double ThermalModel::decay(double dt_s, double tau_s) {
  ANTAREX_REQUIRE(dt_s >= 0.0, "ThermalModel: negative time step");
  // Exact exponential integration — stable for any dt.
  return 1.0 - std::exp(-dt_s / tau_s);
}

double ThermalModel::steady_state_c(double power_w, double ambient_c) const {
  return ambient_c + power_w * r_th_;
}

}  // namespace antarex::power
