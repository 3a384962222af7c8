#include "power/thermal.hpp"

#include <cmath>

namespace antarex::power {

double ThermalModel::decay(double dt_s, double tau_s) {
  ANTAREX_REQUIRE(dt_s >= 0.0, "ThermalModel: negative time step");
  return 1.0 - std::exp(-dt_s / tau_s);
}

}  // namespace antarex::power
