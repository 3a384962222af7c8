#include "rtrm/controllers.hpp"

#include "telemetry/telemetry.hpp"

namespace antarex::rtrm {

ThermalGuard::ThermalGuard(double t_crit_c, double hysteresis_c)
    : t_crit_(t_crit_c), hysteresis_(hysteresis_c) {
  ANTAREX_REQUIRE(hysteresis_ > 0.0, "ThermalGuard: non-positive hysteresis");
}

bool ThermalGuard::step(Device& device) {
  auto [it, inserted] = ceiling_.try_emplace(device.name(), device.num_ops() - 1);
  std::size_t& ceil = it->second;

  const double t = device.temperature_c();
  bool moved = false;
  if (t > t_crit_ && ceil > 0) {
    --ceil;
    ++throttles_;
    TELEMETRY_COUNT("rtrm.thermal_throttles", 1);
    moved = true;
  } else if (t < t_crit_ - hysteresis_ && ceil + 1 < device.num_ops()) {
    ++ceil;
    moved = true;
  }
  if (device.op_index() > ceil) device.set_op_index(ceil);
  return moved;
}

}  // namespace antarex::rtrm
