// Thermal safety controller (paper Sec. V: "scalable and hierarchical
// optimal control-loops") for the legacy per-object plant: a per-device loop
// capping the P-state near the critical junction temperature
// ("thermally-safe point"). The governor proposes a P-state each control
// period; the guard owns a persistent per-device ceiling and clamps the
// proposal, so the two loops compose instead of fight. ShardedCluster runs
// the same rule over its SoA arrays (guard_step).
#pragma once

#include <string>
#include <unordered_map>

#include "rtrm/device.hpp"

namespace antarex::rtrm {

class ThermalGuard {
 public:
  /// Default critical junction temperature typical of server silicon.
  explicit ThermalGuard(double t_crit_c = 85.0, double hysteresis_c = 5.0);

  /// Lower the device's persistent ceiling above t_crit; allow recovery
  /// below t_crit - hysteresis. Always clamps to the ceiling. Returns true
  /// if the ceiling moved.
  bool step(Device& device);

  double t_crit_c() const { return t_crit_; }
  u64 throttle_events() const { return throttles_; }

 private:
  double t_crit_;
  double hysteresis_;
  u64 throttles_ = 0;
  std::unordered_map<std::string, std::size_t> ceiling_;  ///< by device name
};

}  // namespace antarex::rtrm
