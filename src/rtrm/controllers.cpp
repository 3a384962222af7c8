#include "rtrm/controllers.hpp"

#include <algorithm>

#include "telemetry/telemetry.hpp"

namespace antarex::rtrm {

NodePowerController::NodePowerController(double budget_w) : budget_w_(budget_w) {
  ANTAREX_REQUIRE(budget_w_ > 0.0, "NodePowerController: non-positive budget");
}

void NodePowerController::set_budget_w(double w) {
  ANTAREX_REQUIRE(w > 0.0, "NodePowerController: non-positive budget");
  budget_w_ = w;
}

void NodePowerController::ensure_sized(const Node& node) {
  if (sized_ && ceiling_.size() == node.device_count()) return;
  ceiling_.resize(node.device_count());
  for (std::size_t i = 0; i < node.device_count(); ++i)
    ceiling_[i] = node.device(i).num_ops() - 1;
  sized_ = true;
}

std::size_t NodePowerController::ceiling(std::size_t device_index) const {
  ANTAREX_REQUIRE(device_index < ceiling_.size(),
                  "NodePowerController: device index out of range");
  return ceiling_[device_index];
}

void NodePowerController::clamp(Node& node) const {
  for (std::size_t i = 0; i < node.device_count() && i < ceiling_.size(); ++i) {
    Device& d = node.device(i);
    if (d.op_index() > ceiling_[i]) d.set_op_index(ceiling_[i]);
  }
}

bool NodePowerController::step(Node& node) {
  ensure_sized(node);
  clamp(node);

  const double p = node.power_w();
  bool changed = false;
  if (p > budget_w_) {
    // Over budget: lower the ceiling of the device currently drawing the
    // most power that still has room. One step per control period keeps the
    // loop stable.
    std::size_t victim = node.device_count();
    double worst = 0.0;
    for (std::size_t i = 0; i < node.device_count(); ++i) {
      if (ceiling_[i] == 0) continue;
      const double dp = node.device(i).power_w();
      if (dp > worst) {
        worst = dp;
        victim = i;
      }
    }
    if (victim < node.device_count()) {
      --ceiling_[victim];
      changed = true;
    }
  } else {
    // Headroom: estimate the cost of raising the cheapest constrained busy
    // device one step and allow it only with a 5% guard band.
    std::size_t candidate = node.device_count();
    double cheapest_raise = 0.0;
    for (std::size_t i = 0; i < node.device_count(); ++i) {
      Device& d = node.device(i);
      if (ceiling_[i] + 1 >= d.num_ops()) continue;
      if (!d.busy()) continue;
      const auto& next = d.spec().dvfs.at(ceiling_[i] + 1);
      const double mem_frac = d.workload().memory_boundedness(d.op());
      const double act = d.workload().activity * (1.0 - mem_frac) +
                         0.25 * d.workload().activity * mem_frac;
      const double raised =
          d.power_model().total_power_w(next, act, d.temperature_c());
      const double delta = raised - d.power_w();
      if (candidate == node.device_count() || delta < cheapest_raise) {
        candidate = i;
        cheapest_raise = delta;
      }
    }
    if (candidate < node.device_count() &&
        p + cheapest_raise <= 0.95 * budget_w_) {
      ++ceiling_[candidate];
      changed = true;
    }
  }
  clamp(node);
  return changed;
}

ClusterPowerManager::ClusterPowerManager(double facility_budget_w)
    : budget_w_(facility_budget_w) {
  ANTAREX_REQUIRE(budget_w_ > 0.0, "ClusterPowerManager: non-positive budget");
}

void ClusterPowerManager::step(std::vector<Node>& nodes) {
  if (nodes.empty()) return;
  alloc_.assign(nodes.size(), 0.0);
  while (node_ctl_.size() < nodes.size()) node_ctl_.emplace_back(1.0);

  // Floor: base power plus every device at its lowest P-state (idle).
  std::vector<double> floor(nodes.size());
  std::vector<double> demand(nodes.size());
  double floor_total = 0.0;
  double demand_total = 0.0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    double f = nodes[i].base_power_w();
    for (const auto& d : nodes[i].devices())
      f += d.power_model().idle_power_w(d.spec().dvfs.lowest(),
                                        d.temperature_c());
    floor[i] = f;
    demand[i] = std::max(nodes[i].power_w(), f);
    floor_total += f;
    demand_total += demand[i];
  }

  const double distributable = std::max(0.0, budget_w_ - floor_total);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const double share =
        demand_total > 0.0 ? demand[i] / demand_total
                           : 1.0 / static_cast<double>(nodes.size());
    alloc_[i] = floor[i] + distributable * share;
    node_ctl_[i].set_budget_w(std::max(alloc_[i], 1.0));
    node_ctl_[i].step(nodes[i]);
  }
}

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
