// Hierarchical power and thermal controllers (paper Sec. V: "scalable and
// hierarchical optimal control-loops").
//
// Authority model: governors *propose* a P-state per device each control
// period; the controllers own persistent per-device **ceilings** and clamp
// the proposal. This is what makes the loops compose instead of fight — a
// budget violation lowers a ceiling and the ceiling stays down until
// headroom returns, regardless of what the governor asks for.
//
// Layers:
//  - NodePowerController: enforces a node power budget via ceilings.
//  - ClusterPowerManager: splits a facility budget across nodes
//    proportionally to demand and drives the per-node controllers.
//  - ThermalGuard: per-device safety loop capping the P-state near the
//    critical junction temperature ("thermally-safe point").
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "rtrm/node.hpp"

namespace antarex::rtrm {

class NodePowerController {
 public:
  explicit NodePowerController(double budget_w);

  double budget_w() const { return budget_w_; }
  void set_budget_w(double w);

  /// One control step: compare node power to budget, move ceilings, clamp
  /// every device. Returns true if any ceiling changed.
  bool step(Node& node);

  /// Clamp device P-states to the current ceilings (idempotent; called by
  /// the cluster after the governor proposals).
  void clamp(Node& node) const;

  /// Current ceiling for a device index (defaults to the top P-state).
  std::size_t ceiling(std::size_t device_index) const;

 private:
  void ensure_sized(const Node& node);

  double budget_w_;
  std::vector<std::size_t> ceiling_;
  bool sized_ = false;
};

class ClusterPowerManager {
 public:
  explicit ClusterPowerManager(double facility_budget_w);

  double facility_budget_w() const { return budget_w_; }
  void set_facility_budget_w(double w) { budget_w_ = w; }

  /// Allocate per-node budgets proportional to instantaneous demand, with a
  /// guaranteed floor (base power + minimum-P-state draw), then run each
  /// node's (persistent) controller.
  void step(std::vector<Node>& nodes);

  /// Last computed allocation (diagnostics/benches).
  const std::vector<double>& allocations_w() const { return alloc_; }

 private:
  double budget_w_;
  std::vector<double> alloc_;
  std::vector<NodePowerController> node_ctl_;
};

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
