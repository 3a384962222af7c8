// antarex::govern actuators — the "act" edge of the observe-decide-act loop.
//
// An Actuator is a stepped restriction knob over some part of the stack: each
// restrict() moves it one notch away from nominal (less power or
// admission), each relax() moves it one notch back. Steps are discrete and
// bounded, so the cap coordinator's escalation ladder can walk them without
// knowing what lies behind each rung, and level() reports where on the
// ladder the knob currently sits.
//
// Concrete actuators:
//  - DvfsActuator      global P-state step-down on an rtrm::ShardedCluster
//                      (one notch = every device clamped one more P-state
//                      below its top; the classical power knob of Sec. V)
//  - NavActuator       halves nav::NavServer's admission window per notch —
//                      the server trades throughput for draw under a cap
//
// All actuators mutate their target deterministically and synchronously on
// the caller's thread; none of them touches an RNG.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "support/common.hpp"

namespace antarex::rtrm {
class ShardedCluster;
}
namespace antarex::nav {
class NavServer;
}

namespace antarex::govern {

class Actuator {
 public:
  virtual ~Actuator() = default;

  virtual const std::string& name() const = 0;

  /// One notch toward maximum restriction. Returns false when already at the
  /// bottom of the ladder (no state changed).
  virtual bool restrict() = 0;
  /// One notch back toward nominal. Returns false at nominal.
  virtual bool relax() = 0;

  /// Notches currently applied, in [0, max_steps()].
  virtual std::size_t steps() const = 0;
  virtual std::size_t max_steps() const = 0;

  /// 1 = nominal, 0 = maximally restricted.
  double level() const {
    const std::size_t m = max_steps();
    return m == 0 ? 1.0
                  : 1.0 - static_cast<double>(steps()) / static_cast<double>(m);
  }

  /// Back to nominal (relax everything).
  void reset() {
    while (relax()) {
    }
  }
};

/// Cluster-wide DVFS stepping via rtrm::ShardedCluster::set_op_step_down.
/// max_steps is the deepest DVFS table across the cluster's devices minus
/// one, frozen at construction.
class DvfsActuator final : public Actuator {
 public:
  explicit DvfsActuator(rtrm::ShardedCluster& cluster);

  const std::string& name() const override { return name_; }
  bool restrict() override;
  bool relax() override;
  std::size_t steps() const override { return steps_; }
  std::size_t max_steps() const override { return max_steps_; }

 private:
  std::string name_ = "dvfs";
  rtrm::ShardedCluster& cluster_;
  std::size_t steps_ = 0;
  std::size_t max_steps_;
};

/// nav::NavServer admission shrink: each notch halves the window (floor
/// min_window), relax doubles it back toward nominal_window.
class NavActuator final : public Actuator {
 public:
  NavActuator(nav::NavServer& server, std::size_t nominal_window,
              std::size_t min_window = 1);

  const std::string& name() const override { return name_; }
  bool restrict() override;
  bool relax() override;
  std::size_t steps() const override { return steps_; }
  std::size_t max_steps() const override { return max_steps_; }

  std::size_t window() const;  ///< current admission window

 private:
  void apply() const;

  std::string name_ = "nav";
  nav::NavServer& server_;
  std::size_t nominal_;
  std::size_t min_;
  std::size_t max_steps_;
  std::size_t steps_ = 0;
};

}  // namespace antarex::govern
