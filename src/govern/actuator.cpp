#include "govern/actuator.hpp"

#include <algorithm>

#include "nav/server.hpp"
#include "rtrm/sharded_cluster.hpp"
#include "telemetry/telemetry.hpp"

namespace antarex::govern {

namespace {

void note(const std::string& name, bool restricting, double level) {
  // Two call sites on purpose: TELEMETRY_COUNT caches the counter per site.
  if (restricting) {
    TELEMETRY_COUNT("govern.actuator_restricts", 1);
  } else {
    TELEMETRY_COUNT("govern.actuator_relaxes", 1);
  }
  telemetry::Registry::global().gauge("govern.level." + name).set(level);
}

}  // namespace

// ---------------------------------------------------------------- DvfsActuator

DvfsActuator::DvfsActuator(rtrm::ShardedCluster& cluster) : cluster_(cluster) {
  std::size_t deepest = 1;
  for (std::size_t i = 0; i < cluster_.node_count(); ++i)
    for (std::size_t d = 0; d < cluster_.node_device_count(i); ++d)
      deepest = std::max(deepest, cluster_.device_spec(i, d).dvfs.size());
  max_steps_ = deepest - 1;
  steps_ = std::min(cluster_.op_step_down(), max_steps_);
}

bool DvfsActuator::restrict() {
  if (steps_ >= max_steps_) return false;
  cluster_.set_op_step_down(++steps_);
  note(name_, true, level());
  return true;
}

bool DvfsActuator::relax() {
  if (steps_ == 0) return false;
  cluster_.set_op_step_down(--steps_);
  note(name_, false, level());
  return true;
}

// ----------------------------------------------------------------- NavActuator

NavActuator::NavActuator(nav::NavServer& server, std::size_t nominal_window,
                         std::size_t min_window)
    : server_(server),
      nominal_(std::max<std::size_t>(1, nominal_window)),
      min_(std::max<std::size_t>(1, min_window)) {
  min_ = std::min(min_, nominal_);
  max_steps_ = 0;
  for (std::size_t w = nominal_; w > min_; w = std::max(min_, w / 2))
    ++max_steps_;
  server_.set_admission_cap(nominal_);
}

std::size_t NavActuator::window() const {
  std::size_t w = nominal_;
  for (std::size_t i = 0; i < steps_; ++i) w = std::max(min_, w / 2);
  return w;
}

void NavActuator::apply() const { server_.set_admission_cap(window()); }

bool NavActuator::restrict() {
  if (steps_ >= max_steps_) return false;
  ++steps_;
  apply();
  note(name_, true, level());
  return true;
}

bool NavActuator::relax() {
  if (steps_ == 0) return false;
  --steps_;
  apply();
  note(name_, false, level());
  return true;
}

}  // namespace antarex::govern
