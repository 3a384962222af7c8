#include "fault/shard_driver.hpp"

#include <cstdio>

#include "telemetry/telemetry.hpp"

namespace antarex::fault {

ShardFaultDriver::ShardFaultDriver(rtrm::ShardedCluster& cluster,
                                   FaultSchedule schedule)
    : cluster_(cluster), schedule_(std::move(schedule)) {
  cluster_.add_step_observer([this](double now, double it_power, double dt) {
    on_step(now, it_power, dt);
  });
  cluster_.dispatcher().set_event_hook(
      [this](const char* kind, u64 job_id, double t) {
        char line[96];
        std::snprintf(line, sizeof(line), "%.17g %s job=%llu", t, kind,
                      static_cast<unsigned long long>(job_id));
        log_.emplace_back(line);
      });
}

void ShardFaultDriver::on_step(double now_s, double /*it_power_w*/,
                               double dt_s) {
  const std::size_t down = cluster_.nodes_down();
  if (down > 0) {
    stats_.time_under_fault_s += dt_s;
    stats_.node_downtime_s += static_cast<double>(down) * dt_s;
  }
  // Apply everything due by now. Events land at the first step boundary at or
  // after their timestamp — a fixed quantization, identical in every replay.
  while (cursor_ < schedule_.events.size() &&
         schedule_.events[cursor_].at_s <= now_s + 1e-12) {
    apply(schedule_.events[cursor_]);
    ++cursor_;
  }
}

void ShardFaultDriver::apply(const FaultEvent& e) {
  TELEMETRY_SPAN("fault.inject");
  ANTAREX_REQUIRE(e.node < cluster_.node_count(),
                  "ShardFaultDriver: event for a node outside the cluster");

  switch (e.kind) {
    case FaultKind::NodeCrash:
      cluster_.fail_node(e.node);
      ++stats_.crashes;
      TELEMETRY_COUNT("fault.crashes", 1);
      break;
    case FaultKind::NodeRepair:
      cluster_.repair_node(e.node);
      ++stats_.repairs;
      TELEMETRY_COUNT("fault.repairs", 1);
      break;
    case FaultKind::SensorGlitch:
      ANTAREX_REQUIRE(e.device < cluster_.node_device_count(e.node),
                      "ShardFaultDriver: glitch for a missing device");
      cluster_.set_reading_offset_j(e.node, e.device, e.magnitude);
      telemetry::mark_samples_poisoned();
      ++stats_.glitches;
      TELEMETRY_COUNT("fault.glitches", 1);
      break;
    case FaultKind::GlitchClear:
      ANTAREX_REQUIRE(e.device < cluster_.node_device_count(e.node),
                      "ShardFaultDriver: glitch-clear for a missing device");
      cluster_.set_reading_offset_j(e.node, e.device, 0.0);
      telemetry::mark_samples_poisoned();
      break;
    case FaultKind::ThermalThrottle:
      ANTAREX_REQUIRE(e.device < cluster_.node_device_count(e.node),
                      "ShardFaultDriver: throttle for a missing device");
      cluster_.force_throttle(e.node, e.device, e.duration_s);
      ++stats_.throttles;
      TELEMETRY_COUNT("fault.throttles", 1);
      break;
    case FaultKind::SlowNode:
      cluster_.set_node_slowdown(e.node, e.magnitude);
      ++stats_.slowdowns;
      TELEMETRY_COUNT("fault.slowdowns", 1);
      break;
    case FaultKind::SlowNodeEnd:
      cluster_.set_node_slowdown(e.node, 1.0);
      break;
  }

  char line[160];
  std::snprintf(line, sizeof(line), "%.17g %s node=%u dev=%u mag=%.17g",
                e.at_s, fault_kind_name(e.kind), e.node, e.device, e.magnitude);
  log_.emplace_back(line);
}

std::string ShardFaultDriver::replay_trace() const {
  std::string out;
  out += schedule_.to_text();
  for (const std::string& line : log_) {
    out += line;
    out += '\n';
  }
  // Registry counters: only the simulation-side prefixes. exec.* (tasks,
  // steals, retries) legitimately differ across thread counts; the simulated
  // plant must not.
  const auto counters = telemetry::Registry::global().counters();
  for (const auto& [name, c] : counters) {
    if (name.rfind("rtrm.", 0) != 0 && name.rfind("fault.", 0) != 0 &&
        name.rfind("power.", 0) != 0)
      continue;
    // A zero counter only tells us the instrument object exists, which
    // depends on what else ran in this process before the replay — skip so
    // the trace reflects the run alone.
    if (c->value() == 0) continue;
    char line[160];
    std::snprintf(line, sizeof(line), "counter %s=%llu\n", name.c_str(),
                  static_cast<unsigned long long>(c->value()));
    out += line;
  }
  const rtrm::ClusterTelemetry& t = cluster_.telemetry();
  char line[256];
  std::snprintf(line, sizeof(line),
                "final time=%.17g it_energy_j=%.17g completed=%llu "
                "failed=%llu requeued=%llu under_fault_s=%.17g\n",
                t.time_s, t.it_energy_j,
                static_cast<unsigned long long>(t.jobs_completed),
                static_cast<unsigned long long>(t.jobs_failed),
                static_cast<unsigned long long>(
                    cluster_.dispatcher().requeued_jobs()),
                stats_.time_under_fault_s);
  out += line;
  return out;
}

}  // namespace antarex::fault
