#include "rtrm/cluster.hpp"

#include <algorithm>

#include "exec/pool.hpp"
#include "telemetry/telemetry.hpp"

namespace antarex::rtrm {

Cluster::Cluster(ClusterConfig config)
    : config_(config),
      dispatcher_(config.placement, config.backfill),
      thermal_guard_(config.t_crit_c) {
  ANTAREX_REQUIRE(config_.control_period_s > 0.0,
                  "Cluster: non-positive control period");
  ANTAREX_REQUIRE(config_.governor == GovernorPolicy::Ondemand,
                  "Cluster: only the Ondemand governor (use ShardedCluster)");
  ANTAREX_REQUIRE(!config_.facility_cap_w,
                  "Cluster: no facility power cap (use ShardedCluster)");
}

Node& Cluster::add_node(Node node) {
  nodes_.push_back(std::move(node));
  return nodes_.back();
}

void Cluster::fail_node(std::size_t i) {
  ANTAREX_REQUIRE(i < nodes_.size(), "Cluster: node index out of range");
  if (nodes_[i].failed()) return;
  dispatcher_.on_node_failed(nodes_[i].fail(), clock_.now());
  ++down_count_;
  TELEMETRY_COUNT("rtrm.node_crashes", 1);
  TELEMETRY_GAUGE("rtrm.nodes_down", static_cast<double>(nodes_down()));
}

void Cluster::repair_node(std::size_t i) {
  ANTAREX_REQUIRE(i < nodes_.size(), "Cluster: node index out of range");
  if (!nodes_[i].failed()) return;
  nodes_[i].repair();
  --down_count_;
  TELEMETRY_COUNT("rtrm.node_repairs", 1);
  TELEMETRY_GAUGE("rtrm.nodes_down", static_cast<double>(nodes_down()));
}

void Cluster::control_step() {
  TELEMETRY_SPAN("rtrm.control_step");
  for (auto& node : nodes_) {
    if (node.failed()) continue;  // no governor/guard action on a dead node
    for (auto& d : node.devices()) {
      // Ondemand: the top P-state while busy, the lowest while idle.
      d.set_op_index(d.busy() ? d.num_ops() - 1 : 0);
      if (config_.thermal_guard) thermal_guard_.step(d);
    }
  }
}

void Cluster::run_for(double duration_s, double dt_s) {
  ANTAREX_REQUIRE(duration_s >= 0.0 && dt_s > 0.0, "Cluster: bad run parameters");
  const double end = clock_.now() + duration_s;
  std::vector<std::vector<u64>> finished(nodes_.size());
  std::vector<double> node_power(nodes_.size(), 0.0);
  while (clock_.now() < end - 1e-12) {
    const double step = std::min(dt_s, end - clock_.now());

    dispatcher_.place(nodes_, clock_.now());
    if (clock_.now() + 1e-12 >= next_control_s_) {
      control_step();
      next_control_s_ = clock_.now() + config_.control_period_s;
    }

    // Node state is disjoint, so nodes step independently — in parallel when
    // a pool is attached. Completions and power are committed serially in
    // node-index order either way, keeping the run bit-identical across pool
    // sizes (and to the serial path).
    finished.resize(nodes_.size());
    node_power.resize(nodes_.size());
    const auto step_node = [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        finished[i] = nodes_[i].step(step, config_.ambient_c);
        node_power[i] = nodes_[i].power_w();
      }
    };
    if (pool_ && nodes_.size() > 1) {
      pool_->parallel_for(nodes_.size(), 1, step_node);
    } else {
      step_node(0, nodes_.size());
    }
    double it_power = 0.0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      for (u64 id : finished[i]) dispatcher_.on_finished(id, clock_.now() + step);
      it_power += node_power[i];
    }

    clock_.advance(step);

    TELEMETRY_GAUGE("rtrm.it_power_w", it_power);
    // The signal the govern power-cap policies watch (same value, stable
    // name independent of the internal it_power naming).
    TELEMETRY_GAUGE("rtrm.power_draw_w", it_power);
    telemetry_.time_s = clock_.now();
    telemetry_.it_energy_j += it_power * step;
    telemetry_.facility_energy_j +=
        it_power * step * cooling_.pue(it_power, config_.ambient_c);
    telemetry_.peak_it_power_w = std::max(telemetry_.peak_it_power_w, it_power);
    double step_max_c = config_.ambient_c;
    for (const auto& node : nodes_)
      for (const auto& d : node.devices())
        step_max_c = std::max(step_max_c, d.temperature_c());
    telemetry_.max_temperature_c =
        std::max(telemetry_.max_temperature_c, step_max_c);
    TELEMETRY_GAUGE("rtrm.max_temp_c", telemetry_.max_temperature_c);
    // Instantaneous headroom to the critical temperature — the signal the
    // obs thermal.throttle_alert policy watches.
    TELEMETRY_GAUGE("rtrm.thermal_headroom_c", config_.t_crit_c - step_max_c);
    telemetry_.jobs_completed = dispatcher_.completed();
    telemetry_.jobs_failed = dispatcher_.failed();
    for (auto& obs : step_observers_) obs(clock_.now(), it_power, step);
  }
}

bool Cluster::run_until_idle(double max_s, double dt_s) {
  const double deadline = clock_.now() + max_s;
  while (clock_.now() < deadline) {
    run_for(std::min(16.0 * dt_s, deadline - clock_.now()), dt_s);
    bool any_busy = dispatcher_.queued() > 0 || dispatcher_.running() > 0;
    if (!any_busy) return true;
  }
  return dispatcher_.queued() == 0 && dispatcher_.running() == 0;
}

double Cluster::it_power_w() const {
  double p = 0.0;
  for (const auto& node : nodes_) p += node.power_w();
  return p;
}

}  // namespace antarex::rtrm
