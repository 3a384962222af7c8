#include "monitor/fabric.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "govern/sharded_cap.hpp"
#include "power/rapl.hpp"
#include "rtrm/sharded_cluster.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "telemetry/telemetry.hpp"

namespace antarex::monitor {

MonitorFabric::MonitorFabric(FabricConfig cfg)
    : cfg_(cfg),
      broker_(cfg.shards),
      aggregator_(cfg.shards, cfg.aggregator),
      detector_(cfg.shards) {
  ANTAREX_REQUIRE(cfg_.shards > 0, "MonitorFabric: need at least one shard");
  ANTAREX_REQUIRE(cfg_.sample_period_s > 0.0,
                  "MonitorFabric: sample period must be positive");
  detector_.set_hook([this](const Episode& e, bool opened) {
    for (const EpisodeListener& fn : listeners_) fn(e, opened);
  });
}

void MonitorFabric::attach(rtrm::ShardedCluster& cluster) {
  ANTAREX_REQUIRE(!attached_, "MonitorFabric: attach() called twice");
  attached_ = true;

  dev_base_.clear();
  std::size_t devices = 0;
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    dev_base_.push_back(devices);
    devices += cluster.node_device_count(i);
  }
  prev_uj_.assign(devices, 0);

  cluster.add_step_observer(
      [this, &cluster](double now_s, double /*it_power_w*/, double /*dt_s*/) {
        on_step(cluster, now_s);
      });
}

void MonitorFabric::prime(rtrm::ShardedCluster& cluster) {
  for (std::size_t i = 0; i < cluster.node_count(); ++i)
    for (std::size_t d = 0; d < cluster.node_device_count(i); ++d)
      prev_uj_[dev_base_[i] + d] = cluster.device_counter_uj(i, d);
}

void MonitorFabric::on_step(rtrm::ShardedCluster& cluster, double now_s) {
  if (now_s + 1e-9 < next_sample_s_) return;
  const auto t0 = std::chrono::steady_clock::now();

  if (!primed_) {
    // First sweep: record RAPL readings only; a delta needs two of them.
    prime(cluster);
    primed_ = true;
  } else {
    sample(cluster, now_s, now_s - last_sample_s_);
  }
  last_sample_s_ = now_s;
  while (next_sample_s_ <= now_s + 1e-9) next_sample_s_ += cfg_.sample_period_s;

  self_s_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
}

void MonitorFabric::sample(rtrm::ShardedCluster& cluster, double now_s,
                           double elapsed_s) {
  ANTAREX_REQUIRE(elapsed_s > 0.0, "MonitorFabric: non-advancing sample clock");
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    const std::size_t n_dev = cluster.node_device_count(i);
    double energy_j = 0.0;
    double temp_c = 0.0;
    double progress = 0.0;
    u16 busy = 0;
    for (std::size_t d = 0; d < n_dev; ++d) {
      const u32 cur = cluster.device_counter_uj(i, d);
      u32& prev = prev_uj_[dev_base_[i] + d];
      energy_j += power::RaplDomain::delta_j(prev, cur);
      prev = cur;
      temp_c = std::max(temp_c, cluster.device_temperature_c(i, d));
      progress += cluster.device_progress_rate_ups(i, d);
      if (cluster.device_busy(i, d)) ++busy;
    }
    // A downed node's sampler is down with it: readings refreshed (above),
    // nothing published.
    if (cluster.node_failed(i)) continue;

    MetricFrame frame;
    frame.t_s = now_s;
    frame.node = static_cast<u32>(i);
    frame.shard = shard_of(i);
    frame.busy_devices = busy;
    frame.power_w =
        static_cast<float>(energy_j / elapsed_s + cluster.node_base_power_w(i));
    frame.temp_c = static_cast<float>(temp_c);
    frame.util = n_dev ? static_cast<float>(busy) / static_cast<float>(n_dev)
                       : 0.0f;
    frame.progress_ups = static_cast<float>(progress);
    broker_.publish(frame);
  }
  deliver();
}

void MonitorFabric::add_episode_listener(EpisodeListener fn) {
  ANTAREX_REQUIRE(fn != nullptr, "MonitorFabric: null episode listener");
  listeners_.push_back(std::move(fn));
}

void MonitorFabric::deliver() {
  // Delivery order per frame: aggregate, then detect.
  broker_.drain([this](const MetricFrame& f) {
    aggregator_.ingest(f);
    detector_.observe(f);
  });
  aggregator_.roll_step();
  ++samples_;
  TELEMETRY_COUNT("monitor.samples", 1);
  TELEMETRY_GAUGE("monitor.frames_published",
                  static_cast<double>(broker_.published()));
}

std::size_t MonitorFabric::approx_bytes() const {
  return broker_.approx_bytes() + aggregator_.approx_bytes() +
         detector_.approx_bytes();
}

std::size_t MonitorFabric::sampler_bytes() const {
  return prev_uj_.size() * sizeof(u32) + dev_base_.size() * sizeof(std::size_t);
}

std::string MonitorFabric::health_json() const {
  std::ostringstream os;
  os << "{\"schema\":\"antarex.monitor.health/v1\"";
  os << ",\"shards\":" << cfg_.shards;
  os << ",\"samples\":" << samples_;
  os << ",\"frames\":" << aggregator_.frames();
  os << ",\"published\":" << broker_.published();
  os << ",\"dropped\":" << broker_.total_dropped();
  os << ",\"fabric_bytes\":" << approx_bytes();

  os << ",\"metrics\":{";
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    const auto metric = static_cast<Metric>(m);
    const StreamStat s = aggregator_.cluster_stat(metric);
    os << (m ? "," : "") << json_quote(metric_name(metric)) << ":{";
    os << "\"count\":" << s.count;
    os << ",\"mean\":" << s.mean();
    os << ",\"min\":" << s.min;
    os << ",\"max\":" << s.max;
    const std::vector<double> q = aggregator_.cluster_quantiles(metric, {0.5, 0.95});
    os << ",\"p50\":" << q[0];
    os << ",\"p95\":" << q[1];
    os << "}";
  }
  os << "}";

  os << ",\"shard_mean\":{";
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    const auto metric = static_cast<Metric>(m);
    os << (m ? "," : "") << json_quote(metric_name(metric)) << ":[";
    for (std::size_t s = 0; s < aggregator_.shards(); ++s)
      os << (s ? "," : "") << aggregator_.shard_stat(s, metric).mean();
    os << "]";
  }
  os << "}";

  // Retention-ring means, finest first — the downsampled time axis a
  // dashboard would plot.
  os << ",\"ring\":{";
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    const auto metric = static_cast<Metric>(m);
    os << (m ? "," : "") << json_quote(metric_name(metric)) << ":[";
    for (std::size_t level = 0; level < RetentionRing::kLevels; ++level) {
      const auto cells = aggregator_.ring(metric).history(level);
      os << (level ? "," : "") << "[";
      for (std::size_t c = 0; c < cells.size(); ++c)
        os << (c ? "," : "") << cells[c].mean;
      os << "]";
    }
    os << "]";
  }
  os << "}";

  os << ",\"hot_nodes\":[";
  const auto ranked = aggregator_.hot_nodes().ranked();
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    os << (i ? "," : "") << "{\"node\":" << ranked[i].key
       << ",\"weight\":" << ranked[i].weight
       << ",\"error\":" << ranked[i].error << "}";
  }
  os << "]";

  os << ",\"episodes\":[";
  const auto episodes = detector_.episodes();
  for (std::size_t i = 0; i < episodes.size(); ++i) {
    const Episode& e = episodes[i];
    os << (i ? "," : "") << "{\"node\":" << e.node << ",\"shard\":" << e.shard
       << ",\"kind\":" << json_quote(anomaly_kind_name(e.kind))
       << ",\"open_s\":" << e.open_t_s << ",\"close_s\":" << e.close_t_s
       << ",\"peak_z\":" << e.peak_z << ",\"samples\":" << e.samples
       << ",\"open\":" << (e.open ? "true" : "false") << "}";
  }
  os << "]}";
  return os.str();
}

void feed_governance(MonitorFabric& fabric,
                     govern::ShardedCapCoordinator& coordinator,
                     double penalty) {
  ANTAREX_REQUIRE(penalty > 0.0 && penalty <= 1.0,
                  "feed_governance: penalty outside (0, 1]");
  fabric.add_episode_listener(
      [&coordinator, penalty](const Episode& e, bool opened) {
        // Sensor glitches corrupt a reading, not the node: reweighting on
        // them would shave budget off a healthy machine.
        if (e.kind == AnomalyKind::PowerSpike) return;
        coordinator.set_node_weight(e.node, opened ? penalty : 1.0);
      });
}

}  // namespace antarex::monitor
