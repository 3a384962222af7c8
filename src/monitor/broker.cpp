#include "monitor/broker.hpp"

#include <numeric>

#include "support/strings.hpp"
#include "telemetry/telemetry.hpp"

namespace antarex::monitor {

Broker::Broker(std::size_t shards) {
  ANTAREX_REQUIRE(shards > 0, "Broker: need at least one shard");
  queues_.resize(shards);
  dropped_.assign(shards, 0);
  for (auto& q : queues_) q.reserve(kQueueCapacity);
}

void Broker::publish(const MetricFrame& frame) {
  ANTAREX_REQUIRE(frame.shard < queues_.size(),
                  "Broker: frame addressed to a missing shard");
  ++published_;
  std::vector<MetricFrame>& q = queues_[frame.shard];
  if (q.size() >= kQueueCapacity) {
    ++dropped_[frame.shard];
    // Saturation must be observable from outside the process too: mirror the
    // per-shard count into a telemetry drop counter (the metrics-JSON
    // exporter surfaces all of them under "drops").
    telemetry::Registry::global()
        .drop_counter(format("monitor.broker.dropped.cluster/%u",
                             static_cast<unsigned>(frame.shard)))
        .add(1);
    return;
  }
  q.push_back(frame);
}

u64 Broker::total_dropped() const {
  return std::accumulate(dropped_.begin(), dropped_.end(), u64{0});
}

std::size_t Broker::approx_bytes() const {
  return queues_.size() *
             (kQueueCapacity * sizeof(MetricFrame) + sizeof(queues_[0])) +
         dropped_.size() * sizeof(u64);
}

}  // namespace antarex::monitor
