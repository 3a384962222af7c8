// antarex::monitor — the in-process topic-sharded broker.
//
// Examon runs MQTT brokers between node-level samplers and site-level
// consumers; this is the same decoupling point inside one process. Frames
// are addressed by (shard, node, metric) — the `cluster/<shard>/node/<id>/
// <metric>` topic of topic.hpp — and the topic space is split into `shards`,
// each owning a bounded FIFO queue. publish() enqueues a frame on its shard
// (or drops it, counted per shard, when the queue is full); drain() hands
// everything queued to one consumer, which in the fabric is always the
// aggregator followed by the detector.
//
// Determinism: publishes happen on the simulation thread in node-index
// order (the Cluster commits node state serially regardless of the exec
// worker count), and drain() walks shards in index order, each queue FIFO —
// so the delivery sequence is a pure function of the published sequence at
// any `--threads`.
//
// Memory: O(shards * kQueueCapacity), independent of node count. Saturation
// is visible, never silent: per-shard drop counts are kept internally,
// mirrored to telemetry drop counters (monitor.broker.dropped.cluster/
// <shard>), and exported in the metrics JSON "drops" section.
#pragma once

#include <vector>

#include "monitor/topic.hpp"
#include "support/common.hpp"

namespace antarex::monitor {

class Broker {
 public:
  /// Frames one shard queue holds between drains. Sized so a full shard's
  /// per-step traffic fits: nodes_per_shard <= kQueueCapacity means no drops.
  static constexpr std::size_t kQueueCapacity = 4096;

  explicit Broker(std::size_t shards);

  std::size_t shards() const { return queues_.size(); }

  /// Enqueue on the frame's shard; a full queue drops the frame (counted).
  void publish(const MetricFrame& frame);

  /// Call `consume(frame)` on every queued frame (shard order, FIFO within a
  /// shard) on the calling thread and empty the queues. Returns the number
  /// of frames delivered.
  template <typename Consumer>
  std::size_t drain(Consumer&& consume) {
    std::size_t n = 0;
    for (std::vector<MetricFrame>& q : queues_) {
      for (const MetricFrame& frame : q) consume(frame);
      n += q.size();
      q.clear();
    }
    delivered_ += n;
    return n;
  }

  u64 published() const { return published_; }
  u64 delivered() const { return delivered_; }
  u64 total_dropped() const;

  /// Approximate resident bytes of the queues (capacity-based, so the figure
  /// is load-independent — the bound, not the high-water mark).
  std::size_t approx_bytes() const;

 private:
  std::vector<std::vector<MetricFrame>> queues_;  ///< one bounded FIFO/shard
  std::vector<u64> dropped_;
  u64 published_ = 0;
  u64 delivered_ = 0;
};

}  // namespace antarex::monitor
