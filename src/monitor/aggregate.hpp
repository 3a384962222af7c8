// antarex::monitor — bounded-memory streaming aggregation.
//
// The site-level half of the Examon model: node samples fan into per-shard
// aggregates whose footprint is a function of configuration, never of node
// count. Three pieces compose:
//
//   StreamStat      count/sum/min/max over one (shard, metric) stream
//   Histogram       antarex::Histogram (support/stats) over a configured
//                   value range; quantiles interpolate inside the bin, so
//                   the error is bounded by one bin width
//   RetentionRing   RRD-style multi-resolution history: three rings at 1x,
//                   10x, and 100x step resolution. Every step pushes into the
//                   fine ring; every 10th (100th) completed group folds its
//                   mean into the coarser ring. Old data ages into coarser
//                   resolution instead of growing memory.
//
// ShardAggregator owns one StreamStat + Histogram per (shard, metric)
// and one RetentionRing per metric at cluster scope, plus a TopK of the 16
// hottest nodes — total memory O(shards * metrics + K).
//
// All updates happen on the simulation thread (broker drain); determinism
// follows from delivery order.
#pragma once

#include <array>
#include <initializer_list>
#include <vector>

#include "monitor/topic.hpp"
#include "monitor/topk.hpp"
#include "support/common.hpp"
#include "support/stats.hpp"

namespace antarex::monitor {

/// Streaming count/sum/min/max. Mean is exact; everything is mergeable.
struct StreamStat {
  u64 count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  void add(double x) {
    if (count == 0) {
      min = max = x;
    } else {
      if (x < min) min = x;
      if (x > max) max = x;
    }
    ++count;
    sum += x;
  }
  void merge(const StreamStat& o) {
    if (o.count == 0) return;
    if (count == 0) {
      *this = o;
      return;
    }
    count += o.count;
    sum += o.sum;
    if (o.min < min) min = o.min;
    if (o.max > max) max = o.max;
  }
  double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }
  void clear() { *this = StreamStat{}; }
};

/// One fixed-capacity ring of (mean, min, max) cells.
struct RingCell {
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Multi-resolution retention: level 0 holds the last `capacity` raw pushes,
/// level 1 the last `capacity` means-of-10, level 2 means-of-100. ~3*capacity
/// cells cover 111x the fine window — the RRD trade: recent history sharp,
/// old history coarse, memory constant.
class RetentionRing {
 public:
  static constexpr std::size_t kLevels = 3;
  static constexpr std::size_t kFold = 10;  ///< pushes folded per level step

  explicit RetentionRing(std::size_t capacity = 128);

  void push(double value);
  u64 pushes() const { return pushes_; }

  /// Most-recent-last cells of `level` (0 = raw steps, 1 = 10-step means,
  /// 2 = 100-step means). At most `capacity` cells.
  std::vector<RingCell> history(std::size_t level) const;
  std::size_t capacity() const { return capacity_; }

  std::size_t approx_bytes() const {
    return sizeof(*this) + kLevels * capacity_ * sizeof(RingCell);
  }

 private:
  struct Level {
    std::vector<RingCell> cells;  ///< ring storage, capacity_ cells
    std::size_t head = 0;         ///< next write index
    std::size_t size = 0;
    StreamStat fold;  ///< accumulates kFold entries for the next level
    u64 folded = 0;   ///< entries currently in `fold`
    double pend_min = 0.0;  ///< min/max envelope of the open fold group
    double pend_max = 0.0;
  };

  void push_level(std::size_t level, const RingCell& cell);

  std::size_t capacity_;
  std::array<Level, kLevels> levels_;
  u64 pushes_ = 0;
};

struct AggregatorConfig {
  std::size_t sketch_bins = 64;
  std::size_t ring_capacity = 128;
  /// Histogram value ranges per metric (clamped beyond them). Temperature is
  /// fixed at 0..150 C and utilization at 0..1.
  double power_hi_w = 1000.0;
  double progress_hi_ups = 50.0;
};

/// Per-shard + cluster-level rollup of every frame the broker delivers.
class ShardAggregator {
 public:
  ShardAggregator(std::size_t shards, AggregatorConfig cfg = {});

  std::size_t shards() const { return shards_; }
  const AggregatorConfig& config() const { return cfg_; }

  /// Ingest one frame (the broker delivers every frame here first).
  void ingest(const MetricFrame& frame);
  /// Close the current step: fold per-step cluster means into the retention
  /// rings. Call once per sampling step, after the drain.
  void roll_step();

  u64 frames() const { return frames_; }
  const StreamStat& shard_stat(std::size_t shard, Metric m) const;
  StreamStat cluster_stat(Metric m) const;  ///< merged over shards
  /// Quantiles (q in [0,1]) from one merge of the shard histograms.
  std::vector<double> cluster_quantiles(Metric m,
                                        std::initializer_list<double> qs) const;
  const RetentionRing& ring(Metric m) const;
  const TopK& hot_nodes() const { return hot_nodes_; }

  /// Node-count-independent memory bound of everything this object owns.
  std::size_t approx_bytes() const;

 private:
  struct Cell {
    StreamStat stat;
    Histogram sketch;
    Cell(double lo, double hi, std::size_t bins) : sketch(lo, hi, bins) {}
  };
  Cell& cell(std::size_t shard, Metric m) {
    return cells_[shard * kMetricCount + static_cast<std::size_t>(m)];
  }
  const Cell& cell(std::size_t shard, Metric m) const {
    return cells_[shard * kMetricCount + static_cast<std::size_t>(m)];
  }

  std::size_t shards_;
  AggregatorConfig cfg_;
  std::vector<Cell> cells_;  ///< shards * kMetricCount
  std::vector<RetentionRing> rings_;  ///< one per metric, cluster scope
  std::vector<StreamStat> step_;      ///< per-metric stats of the open step
  TopK hot_nodes_;                    ///< hottest nodes by degree-seconds
  u64 frames_ = 0;
};

}  // namespace antarex::monitor
