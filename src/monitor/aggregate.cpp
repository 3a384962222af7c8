#include "monitor/aggregate.hpp"

#include <algorithm>

namespace antarex::monitor {

// --- RetentionRing ----------------------------------------------------------

RetentionRing::RetentionRing(std::size_t capacity) : capacity_(capacity) {
  ANTAREX_REQUIRE(capacity > 0, "RetentionRing: need at least one cell");
  for (Level& l : levels_) l.cells.resize(capacity_);
}

void RetentionRing::push(double value) {
  ++pushes_;
  push_level(0, RingCell{value, value, value});
}

void RetentionRing::push_level(std::size_t level, const RingCell& cell) {
  Level& l = levels_[level];
  l.cells[l.head] = cell;
  l.head = (l.head + 1) % capacity_;
  if (l.size < capacity_) ++l.size;
  if (level + 1 >= kLevels) return;
  // Fold into the coarser level: every kFold cells become one cell carrying
  // the group's mean-of-means and min/max envelope.
  l.fold.add(cell.mean);
  if (l.folded == 0) {
    l.pend_min = cell.min;
    l.pend_max = cell.max;
  } else {
    l.pend_min = std::min(l.pend_min, cell.min);
    l.pend_max = std::max(l.pend_max, cell.max);
  }
  if (++l.folded == kFold) {
    const RingCell folded{l.fold.mean(), l.pend_min, l.pend_max};
    l.fold.clear();
    l.folded = 0;
    push_level(level + 1, folded);
  }
}

std::vector<RingCell> RetentionRing::history(std::size_t level) const {
  ANTAREX_REQUIRE(level < kLevels, "RetentionRing: level out of range");
  const Level& l = levels_[level];
  std::vector<RingCell> out;
  out.reserve(l.size);
  // Oldest first: the ring wraps at head.
  const std::size_t start = (l.head + capacity_ - l.size) % capacity_;
  for (std::size_t i = 0; i < l.size; ++i)
    out.push_back(l.cells[(start + i) % capacity_]);
  return out;
}

// --- ShardAggregator --------------------------------------------------------

namespace {
constexpr std::size_t kHotNodes = 16;  ///< TopK capacity of hot_nodes()
constexpr double kTempHiC = 150.0;     ///< temperature histogram range top

double metric_hi(const AggregatorConfig& cfg, Metric m) {
  switch (m) {
    case Metric::PowerW: return cfg.power_hi_w;
    case Metric::TempC: return kTempHiC;
    case Metric::Utilization: return 1.0;
    default: return cfg.progress_hi_ups;
  }
}
}  // namespace

ShardAggregator::ShardAggregator(std::size_t shards, AggregatorConfig cfg)
    : shards_(shards), cfg_(cfg), hot_nodes_(kHotNodes) {
  ANTAREX_REQUIRE(shards > 0, "ShardAggregator: need at least one shard");
  cells_.reserve(shards_ * kMetricCount);
  for (std::size_t s = 0; s < shards_; ++s)
    for (std::size_t m = 0; m < kMetricCount; ++m)
      cells_.emplace_back(0.0, metric_hi(cfg_, static_cast<Metric>(m)),
                          cfg_.sketch_bins);
  rings_.resize(kMetricCount, RetentionRing(cfg_.ring_capacity));
  step_.resize(kMetricCount);
}

void ShardAggregator::ingest(const MetricFrame& frame) {
  ANTAREX_REQUIRE(frame.shard < shards_, "ShardAggregator: shard out of range");
  ++frames_;
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    const auto metric = static_cast<Metric>(m);
    const double v = frame.value(metric);
    Cell& c = cell(frame.shard, metric);
    c.stat.add(v);
    c.sketch.add(v);
    step_[m].add(v);
  }
  // Degree-seconds over a soft thermal mark rank the "hot nodes" summary;
  // the weight is monotone, which SpaceSaving needs.
  constexpr double kHotMarkC = 70.0;
  if (frame.temp_c > kHotMarkC)
    hot_nodes_.offer(frame.node, static_cast<double>(frame.temp_c) - kHotMarkC);
}

void ShardAggregator::roll_step() {
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    if (step_[m].count > 0)
      rings_[m].push(step_[m].mean());
    step_[m].clear();
  }
}

const StreamStat& ShardAggregator::shard_stat(std::size_t shard,
                                              Metric m) const {
  ANTAREX_REQUIRE(shard < shards_, "ShardAggregator: shard out of range");
  return cell(shard, m).stat;
}

StreamStat ShardAggregator::cluster_stat(Metric m) const {
  StreamStat out;
  for (std::size_t s = 0; s < shards_; ++s) out.merge(cell(s, m).stat);
  return out;
}

std::vector<double> ShardAggregator::cluster_quantiles(
    Metric m, std::initializer_list<double> qs) const {
  Histogram merged(0.0, metric_hi(cfg_, m), cfg_.sketch_bins);
  for (std::size_t s = 0; s < shards_; ++s) merged.merge(cell(s, m).sketch);
  return merged.approx_quantiles(qs);
}

const RetentionRing& ShardAggregator::ring(Metric m) const {
  return rings_[static_cast<std::size_t>(m)];
}

std::size_t ShardAggregator::approx_bytes() const {
  std::size_t b = sizeof(*this) + hot_nodes_.approx_bytes();
  for (const Cell& c : cells_) b += sizeof(Cell) + c.sketch.approx_bytes();
  for (const RetentionRing& r : rings_) b += r.approx_bytes();
  b += step_.size() * sizeof(StreamStat);
  return b;
}

}  // namespace antarex::monitor
