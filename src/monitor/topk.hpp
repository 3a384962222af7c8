// antarex::monitor — space-saving top-K heavy hitters.
//
// Metwally/Agrawal/El Abbadi's SpaceSaving sketch over node ids: K counters
// total, O(1) offer, and a guarantee that any node whose true weight exceeds
// total/K is present in the summary. The fabric uses one instance to keep the
// K most anomalous / hottest nodes visible without per-node state — the "K"
// in the aggregator's O(shards + K) memory bound.
//
// Counts are monotone weights (anomaly flags, degree-seconds over threshold),
// offered from the simulation thread only; no locking.
#pragma once

#include <algorithm>
#include <vector>

#include "support/common.hpp"

namespace antarex::monitor {

class TopK {
 public:
  struct Entry {
    u32 key = 0;
    double weight = 0.0;  ///< upper bound on the true weight
    double error = 0.0;   ///< overestimation bound (weight - error <= true)
  };

  explicit TopK(std::size_t k);

  std::size_t capacity() const { return k_; }
  std::size_t size() const { return entries_.size(); }
  double total_weight() const { return total_; }

  /// Add `weight` to `key`'s counter. When the summary is full and `key` is
  /// absent, the minimum entry is evicted and its count inherited (the
  /// classic SpaceSaving replacement, with the inherited part recorded as
  /// `error`).
  void offer(u32 key, double weight = 1.0);

  /// Entries sorted by weight descending, ties by key ascending — a
  /// deterministic ranking for reports and digests.
  std::vector<Entry> ranked() const;

  std::size_t approx_bytes() const {
    return sizeof(*this) + k_ * sizeof(Entry);
  }

 private:
  std::size_t k_;
  std::vector<Entry> entries_;  ///< unordered; scanned (K is small)
  double total_ = 0.0;
};

}  // namespace antarex::monitor
