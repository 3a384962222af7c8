// Streaming and batch statistics used by monitors, benches and models.
#pragma once

#include <cmath>
#include <cstddef>
#include <initializer_list>
#include <vector>

#include "support/common.hpp"

namespace antarex {

/// Welford online mean/variance accumulator.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< sample variance (n-1); 0 if n < 2
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

  /// Merge another accumulator (parallel reduction).
  void merge(const RunningStats& other);

  /// n observations of the same finite x, built in O(1): the state n add(x)
  /// calls leave in an empty accumulator.
  static RunningStats repeated(double x, std::size_t n);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Sliding window over the last N samples with percentile queries; backs the
/// SLA monitors (e.g. p95 latency in the navigation server).
class SlidingWindow {
 public:
  explicit SlidingWindow(std::size_t capacity);

  void add(double x);
  std::size_t size() const { return buf_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool full() const { return buf_.size() == capacity_; }
  double mean() const;
  /// Percentile in [0,100] by nearest-rank on a sorted copy.
  double percentile(double p) const;
  /// Several percentile() values from one sorted copy.
  std::vector<double> percentiles(std::initializer_list<double> ps) const;
  void clear();

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;
  std::vector<double> buf_;
};

/// Nearest-rank percentile of an arbitrary sample (copies + sorts).
double percentile(std::vector<double> xs, double p);
/// Several nearest-rank percentiles of one sample, sorted once.
std::vector<double> percentiles(std::vector<double> xs,
                                std::initializer_list<double> ps);

/// The binning rule of every fixed-bin histogram in the stack: x falls in bin
/// floor((x - lo) / (hi - lo) * bins), clamped to [0, bins - 1]. The clamp is
/// taken on the double, so +-inf and huge finite values land in the edge bins
/// instead of reaching an out-of-range float-to-integer cast. NaN has no bin
/// and throws antarex::Error. Inline: the monitor runs it per metric per frame.
inline std::size_t histogram_bin(double x, double lo, double hi, std::size_t bins) {
  const double pos = std::floor((x - lo) / (hi - lo) * static_cast<double>(bins));
  // "Not at or above 0" also catches NaN, which fails every comparison.
  if (!(pos >= 0.0)) {
    ANTAREX_REQUIRE(!std::isnan(pos), "Histogram: NaN sample has no bin");
    return 0;
  }
  const double last = static_cast<double>(bins - 1);
  // Through i64: x86-64 converts to a signed integer in one instruction.
  return static_cast<std::size_t>(static_cast<i64>(pos < last ? pos : last));
}

/// Fixed-range, fixed-bin histogram: the one binned summary behind the
/// monitor's per-shard sketches and telemetry's histogram snapshots.
/// Out-of-range values clamp to the edge bins (histogram_bin). Quantiles
/// interpolate linearly inside the owning bin, so their error is bounded by
/// one bin width. Single-writer.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) {
    ++counts_[histogram_bin(x, lo_, hi_, counts_.size())];
    ++count_;
  }
  /// Add `n` samples straight into bin i (rebuilding a bucket snapshot).
  void add_to_bin(std::size_t i, u64 n);
  void merge(const Histogram& other);  ///< same lo/hi/bins required

  std::size_t bins() const { return counts_.size(); }
  u64 count() const { return count_; }

  /// Quantiles, q in [0,1], in the order given; 0 with no samples. The
  /// sample at rank q * count is found by cumulative bin counts and placed
  /// inside its bin as if the bin's mass were spread evenly over its range.
  std::vector<double> approx_quantiles(std::initializer_list<double> qs) const;

  std::size_t approx_bytes() const {
    return sizeof(*this) + counts_.size() * sizeof(u64);
  }

 private:
  double lo_, hi_;
  std::vector<u64> counts_;
  u64 count_ = 0;
};

}  // namespace antarex
