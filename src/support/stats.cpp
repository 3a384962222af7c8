#include "support/stats.hpp"

#include <algorithm>
#include <cmath>

namespace antarex {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  mean_ = (na * mean_ + nb * other.mean_) / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

RunningStats RunningStats::repeated(double x, std::size_t n) {
  RunningStats s;
  if (n == 0) return s;
  s.n_ = n;
  s.mean_ = s.min_ = s.max_ = x;
  return s;
}

SlidingWindow::SlidingWindow(std::size_t capacity) : capacity_(capacity) {
  ANTAREX_REQUIRE(capacity > 0, "SlidingWindow: capacity must be > 0");
  buf_.reserve(capacity);
}

void SlidingWindow::add(double x) {
  if (buf_.size() < capacity_) {
    buf_.push_back(x);
  } else {
    buf_[head_] = x;
    head_ = (head_ + 1) % capacity_;
  }
}

double SlidingWindow::mean() const {
  if (buf_.empty()) return 0.0;
  double s = 0.0;
  for (double x : buf_) s += x;
  return s / static_cast<double>(buf_.size());
}

double SlidingWindow::percentile(double p) const {
  ANTAREX_REQUIRE(!buf_.empty(), "SlidingWindow::percentile: empty window");
  return ::antarex::percentile(buf_, p);
}

std::vector<double> SlidingWindow::percentiles(std::initializer_list<double> ps) const {
  ANTAREX_REQUIRE(!buf_.empty(), "SlidingWindow::percentile: empty window");
  return ::antarex::percentiles(buf_, ps);
}

void SlidingWindow::clear() {
  buf_.clear();
  head_ = 0;
}

double percentile(std::vector<double> xs, double p) {
  return percentiles(std::move(xs), {p}).front();
}

std::vector<double> percentiles(std::vector<double> xs,
                                std::initializer_list<double> ps) {
  ANTAREX_REQUIRE(!xs.empty(), "percentile: empty sample");
  for (const double p : ps)
    ANTAREX_REQUIRE(p >= 0.0 && p <= 100.0, "percentile: p outside [0, 100]");
  std::sort(xs.begin(), xs.end());
  const double n = static_cast<double>(xs.size());
  std::vector<double> out;
  out.reserve(ps.size());
  for (const double p : ps) {
    // Rank 0 (p == 0) reads the minimum, like rank 1.
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    out.push_back(xs[std::min(xs.size() - 1, rank == 0 ? 0 : rank - 1)]);
  }
  return out;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  ANTAREX_REQUIRE(bins > 0, "Histogram: need at least one bin");
  ANTAREX_REQUIRE(hi > lo && std::isfinite(hi - lo),
                  "Histogram: value range must be finite and non-empty");
}

void Histogram::add_to_bin(std::size_t i, u64 n) {
  ANTAREX_REQUIRE(i < counts_.size(), "Histogram: bin index out of range");
  counts_[i] += n;
  count_ += n;
}

void Histogram::merge(const Histogram& other) {
  ANTAREX_REQUIRE(lo_ == other.lo_ && hi_ == other.hi_ && bins() == other.bins(),
                  "Histogram: merging incompatible histograms");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

std::vector<double> Histogram::approx_quantiles(
    std::initializer_list<double> qs) const {
  const double n = static_cast<double>(count_);
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  std::vector<double> out;
  out.reserve(qs.size());
  for (const double q : qs) {
    ANTAREX_REQUIRE(q >= 0.0 && q <= 1.0, "Histogram: quantile outside [0,1]");
    if (count_ == 0) {
      out.push_back(0.0);
      continue;
    }
    const double target = std::clamp(q * n, 0.0, n);
    double value = hi_;
    double cum = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      const double c = static_cast<double>(counts_[i]);
      if (c <= 0.0) continue;
      if (cum + c >= target) {
        const double frac = std::clamp((target - cum) / c, 0.0, 1.0);
        value = lo_ + (static_cast<double>(i) + frac) * width;
        break;
      }
      cum += c;
    }
    out.push_back(value);
  }
  return out;
}

}  // namespace antarex
