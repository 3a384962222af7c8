#include "telemetry/registry.hpp"

#include <cmath>

namespace antarex::telemetry {

// --- Histogram --------------------------------------------------------------

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins) {
  ANTAREX_REQUIRE(bins > 0, "telemetry::Histogram: need at least one bucket");
  ANTAREX_REQUIRE(hi > lo && std::isfinite(hi - lo),
                  "telemetry::Histogram: value range must be finite and non-empty");
}

void Histogram::add(double x) {
  if (!enabled()) return;
  const std::size_t i = histogram_bin(x, lo_, hi_, counts_.size());
  counts_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // CAS loop: fetch_add on atomic<double> needs C++20 library support that
  // not every baked-in toolchain ships; this is portable and contention here
  // is low (histograms sit behind the enabled() gate).
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + x, std::memory_order_relaxed)) {
  }
}

u64 Histogram::bucket(std::size_t i) const {
  ANTAREX_REQUIRE(i < counts_.size(), "telemetry::Histogram: bucket out of range");
  return counts_[i].load(std::memory_order_relaxed);
}

std::vector<double> Histogram::approx_quantiles(
    std::initializer_list<double> qs) const {
  antarex::Histogram snapshot(lo_, hi_, counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i)
    snapshot.add_to_bin(i, counts_[i].load(std::memory_order_relaxed));
  return snapshot.approx_quantiles(qs);
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

// --- Series -----------------------------------------------------------------

namespace {

constexpr double kSeriesEwmaAlpha = 0.25;

}  // namespace

Series::Series(std::size_t window) : window_(window) {}

void Series::push(double sample) {
  std::lock_guard<std::mutex> lock(mu_);
  window_.add(sample);
  ewma_ = total_ == 0 ? sample
                      : kSeriesEwmaAlpha * sample + (1.0 - kSeriesEwmaAlpha) * ewma_;
  last_ = sample;
  ++total_;
}

std::size_t Series::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

double Series::last() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_;
}

double Series::window_mean() const {
  std::lock_guard<std::mutex> lock(mu_);
  return window_.mean();
}

double Series::window_percentile(double p) const {
  std::lock_guard<std::mutex> lock(mu_);
  return window_.percentile(p);
}

std::vector<double> Series::window_percentiles(std::initializer_list<double> ps) const {
  std::lock_guard<std::mutex> lock(mu_);
  return window_.percentiles(ps);
}

double Series::ewma() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ewma_;
}

void Series::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  window_.clear();
  ewma_ = 0.0;
  last_ = 0.0;
  total_ = 0;
}

// --- Registry ---------------------------------------------------------------

Registry::Registry() = default;

Registry& Registry::global() {
  static Registry* g = new Registry();  // leaked on purpose, see header
  return *g;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Counter& Registry::drop_counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  drop_names_.insert(name);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name, double lo, double hi,
                               std::size_t bins) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(lo, hi, bins);
  return *slot;
}

Series& Registry::series(const std::string& name, std::size_t window) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = series_[name];
  if (!slot) slot = std::make_unique<Series>(window);
  return *slot;
}

template <typename Map, typename Ptr>
static std::vector<std::pair<std::string, Ptr>> snapshot(const Map& map) {
  std::vector<std::pair<std::string, Ptr>> out;
  out.reserve(map.size());
  for (const auto& [name, item] : map) out.emplace_back(name, item.get());
  return out;
}

std::vector<std::pair<std::string, const Counter*>> Registry::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot<decltype(counters_), const Counter*>(counters_);
}

std::vector<std::pair<std::string, const Gauge*>> Registry::gauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot<decltype(gauges_), const Gauge*>(gauges_);
}

std::vector<std::pair<std::string, const Histogram*>> Registry::histograms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot<decltype(histograms_), const Histogram*>(histograms_);
}

std::vector<std::pair<std::string, const Series*>> Registry::all_series() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot<decltype(series_), const Series*>(series_);
}

std::vector<std::pair<std::string, const Counter*>> Registry::drop_counters()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, const Counter*>> out;
  out.reserve(drop_names_.size());
  for (const std::string& name : drop_names_) {
    const auto it = counters_.find(name);
    if (it != counters_.end()) out.emplace_back(name, it->second.get());
  }
  return out;
}

void Registry::reset() {
  // Zero in place rather than erase: instrument sites cache references to
  // these objects (function-local statics), so the objects must live as long
  // as the registry.
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
  for (auto& [name, s] : series_) s->clear();
  trace_.clear();
}

}  // namespace antarex::telemetry
