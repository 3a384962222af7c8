#include "tuner/monitor.hpp"

#include "support/common.hpp"

namespace antarex::tuner {

namespace {
constexpr std::size_t kWindow = 32;  ///< samples in the rolling window
}  // namespace

Monitor::Monitor(std::string metric)
    : metric_(std::move(metric)),
      series_(&telemetry::Registry::global().series(metric_, kWindow)) {
  // A freshly constructed monitor starts empty, even if a previous run
  // already registered this stream.
  series_->clear();
}

void Monitor::push(double sample) { series_->push(sample); }

double Monitor::window_percentile(double p) const {
  ANTAREX_REQUIRE(!series_->empty(), "Monitor '" + metric_ + "': no samples");
  return series_->window_percentile(p);
}

}  // namespace antarex::tuner
