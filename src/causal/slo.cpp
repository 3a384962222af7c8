#include "causal/slo.hpp"

#include "telemetry/enable.hpp"
#include "telemetry/registry.hpp"

namespace antarex::causal {

namespace {
// One alert per onset of burn; the tier re-arms once it stops burning.
constexpr TriggerRule kBurnRule{1, 1};
}  // namespace

SloTracker::SloTracker(std::vector<SloTier> tiers, std::size_t window)
    : tiers_(std::move(tiers)), states_(tiers_.size()), window_(window) {
  ANTAREX_REQUIRE(!tiers_.empty(), "SloTracker: need at least one tier");
  ANTAREX_REQUIRE(window_ > 0, "SloTracker: need a positive window");
  for (const SloTier& t : tiers_) {
    ANTAREX_REQUIRE(t.target_latency_s > 0.0,
                    "SloTracker: target latency must be positive");
    ANTAREX_REQUIRE(t.allowed_violation_fraction > 0.0 &&
                        t.allowed_violation_fraction <= 1.0,
                    "SloTracker: allowed violation fraction must be in (0,1]");
  }
}

void SloTracker::observe(std::size_t tier_index, double latency_s) {
  ANTAREX_REQUIRE(tier_index < tiers_.size(), "SloTracker: bad tier index");
  State& st = states_[tier_index];
  const bool violation = latency_s > tiers_[tier_index].target_latency_s;
  ++st.total;
  if (violation) ++st.violations;
  st.window.push_back(violation);
  if (violation) ++st.window_violations;
  if (st.window.size() > window_) {
    if (st.window.front()) --st.window_violations;
    st.window.pop_front();
  }
}

TierStatus SloTracker::status(std::size_t tier_index) const {
  ANTAREX_REQUIRE(tier_index < tiers_.size(), "SloTracker: bad tier index");
  const State& st = states_[tier_index];
  const SloTier& tier = tiers_[tier_index];
  TierStatus out;
  out.total = st.total;
  out.violations = st.violations;
  if (st.total > 0) {
    const double frac =
        static_cast<double>(st.violations) / static_cast<double>(st.total);
    out.attainment = 1.0 - frac;
    out.budget_remaining = 1.0 - frac / tier.allowed_violation_fraction;
  }
  if (!st.window.empty()) {
    const double wfrac = static_cast<double>(st.window_violations) /
                         static_cast<double>(st.window.size());
    out.burn_rate = wfrac / tier.allowed_violation_fraction;
  }
  out.burning = out.burn_rate > 1.0;
  return out;
}

void SloTracker::publish() {
  if (!telemetry::enabled()) return;
  telemetry::Registry& reg = telemetry::Registry::global();
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    const TierStatus st = status(i);
    const std::string prefix = "causal.slo." + tiers_[i].name;
    reg.gauge(prefix + ".attainment").set(st.attainment);
    reg.gauge(prefix + ".budget_remaining").set(st.budget_remaining);
    reg.gauge(prefix + ".burn_rate").set(st.burn_rate);
    if (states_[i].burn.step(kBurnRule, st.burning).opened)
      reg.counter("causal.slo.alerts").add(1);
  }
}

}  // namespace antarex::causal
