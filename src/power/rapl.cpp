#include "power/rapl.hpp"

#include "telemetry/telemetry.hpp"

namespace antarex::power {

RaplDomain::RaplDomain(std::string name) : name_(std::move(name)) {}

void RaplDomain::accumulate(double power_w, double dt_s) {
  ANTAREX_REQUIRE(power_w >= 0.0, "RaplDomain: negative power");
  ANTAREX_REQUIRE(dt_s >= 0.0, "RaplDomain: negative interval");
  const double joules = power_w * dt_s;
  total_j_ += joules;
  // Mirror the RAPL sampling cadence: one counter update per integration
  // step, energy accumulated in the MSR's micro-joule scale.
  TELEMETRY_COUNT("power.rapl_samples", 1);
  TELEMETRY_COUNT("power.energy_uj", static_cast<u64>(joules * 1e6));
}

double RaplDomain::delta_j(u32 before, u32 after) {
  const u32 delta = after - before;  // unsigned arithmetic handles the wrap
  return static_cast<double>(delta) * 1e-6;
}

}  // namespace antarex::power
