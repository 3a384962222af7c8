// Simulated RAPL energy counters.
//
// Substitution note (DESIGN.md): the original ANTAREX stack reads Intel RAPL
// MSRs; everything above the counter (monitors, autotuner, RTRM) only
// consumes (energy, time) samples. This class reproduces the RAPL interface
// quirks that client code must handle: a 32-bit counter in micro-joule-scale
// units that wraps around, sampled by difference.
#pragma once

#include <cmath>
#include <string>

#include "support/common.hpp"

namespace antarex::power {

class RaplDomain {
 public:
  explicit RaplDomain(std::string name = "package-0");

  /// Integrate power over an interval (called by the node simulation).
  void accumulate(double power_w, double dt_s);

  /// Raw wrapping counter in micro-joules (32-bit, like MSR_PKG_ENERGY_STATUS
  /// at the default 15.3 uJ unit scaled to 1 uJ for simplicity).
  u32 counter_uj() const { return wrap_uj(total_j_); }

  /// The counter reading for `joules` of integrated energy: the one
  /// definition of the wrap, shared with the sharded plant's device counters.
  /// It wraps every 2^32 uJ (~4295 J), as the real 32-bit MSR does; a
  /// negative glitched reading folds into the wrap, exactly as MSR
  /// arithmetic would.
  static u32 wrap_uj(double joules);

  /// Wrap-aware difference between two counter reads, in joules.
  static double delta_j(u32 before, u32 after);

  /// Non-wrapping total (ground truth for tests/benches).
  double total_j() const { return total_j_; }

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  double total_j_ = 0.0;
};

inline u32 RaplDomain::wrap_uj(double joules) {
  const double uj = joules * 1e6;
  const double wrapped = std::fmod(std::fmod(uj, 4294967296.0) + 4294967296.0,
                                   4294967296.0);
  return static_cast<u32>(wrapped);
}

}  // namespace antarex::power
