// Global on/off switch for the telemetry subsystem.
//
// Per the cost contract in DESIGN.md ("Observability"),
// telemetry::set_enabled(false) (the default) reduces every instrumentation
// site to a single relaxed atomic load + branch.
//
// Monitors (telemetry::Series) are deliberately NOT gated: they are the data
// plane of the autotuner's collect-analyse-decide-act loop, not observability.
#pragma once

#include <atomic>
#include <cstdint>

namespace antarex::telemetry {

namespace detail {
inline std::atomic<bool> g_enabled{false};
inline std::atomic<std::uint64_t> g_poison_epoch{0};
}  // namespace detail

/// Is observability collection active right now? One relaxed load.
inline bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }

inline void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

/// Sample-poison epoch: bumped by the fault injector whenever it perturbs a
/// sensor reading (e.g. a RaplDomain glitch). Consumers that measure across a
/// window — the autotuner's decide→report interval — snapshot the epoch at
/// the start and discard the sample when it moved. Like Series, this is
/// control-plane state, NOT gated by enabled(): dropping the flag would change
/// tuner behaviour, not just visibility.
inline std::uint64_t poison_epoch() {
  return detail::g_poison_epoch.load(std::memory_order_relaxed);
}

inline void mark_samples_poisoned() {
  detail::g_poison_epoch.fetch_add(1, std::memory_order_relaxed);
}

/// RAII enable/disable for tests and scoped measurement windows.
class ScopedEnable {
 public:
  explicit ScopedEnable(bool on = true) : prev_(enabled()) { set_enabled(on); }
  ~ScopedEnable() { set_enabled(prev_); }
  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  bool prev_;
};

}  // namespace antarex::telemetry
