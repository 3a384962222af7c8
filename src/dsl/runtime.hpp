// DSL runtime support: the instrumentation probes that woven code calls.
//
// Figure 2's aspect injects `profile_args(name, location, args...)` before
// selected calls; this file provides the host-side store those probes write
// to — "gather information about argument values and their frequency".
#pragma once

#include <map>
#include <string>
#include <vector>

#include "cir/ast.hpp"
#include "support/common.hpp"
#include "vm/engine.hpp"

namespace antarex::dsl {

/// Collects per-function argument profiles from `profile_args` probes.
class ProfileStore {
 public:
  struct FunctionProfile {
    std::string location;                  ///< first-seen probe location
    u64 calls = 0;
    /// value -> frequency, per argument position (numeric args only).
    std::vector<std::map<double, u64>> value_counts;
  };

  /// Register the `profile_args` host function on an engine. The store must
  /// outlive the engine's use of the probe.
  void install(vm::Engine& engine);

  /// Record one observation (also callable directly from C++).
  void record(const std::string& func, const std::string& location,
              const std::vector<double>& args);

  bool has(const std::string& func) const;
  const FunctionProfile& profile(const std::string& func) const;
  u64 total_calls() const;

  /// Most frequent value observed for one argument position; throws if the
  /// function or index was never observed.
  double hottest_value(const std::string& func, std::size_t arg_index) const;

 private:
  std::map<std::string, FunctionProfile> profiles_;
};

/// Section timers: the `monitor_begin(id)` / `monitor_end(id)` probes that
/// adaptivity aspects weave around regions of interest (the "Runtime
/// Monitoring" box of Figure 1). Cost is measured in VM instructions — the
/// stack's deterministic clock — so tests and benches are reproducible.
/// Sections may nest and repeat; statistics accumulate per id.
class SectionTimers {
 public:
  /// Register both probes on the engine. The store must outlive their use.
  void install(vm::Engine& engine);

  struct Section {
    u64 entries = 0;
    u64 exits = 0;
    u64 total_instructions = 0;
    u64 min_instructions = 0;
    u64 max_instructions = 0;
  };

  bool has(const std::string& id) const;
  const Section& section(const std::string& id) const;
  double mean_instructions(const std::string& id) const;
  /// Sections currently entered but not exited (should be 0 between calls).
  std::size_t open_sections() const;
  void clear();

 private:
  void begin(const std::string& id);
  void end(const std::string& id);

  vm::Engine* engine_ = nullptr;
  std::map<std::string, Section> sections_;
  std::vector<std::pair<std::string, u64>> stack_;  ///< (id, start count)
};

/// Fully automatic profile-guided specialization (paper Sec. IV: "fully
/// automatic dynamic optimizations, based on profiling information, and data
/// acquired at runtime, e.g. dynamic range of function parameters").
///
/// Where Figure 4's aspect names the function, parameter and value range by
/// hand, AutoSpecializer derives them from the ProfileStore: when a profiled
/// function gets hot and one of its integer parameters is dominated by a
/// single value, it specializes on that value (clone -> bind -> fold ->
/// unroll -> dce -> compile -> AddVersion) without any per-function strategy.
class AutoSpecializer {
 public:
  struct Options {
    u64 min_calls = 64;            ///< profile confidence before acting
    double min_share = 0.5;        ///< hottest value must dominate
    std::size_t max_versions = 4;  ///< per function
    i64 unroll_threshold = 256;    ///< full-unroll cap for bound loops
  };

  AutoSpecializer(cir::Module& module, vm::Engine& engine)
      : AutoSpecializer(module, engine, Options()) {}
  AutoSpecializer(cir::Module& module, vm::Engine& engine, Options opts);

  /// Inspect the profile and install any specializations that became
  /// profitable. Call periodically (e.g., each monitor window). Returns the
  /// number of versions installed by this step.
  std::size_t step(const ProfileStore& profile);

  std::size_t versions_installed() const { return installed_; }

 private:
  cir::Module& module_;
  vm::Engine& engine_;
  Options opts_;
  std::map<std::string, std::vector<i64>> done_;  ///< func -> handled values
  std::map<std::string, int> chosen_param_;       ///< func -> param index
  std::size_t installed_ = 0;
};

}  // namespace antarex::dsl
