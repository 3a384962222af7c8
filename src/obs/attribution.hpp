// Energy attribution: which span/phase/task spent the joules?
//
// The ANTAREX premise is that energy is a first-class observable feeding the
// tuning loop. antarex::telemetry (PR 1) gives raw counters and spans; this
// layer closes the gap between "the package consumed E joules" and "phase X
// of the computation consumed e_x of them", the task-level attribution APEX
// performs with hardware counters.
//
// Model (see DESIGN.md "Observability"):
//  - SpanTracker mirrors the open-span stack of every thread, fed by the
//    telemetry span hooks. A thread with at least one open span is an
//    *attribution context*; its innermost span is the leaf, its outermost
//    the phase.
//  - EnergyAccountant::sample(now) reads each registered RaplDomain counter
//    (wrap-aware 32-bit delta, the real MSR idiom), and apportions the
//    interval's delta-joules equally across the live contexts — which is
//    exactly "weighted by active workers": an exec pool worker is a context
//    only while it is running a task (run_task opens the exec.task span), so
//    an interval with k active workers splits k ways. With no context open
//    the energy lands on "(unattributed)".
//  - Conservation: every sampled joule is attributed to some row, so each
//    table's total equals the sum of counter deltas exactly (tested to 1e-6
//    on a fake clock at 1/2/8 workers).
//
// Cost: hooks + accounting only run while install()ed and telemetry is
// enabled; per span it is one mutex-guarded push/pop. Sampling cost is
// O(domains + threads) per tick. Uninstalled, the stack pays nothing beyond
// the telemetry enabled() gate.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "power/rapl.hpp"
#include "support/common.hpp"
#include "support/table.hpp"

namespace antarex::obs {

class PolicyEngine;

/// Mirrors every thread's stack of currently-open telemetry spans.
/// Singleton: the telemetry span hooks are process-wide function pointers.
class SpanTracker {
 public:
  static SpanTracker& global();

  /// Install the telemetry span hooks (idempotent). While installed, span
  /// enter/exit from any thread updates this tracker; if a PolicyEngine was
  /// attached (set_policy_engine), span exits also evaluate its policies.
  void install();
  void uninstall();

  /// One live attribution context: a thread with >= 1 open span.
  struct Context {
    const char* leaf;   ///< innermost open span name
    const char* phase;  ///< outermost open span name
    std::size_t depth;  ///< open spans on this thread
  };
  std::vector<Context> snapshot() const;

  /// Attach/detach the policy engine evaluated on span exits (nullptr
  /// detaches). The engine must outlive the attachment.
  void set_policy_engine(PolicyEngine* engine);

  /// Drop all tracked state (test isolation; spans must be quiescent).
  void clear();

 private:
  SpanTracker() = default;
  struct ThreadStack;
  static void hook_enter(const char* name);
  static void hook_exit(const char* name, u64 start_ns, u64 end_ns);
  ThreadStack& my_stack();

  mutable std::mutex mu_;
  std::vector<ThreadStack*> stacks_;
  PolicyEngine* engine_ = nullptr;  ///< guarded by mu_
};

struct AttributionRow {
  std::string key;      ///< span name, or "(unattributed)"
  double joules = 0.0;
  double seconds = 0.0;
  u64 samples = 0;      ///< sampling intervals that credited this row
};

/// Accumulated attribution, ordered by descending joules.
class AttributionTable {
 public:
  void add(const std::string& key, double joules, double seconds);
  std::vector<AttributionRow> rows() const;  ///< sorted, joules desc
  double total_joules() const;
  std::size_t size() const { return rows_.size(); }

  /// Render via support/table (key, joules, share %, seconds, samples).
  Table table(const std::string& key_header = "span") const;

 private:
  std::map<std::string, AttributionRow> rows_;
};

/// The sampling accountant: reads RAPL domains, splits the delta-joules over
/// the live span contexts. Drive it from the simulation clock (deterministic)
/// or wall time; `interval_s` documents the intended cadence for periodic
/// drivers and is exported with the dump.
class EnergyAccountant {
 public:
  struct Options {
    double interval_s = 0.25;  ///< intended sampling cadence (documentation +
                               ///< dump metadata; sample() takes explicit now)
  };

  EnergyAccountant() : EnergyAccountant(Options()) {}
  explicit EnergyAccountant(Options opts);

  /// Register a domain to sample (non-owning; must outlive the accountant).
  void add_domain(const power::RaplDomain* domain);

  /// Convenience: install the global SpanTracker hooks.
  void install() const;
  void uninstall() const;

  /// Read all domains and attribute the energy accrued since the previous
  /// sample. The first call only establishes the counter baselines.
  void sample(double now_s);

  AttributionTable by_phase() const;  ///< per outermost span name
  double attributed_joules() const;
  u64 samples() const;

  /// JSON dump, schema "antarex.obs.attribution/v1" — the attribution input
  /// of antarex-report and the bench reports.
  std::string json() const;

 private:
  Options opts_;
  mutable std::mutex mu_;
  struct DomainState {
    const power::RaplDomain* domain;
    u32 last_counter = 0;
    double joules = 0.0;  ///< total attributed from this domain
  };
  std::vector<DomainState> domains_;
  AttributionTable leaf_;
  AttributionTable phase_;
  double last_now_s_ = 0.0;
  u64 samples_ = 0;
  bool primed_ = false;
};

}  // namespace antarex::obs
