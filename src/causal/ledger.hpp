// Decision provenance: every control-plane action, with its cause and its
// observed effect, in one bounded queryable ledger.
//
// The closed loop (monitor -> decide -> actuate) makes decisions in four
// places — obs::PolicyEngine firings, govern actuator restrict/relax steps,
// cap-coordinator budget renegotiations, and monitor::AnomalyDetector episode
// transitions. Each records a DecisionRecord at decision time (cause +
// action, with the metric reading that triggered it) and later attaches the
// *observed* effect via note_effect() — e.g. the next epoch's power mean
// after a restrict, or the episode duration at close. The result is an
// "explain" timeline: for any governor action in a run, the ledger answers
// what it saw, what it did, and what happened next.
//
// Bounded like the trace buffer: at capacity new records are dropped and
// counted (causal.ledger.dropped), so a saturated ledger is never mistaken
// for a complete one. Thread-safe; decisions are rare (edge-triggered), so
// a mutex is fine.
#pragma once

#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "support/common.hpp"

namespace antarex::causal {

struct DecisionRecord {
  u64 seq = 0;       ///< assigned by the ledger, 1-based, monotonic
  double t_s = 0.0;  ///< decision time on the caller's clock
  std::string actor;   ///< who decided ("policy.nav.slo_guard", "govern.coordinator", ...)
  std::string action;  ///< what was done ("restrict:dvfs", ...)
  std::string cause;   ///< what triggered it ("nav.queue_depth=15 > 12", ...)
  double cause_value = 0.0;
  std::string effect;  ///< observed outcome, attached later via note_effect()
  double effect_value = 0.0;
  bool has_effect = false;
  u64 trace_id = 0;  ///< request tree the decision belongs to (0 = run-wide)
};

class DecisionLedger {
 public:
  explicit DecisionLedger(std::size_t capacity = 4096);

  /// The process-wide ledger the control-plane hooks record into.
  static DecisionLedger& global();

  /// Record a decision (seq is assigned); returns its seq, or 0 when the
  /// ledger is full (the drop is counted).
  u64 record(DecisionRecord r);

  /// Attach the observed effect to an earlier decision. Unknown seq (e.g. a
  /// dropped record) is ignored.
  void note_effect(u64 seq, const std::string& effect, double effect_value);

  std::vector<DecisionRecord> snapshot() const;
  u64 dropped() const;
  void clear();

  /// JSON dump (schema antarex.causal.decisions/v1) for antarex-report.
  std::string json() const;

  /// Human-readable explain timeline, one line per decision.
  std::string timeline() const;

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::vector<DecisionRecord> records_;
  u64 next_seq_ = 1;
  u64 dropped_ = 0;
};

}  // namespace antarex::causal
