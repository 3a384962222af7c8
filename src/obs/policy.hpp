// APEX-style policy engine: registered {metric predicate -> callback} pairs
// evaluated on a periodic tick or on span-exit events.
//
// APEX exposes apex_register_policy(event, fn) and
// apex_register_periodic_policy(period, fn); this is the same observe->decide
// shape on top of the antarex::telemetry registry. Policies are
// edge-triggered through the stack's one alert rule (support/trigger.hpp,
// rule {1,1}): a policy fires when its predicate transitions false->true,
// stays silent while the condition holds, and re-arms when it clears — so a
// threshold crossing fires exactly once (tested), not once per tick. An
// optional on_clear callback runs on the true->false transition (e.g. to
// drop a backpressure gauge).
//
// Actuating policies (add_actuating) return a PolicyAction instead of being
// fire-and-forget: the engine counts the Restrict/Relax decisions in the
// obs.policy_actions.* counters (and Restricts per policy), so reports show
// what the control loop *did*, not just what it observed. A condition that
// persists actuates once; walking a knob ladder step by step under a
// persistent violation is govern::ShardedCapCoordinator's job, not the
// engine's.
//
// Evaluation is synchronous on the calling thread (the control loop's tick,
// or the thread exiting a span). Callbacks must not register policies on the
// same engine (the engine lock is held) and should be cheap — raise a
// counter, set a gauge, notify a controller.
#pragma once

#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "support/common.hpp"
#include "support/trigger.hpp"
#include "telemetry/registry.hpp"

namespace antarex::obs {

/// What a predicate/callback sees at evaluation time. The registry is
/// mutable on purpose: lookups are get-or-create, and callbacks typically
/// respond by raising counters or setting gauges.
struct PolicyContext {
  telemetry::Registry* registry;  ///< never null
  double now_s = 0.0;             ///< driving clock (sim or wall)
  const char* span = nullptr;     ///< span name on span-exit, else null
  double span_duration_s = 0.0;   ///< valid when span != nullptr
};

/// What an actuating policy decided. The engine only counts these; applying
/// them (DVFS step, worker throttle, admission shrink) is the actuator's job
/// in antarex::govern.
enum class PolicyAction {
  None,      ///< observed, decided not to act
  Restrict,  ///< pull the knob toward lower power / less parallelism
  Relax,     ///< give headroom back toward nominal
};

const char* policy_action_name(PolicyAction a);

/// Per-policy provenance wiring (causal::DecisionLedger records every fire).
struct PolicyOptions {
  /// When cause_metric names a gauge, its reading at fire time becomes the
  /// recorded cause; when effect_metric names one, the *next* evaluation
  /// after the fire attaches its reading as the observed effect — the
  /// closed-loop "what did the world do after we acted" measurement.
  std::string cause_metric;
  std::string effect_metric;
};

class PolicyEngine {
 public:
  using Predicate = std::function<bool(const PolicyContext&)>;
  using Callback = std::function<void(const PolicyContext&)>;
  using Actuation = std::function<PolicyAction(const PolicyContext&)>;

  /// Register a policy; returns its handle. `when` is evaluated on every
  /// tick() and span exit; `then` runs on the false->true edge; `on_clear`
  /// (optional) on the subsequent true->false edge.
  int add(std::string name, Predicate when, Callback then,
          Callback on_clear = nullptr);
  /// Register an actuating policy: fires under the same edge rule,
  /// but the callback returns the action it took, which the engine tallies
  /// (restricts(), obs.policy_actions.* counters).
  int add_actuating(std::string name, Predicate when, Actuation act,
                    PolicyOptions opts = {});

  /// Periodic evaluation (call from the control loop / sampling driver).
  void tick(double now_s);

  /// Span-exit evaluation; invoked by the SpanTracker hooks when attached.
  void on_span_exit(const char* name, double duration_s, double now_s);

  u64 fires(const std::string& name) const;  ///< 0 if unknown
  /// Restrict actions an actuating policy took (zero for plain policies).
  u64 restricts(int handle) const;

 private:
  struct Policy {
    int id;
    std::string name;
    Predicate when;
    Callback then;
    Callback on_clear;
    Actuation act;         ///< set for actuating policies (then is null)
    PolicyOptions opts;
    Trigger trigger;
    u64 fires = 0;
    u64 restricts = 0;
    u64 pending_seq = 0;  ///< ledger record awaiting its observed effect
  };
  int add_policy(Policy p);
  void fire(Policy& p, const PolicyContext& ctx);
  void evaluate(const PolicyContext& ctx);

  mutable std::mutex mu_;
  std::vector<Policy> policies_;
  int next_id_ = 1;
};

/// Install the three built-in stack policies on `engine`:
///  - thermal.throttle_alert  (counts obs.alerts.thermal when the RTRM's
///                             rtrm.thermal_headroom_c gauge drops below 8 C)
///  - tuner.phase_change      (counts obs.alerts.phase_change, one fire per
///                             tuner.phase_changes increment)
///  - nav.backpressure        (counts obs.alerts.backpressure, drives the
///                             nav.backpressure gauge 1/0 while the
///                             nav.queue_depth gauge sits at/above 48)
void install_builtin_policies(PolicyEngine& engine);

}  // namespace antarex::obs
