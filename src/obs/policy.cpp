#include "obs/policy.hpp"

#include <memory>

#include "causal/ledger.hpp"
#include "support/strings.hpp"
#include "telemetry/telemetry.hpp"

namespace antarex::obs {

namespace {
// Fire on the false->true edge, clear on the true->false edge.
constexpr TriggerRule kPolicyRule{1, 1};
}  // namespace

const char* policy_action_name(PolicyAction a) {
  switch (a) {
    case PolicyAction::None: return "none";
    case PolicyAction::Restrict: return "restrict";
    case PolicyAction::Relax: return "relax";
  }
  return "?";
}

int PolicyEngine::add_policy(Policy p) {
  ANTAREX_REQUIRE(p.when != nullptr, "PolicyEngine: null predicate");
  ANTAREX_REQUIRE(p.then != nullptr || p.act != nullptr,
                  "PolicyEngine: null callback");
  std::lock_guard<std::mutex> lock(mu_);
  p.id = next_id_++;
  const int id = p.id;
  policies_.push_back(std::move(p));
  return id;
}

int PolicyEngine::add(std::string name, Predicate when, Callback then,
                      Callback on_clear) {
  Policy p;
  p.name = std::move(name);
  p.when = std::move(when);
  p.then = std::move(then);
  p.on_clear = std::move(on_clear);
  return add_policy(std::move(p));
}

int PolicyEngine::add_actuating(std::string name, Predicate when,
                                Actuation act, PolicyOptions opts) {
  Policy p;
  p.name = std::move(name);
  p.when = std::move(when);
  p.act = std::move(act);
  p.opts = opts;
  return add_policy(std::move(p));
}

void PolicyEngine::fire(Policy& p, const PolicyContext& ctx) {
  ++p.fires;
  TELEMETRY_COUNT("obs.policy_fires", 1);
  PolicyAction action = PolicyAction::None;
  if (p.act) {
    action = p.act(ctx);
    switch (action) {
      case PolicyAction::None:
        break;
      case PolicyAction::Restrict:
        ++p.restricts;
        TELEMETRY_COUNT("obs.policy_actions.restrict", 1);
        break;
      case PolicyAction::Relax:
        TELEMETRY_COUNT("obs.policy_actions.relax", 1);
        break;
    }
  } else {
    p.then(ctx);
  }

  // Decision provenance: every fire is a control-plane decision. The cause
  // is whatever drove the predicate — the configured cause_metric reading,
  // or the span that just exited, or the bare tick.
  causal::DecisionRecord rec;
  rec.t_s = ctx.now_s;
  rec.actor = "policy." + p.name;
  rec.action = p.act ? format("actuate:%s", policy_action_name(action))
                     : std::string("alert");
  if (!p.opts.cause_metric.empty()) {
    const double v = ctx.registry->gauge(p.opts.cause_metric).last();
    rec.cause = format("%s=%.6g", p.opts.cause_metric.c_str(), v);
    rec.cause_value = v;
  } else if (ctx.span != nullptr) {
    rec.cause = format("span %s took %.6fs", ctx.span, ctx.span_duration_s);
    rec.cause_value = ctx.span_duration_s;
  } else {
    rec.cause = "tick";
  }
  const u64 seq = causal::DecisionLedger::global().record(std::move(rec));
  if (!p.opts.effect_metric.empty()) p.pending_seq = seq;
}

void PolicyEngine::evaluate(const PolicyContext& ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Policy& p : policies_) {
    // A fire from the previous evaluation left a pending ledger record:
    // attach the configured effect metric's current reading as the observed
    // effect, one evaluation later.
    if (p.pending_seq != 0 && !p.opts.effect_metric.empty()) {
      const double v = ctx.registry->gauge(p.opts.effect_metric).last();
      causal::DecisionLedger::global().note_effect(
          p.pending_seq, format("%s=%.6g", p.opts.effect_metric.c_str(), v),
          v);
      p.pending_seq = 0;
    }
    const Transition t = p.trigger.step(kPolicyRule, p.when(ctx));
    if (t.opened) fire(p, ctx);
    if (t.closed && p.on_clear) p.on_clear(ctx);
  }
}

void PolicyEngine::tick(double now_s) {
  PolicyContext ctx;
  ctx.registry = &telemetry::Registry::global();
  ctx.now_s = now_s;
  evaluate(ctx);
}

void PolicyEngine::on_span_exit(const char* name, double duration_s,
                                double now_s) {
  PolicyContext ctx;
  ctx.registry = &telemetry::Registry::global();
  ctx.now_s = now_s;
  ctx.span = name;
  ctx.span_duration_s = duration_s;
  evaluate(ctx);
}

u64 PolicyEngine::fires(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  u64 total = 0;
  for (const Policy& p : policies_)
    if (p.name == name) total += p.fires;
  return total;
}

u64 PolicyEngine::restricts(int handle) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Policy& p : policies_)
    if (p.id == handle) return p.restricts;
  return 0;
}

void install_builtin_policies(PolicyEngine& engine) {
  // Alert when the hottest device sits less than this many degrees below
  // its critical temperature.
  constexpr double kThermalHeadroomAlertC = 8.0;
  // Raise nav.backpressure while the nav server's queue holds this many.
  constexpr double kNavQueueDepthLimit = 48.0;

  // Throttle alert: the RTRM control loop publishes how close the hottest
  // device sits to the critical temperature; alert when headroom shrinks.
  engine.add(
      "thermal.throttle_alert",
      [](const PolicyContext& ctx) {
        const telemetry::Gauge& g = ctx.registry->gauge("rtrm.thermal_headroom_c");
        return g.updates() > 0 && g.last() < kThermalHeadroomAlertC;
      },
      [](const PolicyContext&) { TELEMETRY_COUNT("obs.alerts.thermal", 1); });

  // Phase-change notification: one fire per tuner.phase_changes increment
  // (the callback advances the acknowledged count, which re-arms the edge).
  auto acked = std::make_shared<u64>(0);
  engine.add(
      "tuner.phase_change",
      [acked](const PolicyContext& ctx) {
        return ctx.registry->counter("tuner.phase_changes").value() > *acked;
      },
      [acked](const PolicyContext& ctx) {
        *acked = ctx.registry->counter("tuner.phase_changes").value();
        TELEMETRY_COUNT("obs.alerts.phase_change", 1);
      });

  // Queue-depth backpressure: raise the nav.backpressure gauge while the nav
  // server's admission queue sits at/above the limit, drop it when it clears.
  engine.add(
      "nav.backpressure",
      [](const PolicyContext& ctx) {
        const telemetry::Gauge& g = ctx.registry->gauge("nav.queue_depth");
        return g.updates() > 0 && g.last() >= kNavQueueDepthLimit;
      },
      [](const PolicyContext&) {
        TELEMETRY_COUNT("obs.alerts.backpressure", 1);
        TELEMETRY_GAUGE("nav.backpressure", 1.0);
      },
      [](const PolicyContext&) { TELEMETRY_GAUGE("nav.backpressure", 0.0); });
}

}  // namespace antarex::obs
