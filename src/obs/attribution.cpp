#include "obs/attribution.hpp"

#include <algorithm>

#include "obs/policy.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "telemetry/telemetry.hpp"

namespace antarex::obs {

// --- SpanTracker ------------------------------------------------------------

// Per-thread open-span stack. Registers itself with the tracker on first use
// and deregisters on thread exit, so snapshot() never sees a dangling stack.
struct SpanTracker::ThreadStack {
  std::vector<const char*> names;

  ThreadStack() {
    SpanTracker& t = SpanTracker::global();
    std::lock_guard<std::mutex> lock(t.mu_);
    t.stacks_.push_back(this);
  }
  ~ThreadStack() {
    SpanTracker& t = SpanTracker::global();
    std::lock_guard<std::mutex> lock(t.mu_);
    auto it = std::find(t.stacks_.begin(), t.stacks_.end(), this);
    if (it != t.stacks_.end()) t.stacks_.erase(it);
  }
};

SpanTracker& SpanTracker::global() {
  // Leaked like the telemetry registry: thread-exit destructors of
  // ThreadStack may run during static teardown.
  static SpanTracker* g = new SpanTracker();
  return *g;
}

SpanTracker::ThreadStack& SpanTracker::my_stack() {
  thread_local ThreadStack stack;
  return stack;
}

void SpanTracker::hook_enter(const char* name) {
  SpanTracker& t = global();
  ThreadStack& s = t.my_stack();
  std::lock_guard<std::mutex> lock(t.mu_);
  s.names.push_back(name);
}

void SpanTracker::hook_exit(const char* name, u64 start_ns, u64 end_ns) {
  SpanTracker& t = global();
  ThreadStack& s = t.my_stack();
  PolicyEngine* engine = nullptr;
  {
    std::lock_guard<std::mutex> lock(t.mu_);
    if (!s.names.empty()) s.names.pop_back();
    engine = t.engine_;
  }
  // Outside the tracker lock: policy callbacks may take their own locks.
  if (engine) {
    const double dur_s = static_cast<double>(end_ns - start_ns) * 1e-9;
    engine->on_span_exit(name, dur_s, static_cast<double>(end_ns) * 1e-9);
  }
}

void SpanTracker::install() {
  telemetry::set_span_enter_hook(&SpanTracker::hook_enter);
  telemetry::set_span_exit_hook(&SpanTracker::hook_exit);
}

void SpanTracker::uninstall() {
  telemetry::set_span_enter_hook(nullptr);
  telemetry::set_span_exit_hook(nullptr);
}

std::vector<SpanTracker::Context> SpanTracker::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Context> out;
  out.reserve(stacks_.size());
  for (const ThreadStack* s : stacks_)
    if (!s->names.empty())
      out.push_back(Context{s->names.back(), s->names.front(), s->names.size()});
  return out;
}

void SpanTracker::set_policy_engine(PolicyEngine* engine) {
  std::lock_guard<std::mutex> lock(mu_);
  engine_ = engine;
}

void SpanTracker::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (ThreadStack* s : stacks_) s->names.clear();
}

// --- AttributionTable -------------------------------------------------------

void AttributionTable::add(const std::string& key, double joules,
                           double seconds) {
  AttributionRow& row = rows_[key];
  if (row.key.empty()) row.key = key;
  row.joules += joules;
  row.seconds += seconds;
  ++row.samples;
}

std::vector<AttributionRow> AttributionTable::rows() const {
  std::vector<AttributionRow> out;
  out.reserve(rows_.size());
  for (const auto& [key, row] : rows_) out.push_back(row);
  std::sort(out.begin(), out.end(),
            [](const AttributionRow& a, const AttributionRow& b) {
              if (a.joules != b.joules) return a.joules > b.joules;
              return a.key < b.key;
            });
  return out;
}

double AttributionTable::total_joules() const {
  double total = 0.0;
  for (const auto& [key, row] : rows_) total += row.joules;
  return total;
}

Table AttributionTable::table(const std::string& key_header) const {
  Table t({key_header, "joules", "share", "seconds", "samples"});
  const double total = total_joules();
  for (const AttributionRow& row : rows())
    t.add_row({row.key, format("%.3f", row.joules),
               total > 0.0 ? format("%.1f%%", 100.0 * row.joules / total) : "-",
               format("%.3f", row.seconds),
               format("%llu", static_cast<unsigned long long>(row.samples))});
  return t;
}

// --- EnergyAccountant -------------------------------------------------------

EnergyAccountant::EnergyAccountant(Options opts) : opts_(opts) {
  ANTAREX_REQUIRE(opts_.interval_s > 0.0,
                  "EnergyAccountant: need a positive sampling interval");
}

void EnergyAccountant::add_domain(const power::RaplDomain* domain) {
  ANTAREX_REQUIRE(domain != nullptr, "EnergyAccountant: null domain");
  std::lock_guard<std::mutex> lock(mu_);
  domains_.push_back(DomainState{domain, domain->counter_uj(), 0.0});
}

void EnergyAccountant::install() const { SpanTracker::global().install(); }

void EnergyAccountant::uninstall() const { SpanTracker::global().uninstall(); }

void EnergyAccountant::sample(double now_s) {
  const std::vector<SpanTracker::Context> contexts =
      SpanTracker::global().snapshot();
  std::lock_guard<std::mutex> lock(mu_);

  if (!primed_) {
    // First sample: baselines only (the counters may predate install(), and
    // pre-baseline joules belong to nobody).
    for (DomainState& d : domains_) d.last_counter = d.domain->counter_uj();
    primed_ = true;
    last_now_s_ = now_s;
    return;
  }
  double delta_j = 0.0;
  for (DomainState& d : domains_) {
    const u32 cur = d.domain->counter_uj();
    const double dj = power::RaplDomain::delta_j(d.last_counter, cur);
    d.last_counter = cur;
    d.joules += dj;
    delta_j += dj;
  }
  const double dt_s = std::max(0.0, now_s - last_now_s_);
  last_now_s_ = now_s;
  ++samples_;

  if (contexts.empty()) {
    leaf_.add("(unattributed)", delta_j, dt_s);
    phase_.add("(unattributed)", delta_j, dt_s);
  } else {
    // Equal split across live contexts == weighting by active workers: a
    // pool worker only has an open span while running a task.
    const double share_j = delta_j / static_cast<double>(contexts.size());
    const double share_s = dt_s / static_cast<double>(contexts.size());
    for (const SpanTracker::Context& c : contexts) {
      leaf_.add(c.leaf, share_j, share_s);
      phase_.add(c.phase, share_j, share_s);
    }
  }
  TELEMETRY_COUNT("obs.attribution_samples", 1);
  TELEMETRY_GAUGE("obs.attribution_contexts",
                  static_cast<double>(contexts.size()));
}

AttributionTable EnergyAccountant::by_phase() const {
  std::lock_guard<std::mutex> lock(mu_);
  return phase_;
}

double EnergyAccountant::attributed_joules() const {
  std::lock_guard<std::mutex> lock(mu_);
  return leaf_.total_joules();
}

u64 EnergyAccountant::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

std::string EnergyAccountant::json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"schema\":\"antarex.obs.attribution/v1\"";
  out += format(",\"interval_s\":%.9g", opts_.interval_s);
  out += format(",\"samples\":%llu", static_cast<unsigned long long>(samples_));
  out += format(",\"total_joules\":%.9g", leaf_.total_joules());
  out += ",\"domains\":[";
  bool first = true;
  for (const DomainState& d : domains_) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":" + json_quote(d.domain->name()) +
           format(",\"joules\":%.9g}", d.joules);
  }
  out += "]";
  const auto emit_table = [&out](const char* key, const AttributionTable& t) {
    out += ",\"";
    out += key;
    out += "\":[";
    bool f = true;
    for (const AttributionRow& row : t.rows()) {
      if (!f) out += ',';
      f = false;
      out += "{\"span\":" + json_quote(row.key) +
             format(",\"joules\":%.9g,\"seconds\":%.9g,\"samples\":%llu}",
                    row.joules, row.seconds,
                    static_cast<unsigned long long>(row.samples));
    }
    out += "]";
  };
  emit_table("by_leaf", leaf_);
  emit_table("by_phase", phase_);
  out += "}";
  return out;
}

}  // namespace antarex::obs
