#include "causal/ledger.hpp"

#include <algorithm>

#include "support/json.hpp"
#include "support/strings.hpp"
#include "telemetry/registry.hpp"

namespace antarex::causal {

DecisionLedger::DecisionLedger(std::size_t capacity) : capacity_(capacity) {
  ANTAREX_REQUIRE(capacity_ > 0, "DecisionLedger: need a positive capacity");
}

DecisionLedger& DecisionLedger::global() {
  static DecisionLedger* ledger = new DecisionLedger();  // leaked singleton
  return *ledger;
}

u64 DecisionLedger::record(DecisionRecord r) {
  std::lock_guard<std::mutex> lock(mu_);
  if (records_.size() >= capacity_) {
    ++dropped_;
    telemetry::Registry::global().drop_counter("causal.ledger.dropped").add(1);
    return 0;
  }
  r.seq = next_seq_++;
  records_.push_back(std::move(r));
  return records_.back().seq;
}

void DecisionLedger::note_effect(u64 seq, const std::string& effect,
                                 double effect_value) {
  if (seq == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  // Effects land on recent decisions; search from the back.
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (it->seq != seq) continue;
    it->effect = effect;
    it->effect_value = effect_value;
    it->has_effect = true;
    return;
  }
}

std::vector<DecisionRecord> DecisionLedger::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

u64 DecisionLedger::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void DecisionLedger::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
  next_seq_ = 1;
  dropped_ = 0;
}

std::string DecisionLedger::json() const {
  const std::vector<DecisionRecord> records = snapshot();
  std::string body;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const DecisionRecord& r = records[i];
    if (i > 0) body += ',';
    body += format(
        "{\"seq\":%llu,\"t_s\":%.6f,\"actor\":\"%s\",\"action\":\"%s\","
        "\"cause\":\"%s\",\"cause_value\":%.9g",
        static_cast<unsigned long long>(r.seq), r.t_s,
        json_escape(r.actor).c_str(), json_escape(r.action).c_str(),
        json_escape(r.cause).c_str(), r.cause_value);
    if (r.has_effect)
      body += format(",\"effect\":\"%s\",\"effect_value\":%.9g",
                     json_escape(r.effect).c_str(), r.effect_value);
    if (r.trace_id != 0)
      body += format(",\"trace_id\":\"%llu\"",
                     static_cast<unsigned long long>(r.trace_id));
    body += '}';
  }
  return format(
             "{\"schema\":\"antarex.causal.decisions/v1\",\"decisions\":[") +
         body +
         format("],\"dropped\":%llu}",
                static_cast<unsigned long long>(dropped()));
}

std::string DecisionLedger::timeline() const {
  std::string out;
  for (const DecisionRecord& r : snapshot()) {
    out += format("#%llu t=%.3fs [%s] %s — cause: %s",
                  static_cast<unsigned long long>(r.seq), r.t_s,
                  r.actor.c_str(), r.action.c_str(), r.cause.c_str());
    if (r.has_effect)
      out += format(" → effect: %s", r.effect.c_str());
    else
      out += " → effect: (pending)";
    out += '\n';
  }
  return out;
}

}  // namespace antarex::causal
