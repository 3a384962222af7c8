// The one open/close rule behind every alert in the stack.
//
// An alert opens after `open_after` consecutive true inputs and closes after
// `close_after` consecutive false inputs while open. There is no cooldown: a
// condition that holds opens the alert once and keeps it open until it has
// been false long enough. The rule is held once by its owner; each watched
// stream keeps a Trigger (8 bytes): the length of the current run of equal
// inputs, the input that run repeats, and whether the alert is open.
//
// Owners: obs::PolicyEngine and causal::SloTracker step {1,1} — a policy
// fires on the rising edge and clears on the falling one, a tier counts each
// onset of burn — and monitor::AnomalyDetector steps {2,3} per anomaly kind,
// {1,3} for one-sample power spikes.
#pragma once

#include <limits>

#include "support/common.hpp"

namespace antarex {

struct TriggerRule {
  u32 open_after = 1;   ///< consecutive true inputs that open the alert
  u32 close_after = 1;  ///< consecutive false inputs that close it
};

/// What one input did to the alert.
struct Transition {
  bool opened = false;
  bool closed = false;
};

struct Trigger {
  u32 streak = 0;     ///< length of the current run of equal inputs
  bool last = false;  ///< the input that run repeats
  bool open = false;

  Transition step(const TriggerRule& rule, bool cond) {
    if (cond != last) {
      last = cond;
      streak = 0;
    }
    if (streak < std::numeric_limits<u32>::max()) ++streak;
    Transition t;
    if (cond != open && streak >= (cond ? rule.open_after : rule.close_after)) {
      open = cond;
      t.opened = cond;
      t.closed = !cond;
    }
    return t;
  }
};

}  // namespace antarex
