// antarex::telemetry — unified metrics, tracing, and profiling.
//
// The measurement substrate behind the paper's Fig. 1 feedback arrows: the
// autotuner, RTRM, power models, nav server, and VM all report what they did
// through this one registry, and the exporters turn a run into a Chrome
// trace (chrome://tracing / Perfetto), a metrics JSON dump, or a summary
// table. See DESIGN.md "Observability".
//
// Cost contract: runtime-disabled (the default), every macro is one relaxed
// atomic load and a predictable branch.
//
// Usage:
//   TELEMETRY_SPAN("rtrm.dispatch");            // RAII trace span
//   TELEMETRY_COUNT("vm.calls", 1);             // cached counter add
//   TELEMETRY_GAUGE("rtrm.queue_depth", q);     // cached gauge set
//   auto& h = telemetry::Registry::global().histogram("nav.latency_s", 0, 2, 40);
//   h.add(latency_s);
#pragma once

#include "telemetry/enable.hpp"
#include "telemetry/export.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"

#define ANTAREX_TELEMETRY_CAT2(a, b) a##b
#define ANTAREX_TELEMETRY_CAT(a, b) ANTAREX_TELEMETRY_CAT2(a, b)

/// Trace the enclosing scope as a span named `name` (string literal).
#define TELEMETRY_SPAN(name)                     \
  ::antarex::telemetry::ScopedSpan ANTAREX_TELEMETRY_CAT( \
      antarex_telemetry_span_, __LINE__)(name)

/// Add `n` to the counter `name`. The registry lookup happens once per call
/// site (function-local static); `name` must be constant across calls.
#define TELEMETRY_COUNT(name, n)                                         \
  do {                                                                   \
    static ::antarex::telemetry::Counter& antarex_telemetry_counter_ =   \
        ::antarex::telemetry::Registry::global().counter(name);          \
    antarex_telemetry_counter_.add(n);                                   \
  } while (false)

/// Set the gauge `name` to `v`, with the same cached-lookup contract.
#define TELEMETRY_GAUGE(name, v)                                         \
  do {                                                                   \
    static ::antarex::telemetry::Gauge& antarex_telemetry_gauge_ =       \
        ::antarex::telemetry::Registry::global().gauge(name);            \
    antarex_telemetry_gauge_.set(v);                                     \
  } while (false)
