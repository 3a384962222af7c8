// Trace spans: hierarchical begin/end events in a bounded buffer.
//
// A ScopedSpan pushes a 'B' event at construction and an 'E' event at
// destruction, so each thread's events are chronologically ordered and
// properly nested by construction (RAII). When the buffer is full, new events
// are dropped and counted — the exporter and the metrics dump both report the
// drop counter, so a truncated trace is never mistaken for a complete one.
#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

#include "support/common.hpp"
#include "telemetry/context.hpp"
#include "telemetry/enable.hpp"

namespace antarex::telemetry {

struct TraceEvent {
  const char* name;  ///< must outlive the buffer (string literal or interned)
  u64 ts_ns;         ///< monotonic timestamp
  char phase;        ///< 'B'/'E' span, 'S'/'F' causal flow start/finish
  // Causal identity (0 = span opened outside any context; see context.hpp).
  u64 trace_id = 0;
  u64 span_id = 0;
  u64 parent_id = 0;
};

/// Bounded event buffer with drop accounting. Safe for concurrent writers
/// (exec pool workers emit task spans): push/clear/size take a private mutex,
/// exporters read through snapshot(). events() returns the raw vector without
/// locking — valid only when no other thread is pushing (tests, post-run
/// inspection); concurrent readers must use snapshot().
class TraceBuffer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit TraceBuffer(std::size_t capacity = kDefaultCapacity);

  void push(const char* name, char phase);
  /// Push with causal identity (ScopedSpan under a context, flow marks).
  void push(const char* name, char phase, u64 trace_id, u64 span_id,
            u64 parent_id);

  const std::vector<TraceEvent>& events() const { return events_; }
  /// Locked copy of the buffer — the only safe read while writers are live.
  std::vector<TraceEvent> snapshot() const;
  std::size_t size() const;
  std::size_t capacity() const;
  u64 dropped() const;
  void clear();

  /// Shrink/grow the bound (clears the buffer; tests use tiny capacities).
  void set_capacity(std::size_t capacity);

  /// Timestamp source, swappable for deterministic golden-file tests.
  /// Default: std::chrono::steady_clock in nanoseconds.
  using NowFn = u64 (*)();
  void set_now_fn(NowFn fn);
  u64 now_ns() const { return now_fn_(); }

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::vector<TraceEvent> events_;
  u64 dropped_ = 0;
  NowFn now_fn_;
};

/// Span lifecycle hooks, the attachment point for profiling layers that need
/// to know what is open *right now* (antarex::obs energy attribution, the
/// policy engine's span-exit evaluation). Global process-wide function
/// pointers held in atomics: install before the instrumented region runs,
/// uninstall (nullptr) after it quiesces. Hooks fire only for spans that were
/// active at construction (telemetry enabled), on the thread running the
/// span. The exit hook receives the span's start/end timestamps from the
/// trace clock; timestamps are sampled only while an exit hook is installed,
/// so hook-free runs take no extra clock reads.
using SpanEnterHook = void (*)(const char* name);
using SpanExitHook = void (*)(const char* name, u64 start_ns, u64 end_ns);
void set_span_enter_hook(SpanEnterHook fn);
void set_span_exit_hook(SpanExitHook fn);
SpanEnterHook span_enter_hook();
SpanExitHook span_exit_hook();

/// RAII trace span. Use via TELEMETRY_SPAN("subsystem.operation"); the name
/// must be a string literal (stored by pointer, never copied).
///
/// When a causal context is current on this thread (ContextScope or an
/// enclosing ScopedSpan installed one), the span allocates the next child
/// slot of that context, stamps its B/E events with the derived ids, and
/// becomes the current context itself — so nesting and cross-thread
/// adoption compose into one deterministic id tree. Outside any context the
/// events carry zero ids, exactly as before contexts existed.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// The span's causal identity (inactive when opened outside a context).
  const TraceContext& context() const { return frame_.ctx; }

 private:
  const char* name_;
  bool active_;
  bool framed_ = false;  ///< true when this span installed a context frame
  u64 start_ns_ = 0;     ///< sampled only when an exit hook is installed
  detail::ContextFrame frame_;
};

}  // namespace antarex::telemetry
