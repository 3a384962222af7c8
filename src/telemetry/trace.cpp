#include "telemetry/trace.hpp"

#include <chrono>

#include "telemetry/registry.hpp"

namespace antarex::telemetry {

namespace {

u64 steady_now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

TraceBuffer::TraceBuffer(std::size_t capacity)
    : capacity_(capacity), now_fn_(&steady_now_ns) {
  ANTAREX_REQUIRE(capacity_ > 0, "TraceBuffer: need a positive capacity");
  events_.reserve(std::min<std::size_t>(capacity_, 1024));
}

void TraceBuffer::push(const char* name, char phase) {
  // Stamp outside the lock: timestamps come from the (possibly swapped)
  // now_fn_, and holding the mutex across it would serialize clock reads.
  const u64 ts = now_fn_();
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(TraceEvent{name, ts, phase});
}

void TraceBuffer::push(const char* name, char phase, u64 trace_id, u64 span_id,
                       u64 parent_id) {
  const u64 ts = now_fn_();
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(TraceEvent{name, ts, phase, trace_id, span_id, parent_id});
}

std::vector<TraceEvent> TraceBuffer::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::size_t TraceBuffer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::size_t TraceBuffer::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

u64 TraceBuffer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void TraceBuffer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  dropped_ = 0;
}

void TraceBuffer::set_capacity(std::size_t capacity) {
  ANTAREX_REQUIRE(capacity > 0, "TraceBuffer: need a positive capacity");
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
  events_.clear();
  dropped_ = 0;
}

void TraceBuffer::set_now_fn(NowFn fn) {
  now_fn_ = fn ? fn : &steady_now_ns;
}

namespace {
std::atomic<SpanEnterHook> g_enter_hook{nullptr};
std::atomic<SpanExitHook> g_exit_hook{nullptr};
}  // namespace

void set_span_enter_hook(SpanEnterHook fn) {
  g_enter_hook.store(fn, std::memory_order_release);
}

void set_span_exit_hook(SpanExitHook fn) {
  g_exit_hook.store(fn, std::memory_order_release);
}

SpanEnterHook span_enter_hook() {
  return g_enter_hook.load(std::memory_order_acquire);
}

SpanExitHook span_exit_hook() {
  return g_exit_hook.load(std::memory_order_acquire);
}

ScopedSpan::ScopedSpan(const char* name) : name_(name), active_(enabled()) {
  if (!active_) return;
  TraceBuffer& buf = Registry::global().trace();
  if (detail::ContextFrame* parent = detail::context_top()) {
    frame_.ctx = parent->ctx.child(parent->next_child++);
    detail::push_context_frame(&frame_);
    framed_ = true;
    buf.push(name_, 'B', frame_.ctx.trace_id, frame_.ctx.span_id,
             frame_.ctx.parent_id);
  } else {
    buf.push(name_, 'B');
  }
  if (SpanEnterHook hook = span_enter_hook()) hook(name_);
  if (span_exit_hook()) start_ns_ = buf.now_ns();
}

ScopedSpan::~ScopedSpan() {
  // Close the span even if telemetry was switched off mid-flight, so the
  // buffer stays balanced.
  if (!active_) return;
  TraceBuffer& buf = Registry::global().trace();
  if (framed_) {
    buf.push(name_, 'E', frame_.ctx.trace_id, frame_.ctx.span_id,
             frame_.ctx.parent_id);
    detail::pop_context_frame(&frame_);
  } else {
    buf.push(name_, 'E');
  }
  if (SpanExitHook hook = span_exit_hook())
    hook(name_, start_ns_, buf.now_ns());
}

}  // namespace antarex::telemetry
