#include "exec/pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <exception>

#include "telemetry/telemetry.hpp"

namespace antarex::exec {

namespace {

u64 now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Which pool (if any) owns the current thread — guards nested parallel_for.
thread_local const ThreadPool* t_current_pool = nullptr;

// The executing worker's own deque and inline-run counter. SeedTask resolves
// its push target through these instead of carrying a pointer to the
// submission target's deque: an inbox-stolen seed would otherwise push into a
// deque it does not own, racing the owner's pop (Chase-Lev push is owner-only).
thread_local TaskDeque* t_my_deque = nullptr;
thread_local std::atomic<u64>* t_my_inline_runs = nullptr;

}  // namespace

double PoolStats::imbalance() const {
  double max_busy = 0.0, total = 0.0;
  for (double b : worker_busy_s) {
    max_busy = std::max(max_busy, b);
    total += b;
  }
  const double mean = worker_busy_s.empty()
                          ? 0.0
                          : total / static_cast<double>(worker_busy_s.size());
  return mean > 0.0 ? max_busy / mean : 1.0;
}

double PoolStats::total_busy_s() const {
  double total = 0.0;
  for (double b : worker_busy_s) total += b;
  return total;
}

double PoolStats::mean_queue_wait_s() const {
  return waited_tasks > 0
             ? queue_wait_total_s / static_cast<double>(waited_tasks)
             : 0.0;
}

struct ThreadPool::Worker {
  TaskDeque deque;
  std::mutex inbox_mu;
  std::deque<Task*> inbox;
  std::atomic<u64> busy_ns{0};
  std::atomic<u64> tasks{0};
  std::atomic<u64> steals{0};
  std::atomic<u64> inline_runs{0};
  std::atomic<u64> wait_ns{0};      ///< summed submit-to-start queue wait
  std::atomic<u64> wait_max_ns{0};  ///< written only by the owning thread
  std::atomic<u64> waited{0};
};

namespace {

// Shared state of one parallel_for call.
struct ForState {
  std::function<void(std::size_t, std::size_t)> body;
  std::size_t n = 0;
  std::size_t grain = 1;
  // Causal context of the parallel_for span; each chunk adopts a
  // deterministic child keyed by its chunk index, so the request tree is
  // identical no matter which worker ran (or stole) the chunk.
  telemetry::TraceContext ctx;
  std::atomic<std::size_t> remaining{0};  ///< chunks not yet finished
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::exception_ptr error;
  std::size_t error_begin = SIZE_MAX;  ///< chunk index of the kept exception

  void run_chunk(std::size_t begin, std::size_t end) {
    // Every chunk always runs — no fast-skip after a failure. The caller is
    // owed the *deterministic* first exception (lowest chunk index), not
    // whichever one a race surfaced first; with all chunks executed, the
    // lowest-index error is well defined across runs and thread counts.
    try {
      body(begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (begin < error_begin) {
        error_begin = begin;
        error = std::current_exception();
      }
    }
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
      cv.notify_all();
    }
  }
};

struct FnTask final : Task {
  explicit FnTask(std::function<void()> f) : fn(std::move(f)) {}
  void run() override { fn(); }
  std::function<void()> fn;
};

struct ChunkTask final : Task {
  ChunkTask(ForState* s, std::size_t b, std::size_t e, std::size_t c)
      : state(s), begin(b), end(e), chunk(c) {}
  void run() override {
    if (state->ctx.active()) {
      telemetry::ContextScope scope(
          state->ctx.child_task(static_cast<u64>(chunk)));
      state->run_chunk(begin, end);
    } else {
      state->run_chunk(begin, end);
    }
  }
  ForState* state;
  std::size_t begin, end, chunk;
};

// Scatters one worker's share of chunks into the *executing* worker's
// Chase-Lev deque (via the thread-locals above — push is owner-only, and a
// seed stolen from an inbox runs on the thief), where other workers can then
// rebalance them by stealing. Idle workers poll for steals within 200us (the
// sleep timeout in worker_main), so no extra wakeup is needed after seeding.
struct SeedTask final : Task {
  SeedTask(ForState* s, std::size_t c0, std::size_t c1)
      : state(s), chunk_begin(c0), chunk_end(c1) {}

  void run() override {
    for (std::size_t c = chunk_begin; c < chunk_end; ++c) {
      const std::size_t begin = c * state->grain;
      const std::size_t end = std::min(state->n, begin + state->grain);
      auto* chunk = new ChunkTask(state, begin, end, c);
      chunk->submit_ns = now_ns();
      if (!t_my_deque->push(chunk)) {
        // Deque full: run right here. Costs parallelism, never correctness.
        t_my_inline_runs->fetch_add(1, std::memory_order_relaxed);
        chunk->run();
        delete chunk;
      }
    }
  }

  ForState* state;
  std::size_t chunk_begin, chunk_end;
};

}  // namespace

ThreadPool::ThreadPool(int threads) {
  int n = threads > 0 ? threads : hardware_threads();
  n = std::max(1, n);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) workers_.push_back(std::make_unique<Worker>());
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    threads_.emplace_back([this, i] { worker_main(static_cast<std::size_t>(i)); });
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_seq_cst);
  wake_all();
  for (std::thread& t : threads_) t.join();
  // Workers drain every queue before exiting; anything still here means a
  // task was submitted after stop, which the API forbids.
  for (auto& w : workers_) {
    while (Task* t = w->deque.pop()) delete t;
    for (Task* t : w->inbox) delete t;
    w->inbox.clear();
  }
}

int ThreadPool::hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ThreadPool::submit(std::function<void()> fn) {
  // Carry the submitter's causal context (if any) across the thread
  // boundary: fork a child task context here — serially, so its slot is
  // deterministic — and adopt it on whichever worker ends up running the
  // task. Inactive contexts (no tracing) skip the wrapper entirely.
  const telemetry::TraceContext ctx = telemetry::fork_context();
  Task* t;
  if (ctx.active()) {
    t = new FnTask([ctx, f = std::move(fn)] {
      telemetry::ContextScope scope(ctx);
      f();
    });
  } else {
    t = new FnTask(std::move(fn));
  }
  const std::size_t w =
      next_inbox_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  submit_to(w, t);
}

void ThreadPool::submit_to(std::size_t worker, Task* t) {
  t->submit_ns = now_ns();
  Worker& w = *workers_[worker];
  {
    std::lock_guard<std::mutex> lock(w.inbox_mu);
    w.inbox.push_back(t);
  }
  wake_all();
}

void ThreadPool::wake_all() {
  std::lock_guard<std::mutex> lock(wake_mu_);
  wake_cv_.notify_all();
}

void ThreadPool::note_retry() {
  retries_.fetch_add(1, std::memory_order_relaxed);
  TELEMETRY_COUNT("exec.task_retries", 1);
}

void ThreadPool::parallel_for(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  ANTAREX_REQUIRE(body != nullptr, "parallel_for: null body");
  if (n == 0) return;
  grain = std::max<std::size_t>(1, grain);

  if (t_current_pool == this) {
    // Nested use from a pool thread: blocking here could deadlock a
    // fully-busy pool, and the ordered-reduction contract makes serial
    // execution indistinguishable anyway.
    body(0, n);
    return;
  }

  TELEMETRY_SPAN("exec.parallel_for");
  TELEMETRY_COUNT("exec.parallel_for_calls", 1);

  ForState state;
  state.body = body;
  state.n = n;
  state.grain = grain;
  // Children of the exec.parallel_for span just opened above (inactive when
  // the caller has no causal context).
  state.ctx = telemetry::current_context();
  const std::size_t chunks = (n + grain - 1) / grain;
  state.remaining.store(chunks, std::memory_order_relaxed);

  // Contiguous block of chunks per worker — the same initial partition the
  // static scheduler uses; stealing provides the dynamic rebalancing.
  const std::size_t P = workers_.size();
  for (std::size_t w = 0; w < P; ++w) {
    const std::size_t c0 = w * chunks / P;
    const std::size_t c1 = (w + 1) * chunks / P;
    if (c0 == c1) continue;
    submit_to(w, new SeedTask(&state, c0, c1));
  }

  {
    std::unique_lock<std::mutex> lock(state.mu);
    state.cv.wait(lock, [&state] { return state.done; });
  }
  if (state.error) std::rethrow_exception(state.error);
}

Task* ThreadPool::find_task(Worker& self, std::size_t index) {
  if (Task* t = self.deque.pop()) return t;
  {
    std::lock_guard<std::mutex> lock(self.inbox_mu);
    if (!self.inbox.empty()) {
      Task* t = self.inbox.front();
      self.inbox.pop_front();
      return t;
    }
  }
  // Steal sweep: victims in index order starting after ourselves, their
  // deques first (lock-free), inboxes second.
  const std::size_t P = workers_.size();
  for (std::size_t d = 1; d < P; ++d) {
    Worker& victim = *workers_[(index + d) % P];
    if (Task* t = victim.deque.steal()) {
      self.steals.fetch_add(1, std::memory_order_relaxed);
      TELEMETRY_COUNT("exec.steals", 1);
      return t;
    }
  }
  for (std::size_t d = 1; d < P; ++d) {
    Worker& victim = *workers_[(index + d) % P];
    std::lock_guard<std::mutex> lock(victim.inbox_mu);
    if (!victim.inbox.empty()) {
      Task* t = victim.inbox.front();
      victim.inbox.pop_front();
      self.steals.fetch_add(1, std::memory_order_relaxed);
      TELEMETRY_COUNT("exec.steals", 1);
      return t;
    }
  }
  return nullptr;
}

void ThreadPool::run_task(Worker& self, Task* t) {
  TELEMETRY_SPAN("exec.task");
  active_workers_.fetch_add(1, std::memory_order_relaxed);
  const u64 t0 = now_ns();
  if (t->submit_ns != 0 && t0 > t->submit_ns) {
    const u64 wait = t0 - t->submit_ns;
    self.wait_ns.fetch_add(wait, std::memory_order_relaxed);
    self.waited.fetch_add(1, std::memory_order_relaxed);
    if (wait > self.wait_max_ns.load(std::memory_order_relaxed))
      self.wait_max_ns.store(wait, std::memory_order_relaxed);
    if (telemetry::enabled()) {
      static telemetry::Histogram& queue_wait =
          telemetry::Registry::global().histogram("exec.queue_wait_us", 0.0,
                                                  10000.0, 64);
      queue_wait.add(static_cast<double>(wait) * 1e-3);
    }
  }
  t->run();
  active_workers_.fetch_sub(1, std::memory_order_relaxed);
  self.busy_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  const u64 done = self.tasks.fetch_add(1, std::memory_order_relaxed) + 1;
  TELEMETRY_COUNT("exec.tasks", 1);
  if ((done & 63u) == 0 && telemetry::enabled()) {
    static telemetry::Series& depth =
        telemetry::Registry::global().series("exec.queue_depth");
    depth.push(static_cast<double>(self.deque.size_approx()));
  }
  delete t;
}

void ThreadPool::worker_main(std::size_t index) {
  t_current_pool = this;
  Worker& self = *workers_[index];
  t_my_deque = &self.deque;
  t_my_inline_runs = &self.inline_runs;
  while (true) {
    if (Task* t = find_task(self, index)) {
      run_task(self, t);
      continue;
    }
    if (stop_.load(std::memory_order_seq_cst)) return;
    // Nothing runnable: sleep briefly. The timeout bounds the window of a
    // missed wakeup, so submission never needs to hold the wake lock.
    std::unique_lock<std::mutex> lock(wake_mu_);
    wake_cv_.wait_for(lock, std::chrono::microseconds(200));
  }
}

PoolStats ThreadPool::stats() const {
  PoolStats s;
  for (const auto& w : workers_) {
    const u64 busy = w->busy_ns.load(std::memory_order_relaxed);
    const u64 tasks = w->tasks.load(std::memory_order_relaxed);
    s.worker_busy_s.push_back(static_cast<double>(busy) * 1e-9);
    s.worker_tasks.push_back(tasks);
    s.tasks += tasks;
    s.steals += w->steals.load(std::memory_order_relaxed);
    s.inline_runs += w->inline_runs.load(std::memory_order_relaxed);
    s.waited_tasks += w->waited.load(std::memory_order_relaxed);
    s.queue_wait_total_s +=
        static_cast<double>(w->wait_ns.load(std::memory_order_relaxed)) * 1e-9;
    s.queue_wait_max_s = std::max(
        s.queue_wait_max_s,
        static_cast<double>(w->wait_max_ns.load(std::memory_order_relaxed)) *
            1e-9);
  }
  s.retries = retries_.load(std::memory_order_relaxed);
  return s;
}

void ThreadPool::reset_stats() {
  retries_.store(0, std::memory_order_relaxed);
  for (auto& w : workers_) {
    w->busy_ns.store(0, std::memory_order_relaxed);
    w->tasks.store(0, std::memory_order_relaxed);
    w->steals.store(0, std::memory_order_relaxed);
    w->inline_runs.store(0, std::memory_order_relaxed);
    w->wait_ns.store(0, std::memory_order_relaxed);
    w->wait_max_ns.store(0, std::memory_order_relaxed);
    w->waited.store(0, std::memory_order_relaxed);
  }
}

void ThreadPool::publish_telemetry() const {
  const PoolStats s = stats();
  TELEMETRY_GAUGE("exec.workers", static_cast<double>(workers_.size()));
  TELEMETRY_GAUGE("exec.active_workers", static_cast<double>(active_workers()));
  for (double busy : s.worker_busy_s)
    TELEMETRY_GAUGE("exec.worker_busy_s", busy);
}

}  // namespace antarex::exec
