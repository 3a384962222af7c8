// antarex::exec — the real multithreaded execution subsystem.
//
// A work-stealing thread pool: every worker owns a Chase-Lev deque (lock-free
// fast path) plus a small mutex-guarded inbox for submissions from outside
// the pool. A worker pops its own deque LIFO; when dry it drains its inbox,
// then steals FIFO from the other workers' deques and inboxes. This is the
// executable counterpart of the dock scheduling *simulators*
// (dock::schedule_dynamic) — same heavy-tailed-task problem, real threads,
// measured (not modelled) makespan, imbalance, and steal counts.
//
// Determinism contract (DESIGN.md decision 5): the pool itself schedules
// nondeterministically — *which* worker runs a task and *when* varies between
// runs — so any reproducible computation must (a) derive per-task RNG streams
// from the run seed and the task index (exec::stream_seed), never from a
// shared generator, and (b) combine results by task index (ordered
// reduction), never by completion order. parallel_for/parallel_map implement
// (b); with (a) observed, results are byte-identical across thread counts.
//
// Telemetry: the pool publishes exec.tasks / exec.steals counters, an
// exec.task span per task, an exec.queue_depth series (sampled), and — via
// publish_telemetry() — an exec.worker_busy_s gauge whose min/max envelope is
// the measured imbalance. All of it requires the registry to be safe for
// concurrent writers (see telemetry/registry.hpp).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "exec/deque.hpp"
#include "support/common.hpp"

namespace antarex::exec {

/// A unit of pool work. Heap-allocated; the pool deletes it after run().
class Task {
 public:
  virtual ~Task() = default;
  virtual void run() = 0;

  u64 submit_ns = 0;  ///< stamped at enqueue; run_task measures queue wait
};

/// Quiescent-read execution statistics. Exact only while no tasks are in
/// flight (stats are per-worker relaxed atomics); the intended reading point
/// is after a parallel_for or TaskGroup::wait has returned.
struct PoolStats {
  u64 tasks = 0;                    ///< tasks executed
  u64 steals = 0;                   ///< cross-worker task acquisitions
  u64 inline_runs = 0;              ///< deque-full fallbacks (lost parallelism)
  u64 retries = 0;                  ///< async_retry re-submissions after a throw
  std::vector<double> worker_busy_s;  ///< per-worker task execution time
  std::vector<u64> worker_tasks;
  // Submit-to-start queue wait, accumulated per task independently of
  // tracing (the exec.queue_wait_us histogram carries the p50/p95/p99).
  u64 waited_tasks = 0;            ///< tasks with a measured wait
  double queue_wait_total_s = 0.0;
  double queue_wait_max_s = 0.0;

  /// max busy / mean busy, the same figure the dock simulators report.
  double imbalance() const;
  double total_busy_s() const;
  double mean_queue_wait_s() const;
};

class ThreadPool {
 public:
  /// threads <= 0 selects hardware_threads().
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }
  static int hardware_threads();

  /// Workers currently inside a task's run() — the instantaneous occupancy
  /// the energy accountant weights its apportionment by. Racy by nature;
  /// always in [0, size()].
  int active_workers() const {
    return active_workers_.load(std::memory_order_relaxed);
  }

  /// Fire-and-forget submission (round-robin inbox). The callable must not
  /// throw; use async() or parallel_for for exception propagation.
  void submit(std::function<void()> fn);

  /// Submission with a future carrying the result or exception.
  template <typename F>
  auto async(F f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(f));
    std::future<R> fut = task->get_future();
    submit([task] { (*task)(); });
    return fut;
  }

  /// async() with a bounded retry budget: if the callable throws, it is
  /// resubmitted to the pool until it succeeds or max_attempts executions are
  /// spent, and only the *last* attempt's exception reaches the future. The
  /// resilience counterpart of the dispatcher's job requeue — transient task
  /// faults (injected or real) are absorbed instead of failing the run.
  template <typename F>
  auto async_retry(F f, int max_attempts)
      -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    ANTAREX_REQUIRE(max_attempts >= 1, "async_retry: need at least one attempt");
    auto promise = std::make_shared<std::promise<R>>();
    std::future<R> fut = promise->get_future();
    retry_step<R>(std::make_shared<F>(std::move(f)), promise, max_attempts);
    return fut;
  }

  /// Run body(begin, end) over subranges covering [0, n), `grain` indices per
  /// task. Chunks are seeded contiguously across the workers' own deques and
  /// re-balance by stealing. Blocks until every chunk ran; rethrows the first
  /// chunk exception. Called from inside a pool worker it degrades to a
  /// serial body(0, n) — same result, no deadlock.
  void parallel_for(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body);

  PoolStats stats() const;
  void reset_stats();

  /// Export the current stats through the telemetry registry: per-worker
  /// exec.worker_busy_s gauge (min/max envelope = measured imbalance) and the
  /// exec.workers gauge.
  void publish_telemetry() const;

 private:
  struct Worker;

  /// One async_retry execution; resubmits itself on a throw. No cycle: each
  /// submitted closure owns the callable/promise via shared_ptr, nothing owns
  /// the closure after it ran.
  template <typename R, typename Fp, typename Pp>
  void retry_step(Fp fn, Pp promise, int attempts_left) {
    submit([this, fn, promise, attempts_left] {
      try {
        if constexpr (std::is_void_v<R>) {
          (*fn)();
          promise->set_value();
        } else {
          promise->set_value((*fn)());
        }
      } catch (...) {
        if (attempts_left <= 1) {
          promise->set_exception(std::current_exception());
          return;
        }
        note_retry();
        retry_step<R>(fn, promise, attempts_left - 1);
      }
    });
  }
  void note_retry();  ///< bump the retry stat + exec.task_retries counter

  void worker_main(std::size_t index);
  Task* find_task(Worker& self, std::size_t index);
  void run_task(Worker& self, Task* t);
  void submit_to(std::size_t worker, Task* t);
  void wake_all();

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::atomic<u64> retries_{0};
  std::atomic<int> active_workers_{0};
  std::atomic<std::size_t> next_inbox_{0};
  std::atomic<bool> stop_{false};
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
};

/// Structured fire-and-wait: spawn any number of tasks, then wait() for all
/// of them; the first exception thrown by a task is rethrown from wait().
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
  ~TaskGroup() { wait_nothrow(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  template <typename F>
  void run(F f) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++outstanding_;
    }
    pool_.submit([this, f = std::move(f)]() mutable {
      try {
        f();
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!error_) error_ = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mu_);
      if (--outstanding_ == 0) cv_.notify_all();
    });
  }

  void wait() {
    wait_nothrow();
    std::lock_guard<std::mutex> lock(mu_);
    if (error_) {
      std::exception_ptr e = error_;
      error_ = nullptr;
      std::rethrow_exception(e);
    }
  }

 private:
  void wait_nothrow() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return outstanding_ == 0; });
  }

  ThreadPool& pool_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t outstanding_ = 0;
  std::exception_ptr error_;
};

}  // namespace antarex::exec
