#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>

namespace perf {

void add_pool_metrics(Pass& p, const antarex::exec::PoolStats& stats,
                      double wall_s) {
  const double workers = static_cast<double>(stats.worker_busy_s.size());
  p.layers["exec.utilization"] =
      wall_s > 0.0 && workers > 0.0 ? stats.total_busy_s() / (wall_s * workers)
                                    : 0.0;
  p.layers["exec.imbalance"] = stats.total_busy_s() > 0.0 ? stats.imbalance() : 0.0;
  p.layers["exec.steals"] = static_cast<double>(stats.steals);
  p.layers["exec.queue_wait_mean_us"] = stats.mean_queue_wait_s() * 1e6;
}

// ---------------------------------------------------------------------------
// Self time from the span hooks
// ---------------------------------------------------------------------------

namespace {

/// One thread's span accounts, written by its own thread. The main thread
/// reads and resets them between passes; a pool worker can still be closing
/// its last exec.task span then, hence the lock.
struct ThreadAccount {
  std::mutex mu;
  bool main = false;
  std::vector<u64> child_ns;  ///< per open span: time its closed children took
  std::vector<std::pair<const char*, u64>> self_ns;  ///< by span name
  u64 spans = 0;
};

std::mutex g_accounts_mu;
std::vector<std::unique_ptr<ThreadAccount>> g_accounts;  // guarded by g_accounts_mu
thread_local ThreadAccount* t_account = nullptr;
/// True while the main thread is inside `bench.pass`: spans of the pass's
/// set-up are not part of its measured work.
std::atomic<bool> g_in_pass{false};

bool is_pass_span(const char* name) { return std::strcmp(name, "bench.pass") == 0; }

ThreadAccount& account() {
  if (!t_account) {
    auto a = std::make_unique<ThreadAccount>();
    std::lock_guard<std::mutex> lock(g_accounts_mu);
    t_account = a.get();
    g_accounts.push_back(std::move(a));
  }
  return *t_account;
}

void on_enter(const char* name) {
  ThreadAccount& a = account();
  std::lock_guard<std::mutex> lock(a.mu);
  a.child_ns.push_back(0);
  if (is_pass_span(name)) g_in_pass.store(true, std::memory_order_relaxed);
}

void on_exit(const char* name, u64 start_ns, u64 end_ns) {
  ThreadAccount& a = account();
  std::lock_guard<std::mutex> lock(a.mu);
  const u64 dur = end_ns - start_ns;
  if (a.child_ns.empty()) return;  // opened before the hooks were installed
  const u64 children = a.child_ns.back();
  a.child_ns.pop_back();
  if (!a.child_ns.empty()) a.child_ns.back() += dur;
  if (!g_in_pass.load(std::memory_order_relaxed)) return;
  if (is_pass_span(name)) g_in_pass.store(false, std::memory_order_relaxed);
  const u64 self = dur - std::min(children, dur);
  auto it = std::find_if(a.self_ns.begin(), a.self_ns.end(),
                         [name](const auto& e) { return e.first == name; });
  if (it == a.self_ns.end()) {
    a.self_ns.emplace_back(name, self);
  } else {
    it->second += self;
  }
  ++a.spans;
}

std::string layer_of(const std::string& span) {
  std::string name = span;
  if (name == "bench.pass") return "harness";
  if (name.rfind("bench.", 0) == 0) name = name.substr(6);
  return name.substr(0, name.find('.'));
}

}  // namespace

void self_time_begin() {
  g_in_pass.store(false, std::memory_order_relaxed);
  ThreadAccount& self = account();
  std::lock_guard<std::mutex> lock(g_accounts_mu);
  for (auto& a : g_accounts) {
    std::lock_guard<std::mutex> account_lock(a->mu);
    a->main = a.get() == &self;
    a->child_ns.clear();
    a->self_ns.clear();
    a->spans = 0;
  }
  antarex::telemetry::set_span_enter_hook(&on_enter);
  antarex::telemetry::set_span_exit_hook(&on_exit);
}

SelfTimes self_time_end() {
  antarex::telemetry::set_span_enter_hook(nullptr);
  antarex::telemetry::set_span_exit_hook(nullptr);
  SelfTimes out;
  std::lock_guard<std::mutex> lock(g_accounts_mu);
  for (const auto& a : g_accounts) {
    std::lock_guard<std::mutex> account_lock(a->mu);
    auto& into = a->main ? out.main_s : out.worker_s;
    for (const auto& [name, ns] : a->self_ns)
      into[layer_of(name)] += static_cast<double>(ns) * 1e-9;
    out.spans += a->spans;
  }
  return out;
}

}  // namespace perf
