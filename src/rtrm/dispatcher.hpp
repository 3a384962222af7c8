// Job dispatcher of the legacy per-object plant: maps queued jobs to free
// devices under FirstFit or FastestFirst placement (ShardedDispatcher alone
// also scores EnergyAware placement).
//
// Resilience (antarex::fault): jobs interrupted by node crashes are restored
// from their last checkpoint and requeued with per-attempt exponential
// backoff; a job that keeps dying is reported Failed after max_attempts, so
// every submitted job ends in exactly one of {Done, Failed} — the no-lost-jobs
// invariant the property tests assert.
#pragma once

#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "rtrm/config.hpp"
#include "rtrm/job.hpp"
#include "rtrm/node.hpp"

namespace antarex::rtrm {

class Dispatcher {
 public:
  /// Throws on EnergyAware placement, which only ShardedDispatcher scores.
  explicit Dispatcher(PlacementPolicy policy = PlacementPolicy::FirstFit,
                      bool backfill = false);

  /// EASY backfilling: when the queue head cannot start (no free compatible
  /// device), later jobs may jump ahead as long as they cannot delay the
  /// head's reservation — they either run on a device the head cannot use,
  /// or finish (by prediction) before the reserved device frees.
  void set_backfill(bool enabled) { backfill_ = enabled; }
  bool backfill() const { return backfill_; }
  u64 backfilled_jobs() const { return backfilled_; }

  void submit(Job job);
  std::size_t queued() const { return queue_.size(); }
  std::size_t running() const { return running_.size(); }
  /// Jobs currently placed on devices (read-only view for the govern layer's
  /// per-job energy ledger and priority weighting).
  const std::vector<Job>& running_jobs() const { return running_; }
  std::size_t completed() const { return done_.size(); }
  const std::vector<Job>& completed_jobs() const { return done_; }
  std::size_t failed() const { return failed_.size(); }
  const std::vector<Job>& failed_jobs() const { return failed_; }
  u64 requeued_jobs() const { return requeued_; }

  /// Base of the per-attempt exponential backoff: a job on attempt k waits
  /// backoff_base_s * 2^(k-1) before it is eligible again.
  void set_backoff_base_s(double s) { backoff_base_s_ = s; }
  double backoff_base_s() const { return backoff_base_s_; }

  /// Try to place queued jobs on free devices (in queue order; a job that
  /// cannot be placed blocks later ones — FCFS). Jobs in crash backoff
  /// (not_before_s > now) are invisible to this pass: they neither place nor
  /// block others.
  void place(std::vector<Node>& nodes, double now_s);

  /// Notify that a job finished on some device (called by the cluster when a
  /// Device::step reports completion).
  void on_finished(u64 job_id, double now_s);

  /// Handle a node crash: each (job id, units unfinished) pair from
  /// Node::fail() is rolled back to its last checkpoint and requeued with
  /// exponential backoff, or marked Failed past its retry budget.
  void on_node_failed(const std::vector<std::pair<u64, double>>& interrupted,
                      double now_s);

  /// Lifecycle event hook for replay logging (antarex::fault): invoked as
  /// fn(kind, job_id, t) with kind in {"dispatch", "finish", "requeue",
  /// "fail"}. All events fire on the simulation thread in virtual-time order.
  using EventHook = std::function<void(const char* kind, u64 job_id, double t)>;
  void set_event_hook(EventHook fn) { event_hook_ = std::move(fn); }

  PlacementPolicy policy() const { return policy_; }

 private:
  Device* choose_device(std::vector<Node>& nodes, const Job& job) const;
  void start(Job job, Device& device, double now_s);
  /// Predicted seconds until a busy device frees (at its current P-state and
  /// degradation factor).
  static double predicted_remaining_s(const Device& d);
  void emit(const char* kind, u64 job_id, double t) const {
    if (event_hook_) event_hook_(kind, job_id, t);
  }

  PlacementPolicy policy_;
  bool backfill_;
  u64 backfilled_ = 0;
  u64 requeued_ = 0;
  double backoff_base_s_ = 2.0;
  std::deque<Job> queue_;
  std::vector<Job> running_;
  std::vector<Job> done_;
  std::vector<Job> failed_;
  EventHook event_hook_;
};

}  // namespace antarex::rtrm
