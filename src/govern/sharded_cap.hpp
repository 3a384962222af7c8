// The facility power-cap coordinator: the govern layer's closed loop.
//
// ShardedCapCoordinator takes one facility power budget (the cap the site
// negotiated, paper Sec. V) and makes it hold from the top down over the SoA
// engine (rtrm::ShardedCluster):
//
//   facility cap ──epoch──▶ per-shard budgets ──epoch──▶ per-node budgets
//                                             ──control──▶ device ceilings
//
//  - Every simulation step it integrates cluster and per-node energy and
//    keeps a per-job ledger (device power attributed to the job running on
//    it, found through ShardedDispatcher::device_of — O(running jobs)).
//  - Every epoch (cfg.epoch_s of simulated time, RAPL-window semantics) it
//    closes the books: a *violation* is an epoch whose mean IT power exceeds
//    the cap. It then renegotiates: the distributable budget is split across
//    shards in proportion to their summed node weights, then within each
//    shard across its alive nodes the same way. A node's weight is its
//    measured demand raised to the fairness exponent, times the priority of
//    the heaviest job it runs, times the external weight set_node_weight
//    gives it. Budgets conserve: alive-node budgets sum to
//    cap * (1 - guard_fraction), the guard band absorbing intra-epoch
//    transients. With one shard this is the plain demand-proportional split.
//  - A change in the alive set (antarex::fault crashing or repairing a node)
//    renegotiates on the very step it is observed, from the partial epoch's
//    demand: a dead node's (or dead shard's) share flows to survivors before
//    the next control step.
//  - Every control period the cluster's control hook drives each node's
//    power controller against its budget, *after* the governor proposals,
//    with job priorities weighting the victim choice. With
//    control_period_s == dt_s this yields zero violations by construction.
//  - When budgets alone leave the cluster over the effective cap for two
//    epochs in a row, it walks an escalation ladder of Actuators (DVFS
//    step-down, nav admission) one notch per cooldown; ample headroom
//    walks the ladder back in reverse. Ladder moves and
//    renegotiations are recorded in the causal::DecisionLedger.
//
// Determinism: every callback runs on the simulation thread from serially
// committed state; the job ledger is an ordered map. The whole loop is
// byte-identical across exec pool sizes.
#pragma once

#include <memory>
#include <vector>

#include "govern/actuator.hpp"
#include "obs/attribution.hpp"
#include "rtrm/sharded_cluster.hpp"
#include "support/common.hpp"

namespace antarex::govern {

struct ShardedCapConfig {
  double cluster_cap_w = 0.0;  ///< required > 0: the budget to enforce
  double epoch_s = 1.0;        ///< accounting/renegotiation window
  /// Slice of the cap withheld from node budgets; transients (temperature
  /// drift, placement between control steps) eat the guard, not the cap.
  double guard_fraction = 0.08;
  /// Exponent on measured demand in the proportional split (shards and
  /// nodes alike): 1 = demand-proportional, 0 = equal shares.
  double fairness_alpha = 1.0;
};

struct ShardedCapStats {
  u64 epochs = 0;
  u64 violations = 0;  ///< epochs with mean IT power > cap
  double worst_overshoot_w = 0.0;
  double consumed_j = 0.0;  ///< integrated IT energy while attached
  u64 restricts = 0;        ///< actuator ladder escalations
  u64 relaxes = 0;
  u64 redistributions = 0;  ///< renegotiations forced by alive-set changes
};

class ShardedCapCoordinator {
 public:
  ShardedCapCoordinator(rtrm::ShardedCluster& cluster, ShardedCapConfig cfg);
  // The cluster's control hook and step observer capture this address.
  ShardedCapCoordinator(const ShardedCapCoordinator&) = delete;
  ShardedCapCoordinator& operator=(const ShardedCapCoordinator&) = delete;

  /// Escalation ladder, walked in add order on restrict and reverse on relax.
  void add_actuator(std::shared_ptr<Actuator> actuator);

  /// Install the control hook and a step observer. Valid once the nodes are
  /// added, before or between runs. The coordinator claims the cluster's
  /// control hook and must outlive its run calls.
  void attach();
  /// Stop acting and observing (the step observer stays registered but goes
  /// inert; observers are not individually removable).
  void detach();
  bool attached() const { return attached_; }

  const ShardedCapStats& stats() const { return stats_; }
  const ShardedCapConfig& config() const { return cfg_; }
  /// Current per-shard budget slices (W); they sum to the effective cap.
  const std::vector<double>& shard_budgets_w() const { return shard_budget_w_; }
  /// Budget of one node (W); 0 while the node is down.
  double node_budget_w(std::size_t node) const { return budgets_w_[node]; }
  /// External share multiplier applied to node i at the next renegotiation
  /// (default 1.0). antarex::monitor shaves a flagged node's share while an
  /// anomaly episode is open — a throttled or slow node cannot use its
  /// budget, so the headroom flows to healthy nodes. Must be > 0.
  void set_node_weight(std::size_t i, double weight);
  double node_weight(std::size_t i) const;
  /// Per-job energy ledger (key = job name), conserved to device energy.
  const obs::AttributionTable& job_energy() const { return job_energy_; }
  /// Mean IT power of the last closed epoch (0 before the first).
  double last_epoch_mean_w() const { return last_epoch_mean_w_; }

 private:
  void on_step(double now_s, double it_power_w, double dt_s);
  void on_control(double now_s);
  void close_epoch(double now_s);
  void walk_ladder(double now_s, double mean_w);
  void maybe_redistribute();  ///< renegotiate when the alive set changed
  void renegotiate();         ///< node budgets from the epoch's demand

  rtrm::ShardedCluster& cluster_;
  ShardedCapConfig cfg_;
  std::vector<std::shared_ptr<Actuator>> actuators_;
  ShardedCapStats stats_;
  std::vector<double> budgets_w_;       ///< per node
  std::vector<double> shard_budget_w_;  ///< per shard
  std::vector<double> node_epoch_j_;    ///< per-node energy this epoch
  std::vector<double> ext_weight_;      ///< set_node_weight multipliers
  std::vector<double> device_weight_;   ///< running job priority, per device
  // renegotiate() scratch, kept across epochs so a 25k-node fleet does not
  // reallocate five node- or shard-sized vectors per epoch.
  std::vector<double> prio_;          ///< heaviest job priority, per node
  std::vector<double> floor_w_;       ///< node floor, per node
  std::vector<double> weight_;        ///< node share weight, per node
  std::vector<double> shard_floor_;   ///< summed floors, per shard
  std::vector<double> shard_weight_;  ///< summed weights, per shard
  obs::AttributionTable job_energy_;

  bool attached_ = false;
  bool observer_installed_ = false;  ///< one observer per lifetime
  double epoch_j_ = 0.0;  ///< cluster energy this epoch
  double epoch_t_ = 0.0;  ///< elapsed time this epoch
  double last_epoch_mean_w_ = 0.0;
  std::size_t last_alive_ = 0;
  int over_streak_ = 0;
  int under_streak_ = 0;
  double last_actuation_s_ = -1e300;
  double last_now_s_ = 0.0;  ///< most recent sim time seen by any callback
  /// Ledger record of the last ladder move, awaiting its observed effect
  /// (the next epoch's mean power).
  u64 pending_decision_seq_ = 0;
};

}  // namespace antarex::govern
