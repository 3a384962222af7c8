#include "govern/sharded_cap.hpp"

#include <algorithm>
#include <cmath>

#include "causal/ledger.hpp"
#include "support/strings.hpp"
#include "telemetry/telemetry.hpp"

namespace antarex::govern {

namespace {
constexpr int kPatienceEpochs = 2;  ///< over-cap epochs before escalating
constexpr double kCooldownS = 4.0;  ///< min seconds between ladder moves
/// Relax when the epoch mean sits below cap * (1 - kRelaxMargin).
constexpr double kRelaxMargin = 0.25;
}  // namespace

ShardedCapCoordinator::ShardedCapCoordinator(rtrm::ShardedCluster& cluster,
                                             ShardedCapConfig cfg)
    : cluster_(cluster), cfg_(cfg) {
  ANTAREX_REQUIRE(cfg_.cluster_cap_w > 0.0,
                  "ShardedCapCoordinator: non-positive cluster cap");
  ANTAREX_REQUIRE(cfg_.epoch_s > 0.0,
                  "ShardedCapCoordinator: non-positive epoch");
  ANTAREX_REQUIRE(cfg_.guard_fraction >= 0.0 && cfg_.guard_fraction < 1.0,
                  "ShardedCapCoordinator: guard_fraction must be in [0, 1)");
  ANTAREX_REQUIRE(cfg_.fairness_alpha >= 0.0,
                  "ShardedCapCoordinator: negative fairness_alpha");
}

void ShardedCapCoordinator::add_actuator(std::shared_ptr<Actuator> actuator) {
  ANTAREX_REQUIRE(actuator != nullptr, "ShardedCapCoordinator: null actuator");
  actuators_.push_back(std::move(actuator));
}

void ShardedCapCoordinator::attach() {
  ANTAREX_REQUIRE(!attached_, "ShardedCapCoordinator: already attached");
  const std::size_t n = cluster_.node_count();
  ANTAREX_REQUIRE(n > 0, "ShardedCapCoordinator: cluster has no nodes");
  budgets_w_.assign(n, 0.0);
  node_epoch_j_.assign(n, 0.0);
  device_weight_.assign(cluster_.device_count(), 1.0);
  epoch_j_ = 0.0;
  epoch_t_ = 0.0;
  over_streak_ = under_streak_ = 0;
  last_alive_ = n - cluster_.nodes_down();
  attached_ = true;
  renegotiate();  // initial budgets from floors (no demand observed yet)

  cluster_.set_control_hook([this](rtrm::ShardedCluster&, double now_s) {
    if (attached_) on_control(now_s);
  });
  // Observers are not removable, so install exactly one across the
  // coordinator's lifetime — a re-attach after detach() must not end up with
  // two live observers double-counting every step.
  if (!observer_installed_) {
    observer_installed_ = true;
    cluster_.add_step_observer([this](double now_s, double p_w, double dt_s) {
      if (attached_) on_step(now_s, p_w, dt_s);
    });
  }
}

void ShardedCapCoordinator::detach() {
  if (!attached_) return;
  if (epoch_t_ > 0.0) close_epoch(cluster_.now_s());  // partial final epoch
  attached_ = false;
  cluster_.set_control_hook(nullptr);
}

void ShardedCapCoordinator::on_control(double now_s) {
  last_now_s_ = now_s;
  maybe_redistribute();
  // Victim ordering by job priority: devices running high-priority jobs are
  // clamped last. The running set is committed serially on this thread.
  std::fill(device_weight_.begin(), device_weight_.end(), 1.0);
  const rtrm::ShardedDispatcher& disp = cluster_.dispatcher();
  for (const auto& job : disp.running_jobs())
    if (job.priority > 0.0) device_weight_[disp.device_of(job.id)] = job.priority;
  for (std::size_t i = 0; i < budgets_w_.size(); ++i) {
    if (cluster_.node_failed(i) || budgets_w_[i] <= 0.0) continue;
    cluster_.apply_node_budget(i, budgets_w_[i], &device_weight_);
  }
}

// React to crashes/repairs immediately, not at the epoch boundary: a dead
// node's share must flow to survivors before the next control step, and a
// repaired node needs a (floor) budget before it is allowed to draw. Called
// from on_control (ahead of the clamp, so no unbudgeted power is ever drawn)
// and from on_step (covering faults applied by earlier step observers).
void ShardedCapCoordinator::maybe_redistribute() {
  const std::size_t alive = cluster_.node_count() - cluster_.nodes_down();
  if (alive == last_alive_) return;
  ++stats_.redistributions;
  TELEMETRY_COUNT("govern.redistributions", 1);

  causal::DecisionRecord rec;
  rec.t_s = last_now_s_;
  rec.actor = "govern.coordinator";
  rec.action = "renegotiate";
  rec.cause = format("alive set changed %zu -> %zu", last_alive_, alive);
  rec.cause_value = static_cast<double>(alive);
  const u64 seq = causal::DecisionLedger::global().record(std::move(rec));

  last_alive_ = alive;
  renegotiate();

  double budget_sum = 0.0;
  for (double b : budgets_w_) budget_sum += b;
  causal::DecisionLedger::global().note_effect(
      seq, format("budgets resplit: %.1f W across %zu nodes", budget_sum,
                  alive),
      budget_sum);
}

void ShardedCapCoordinator::on_step(double now_s, double it_power_w,
                                    double dt_s) {
  last_now_s_ = now_s;
  maybe_redistribute();

  stats_.consumed_j += it_power_w * dt_s;
  epoch_j_ += it_power_w * dt_s;
  epoch_t_ += dt_s;
  // Summed per step rather than differenced from the nodes' running energy
  // counters, whose low-order bits a long run would cost the epoch mean.
  for (std::size_t i = 0; i < node_epoch_j_.size(); ++i)
    node_epoch_j_[i] += cluster_.node_power_w(i) * dt_s;

  // Per-job ledger: each busy device's draw goes to the job it is running.
  // (Node base power stays unattributed — it is not any job's doing.)
  const rtrm::ShardedDispatcher& disp = cluster_.dispatcher();
  for (const auto& job : disp.running_jobs())
    job_energy_.add(job.name,
                    cluster_.device_power_w(disp.device_of(job.id)) * dt_s,
                    dt_s);

  if (epoch_t_ + 1e-9 >= cfg_.epoch_s) close_epoch(now_s);
}

void ShardedCapCoordinator::close_epoch(double now_s) {
  const double mean_w = epoch_t_ > 0.0 ? epoch_j_ / epoch_t_ : 0.0;
  last_epoch_mean_w_ = mean_w;
  ++stats_.epochs;

  // The observed effect of the previous epoch's ladder move is this epoch's
  // mean power — close that decision's loop in the provenance ledger.
  if (pending_decision_seq_ != 0) {
    causal::DecisionLedger::global().note_effect(
        pending_decision_seq_, format("next epoch mean %.1f W", mean_w),
        mean_w);
    pending_decision_seq_ = 0;
  }

  if (mean_w > cfg_.cluster_cap_w + 1e-9) {
    ++stats_.violations;
    stats_.worst_overshoot_w =
        std::max(stats_.worst_overshoot_w, mean_w - cfg_.cluster_cap_w);
    TELEMETRY_COUNT("govern.cap_violations", 1);
  }
  TELEMETRY_GAUGE("govern.epoch_mean_w", mean_w);
  TELEMETRY_GAUGE("govern.cap_headroom_w", cfg_.cluster_cap_w - mean_w);

  renegotiate();
  epoch_j_ = 0.0;
  epoch_t_ = 0.0;
  std::fill(node_epoch_j_.begin(), node_epoch_j_.end(), 0.0);
  walk_ladder(now_s, mean_w);
}

// Escalation ladder: budgets failing to keep the mean under the effective cap
// for kPatienceEpochs consecutive epochs means the plant needs a coarser
// knob. Ample headroom walks back in reverse order.
void ShardedCapCoordinator::walk_ladder(double now_s, double mean_w) {
  const double eff_cap = cfg_.cluster_cap_w * (1.0 - cfg_.guard_fraction);
  const double relax_w = cfg_.cluster_cap_w * (1.0 - kRelaxMargin);
  if (mean_w > eff_cap) {
    ++over_streak_;
    under_streak_ = 0;
  } else if (mean_w < relax_w) {
    ++under_streak_;
    over_streak_ = 0;
  } else {
    over_streak_ = under_streak_ = 0;
  }
  if (now_s - last_actuation_s_ < kCooldownS) return;

  const auto record = [&](const std::string& action, std::string cause) {
    causal::DecisionRecord rec;
    rec.t_s = now_s;
    rec.actor = "govern.coordinator";
    rec.action = action;
    rec.cause = std::move(cause);
    rec.cause_value = mean_w;
    pending_decision_seq_ =
        causal::DecisionLedger::global().record(std::move(rec));
    last_actuation_s_ = now_s;
  };
  if (over_streak_ >= kPatienceEpochs) {
    for (auto& a : actuators_)
      if (a->restrict()) {
        ++stats_.restricts;
        record("restrict:" + a->name(),
               format("epoch mean %.1f W > effective cap %.1f W for %d epochs",
                      mean_w, eff_cap, over_streak_));
        over_streak_ = 0;
        break;
      }
  } else if (under_streak_ >= kPatienceEpochs) {
    for (auto it = actuators_.rbegin(); it != actuators_.rend(); ++it)
      if ((*it)->relax()) {
        ++stats_.relaxes;
        record("relax:" + (*it)->name(),
               format("epoch mean %.1f W under %.1f W (relax margin) for %d "
                      "epochs",
                      mean_w, relax_w, under_streak_));
        under_streak_ = 0;
        break;
      }
  }
}

void ShardedCapCoordinator::set_node_weight(std::size_t i, double weight) {
  ANTAREX_REQUIRE(i < cluster_.node_count(),
                  "ShardedCapCoordinator: node weight index out of range");
  ANTAREX_REQUIRE(weight > 0.0,
                  "ShardedCapCoordinator: node weight must be > 0");
  if (ext_weight_.size() < cluster_.node_count())
    ext_weight_.resize(cluster_.node_count(), 1.0);
  ext_weight_[i] = weight;
}

double ShardedCapCoordinator::node_weight(std::size_t i) const {
  return i < ext_weight_.size() ? ext_weight_[i] : 1.0;
}

void ShardedCapCoordinator::renegotiate() {
  const std::size_t n = cluster_.node_count();
  const std::size_t n_shards = cluster_.shard_count();
  budgets_w_.assign(n, 0.0);
  shard_budget_w_.assign(n_shards, 0.0);
  const double eff_cap = cfg_.cluster_cap_w * (1.0 - cfg_.guard_fraction);

  // Node priority weight: the heaviest-priority job currently on the node.
  prio_.assign(n, 1.0);
  const rtrm::ShardedDispatcher& disp = cluster_.dispatcher();
  for (const auto& job : disp.running_jobs()) {
    if (job.priority <= 0.0) continue;
    double& p = prio_[cluster_.node_of_device(disp.device_of(job.id))];
    p = std::max(p, job.priority);
  }

  // Pass 1: per-node floors and weights, aggregated per shard. Demand is the
  // mean draw over the epoch so far (the floor before any step is seen).
  floor_w_.assign(n, 0.0);
  weight_.assign(n, 0.0);
  shard_floor_.assign(n_shards, 0.0);
  shard_weight_.assign(n_shards, 0.0);
  double floor_total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (cluster_.node_failed(i)) continue;  // dead: zero budget
    floor_w_[i] = cluster_.node_floor_w(i);
    const double mean =
        epoch_t_ > 0.0 ? node_epoch_j_[i] / epoch_t_ : floor_w_[i];
    const double demand = std::max(mean, floor_w_[i]);
    weight_[i] =
        std::pow(demand, cfg_.fairness_alpha) * prio_[i] * node_weight(i);
    const std::size_t s = cluster_.shard_of_node(i);
    shard_floor_[s] += floor_w_[i];
    shard_weight_[s] += weight_[i];
    floor_total += floor_w_[i];
  }
  if (floor_total <= 0.0) return;  // every node down: nothing draws power

  if (eff_cap <= floor_total) {
    // Infeasible even at idle: scale the floors. Budgets still sum to the
    // effective cap (conservation), controllers pin everything to P-state 0.
    for (std::size_t i = 0; i < n; ++i)
      budgets_w_[i] = eff_cap * floor_w_[i] / floor_total;
    for (std::size_t s = 0; s < n_shards; ++s)
      shard_budget_w_[s] = eff_cap * shard_floor_[s] / floor_total;
    return;
  }

  // Pass 2: split the distributable slice across shards by aggregate weight,
  // then within each shard across its alive nodes the same way. Weights are
  // positive for every alive node, so a shard with none alive gets nothing.
  const double distributable = eff_cap - floor_total;
  double weight_total = 0.0;
  for (std::size_t s = 0; s < n_shards; ++s) weight_total += shard_weight_[s];
  for (std::size_t s = 0; s < n_shards; ++s) {
    if (shard_weight_[s] <= 0.0) continue;
    const double shard_slice =
        distributable * (shard_weight_[s] / weight_total);
    shard_budget_w_[s] = shard_floor_[s] + shard_slice;
    const auto [first, last] = cluster_.shard_node_range(s);
    for (std::size_t i = first; i < last; ++i) {
      if (cluster_.node_failed(i)) continue;
      budgets_w_[i] =
          floor_w_[i] + shard_slice * (weight_[i] / shard_weight_[s]);
    }
  }
}

}  // namespace antarex::govern
