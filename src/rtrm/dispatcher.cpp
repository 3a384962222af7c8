#include "rtrm/dispatcher.hpp"

#include <algorithm>
#include <cmath>

#include "telemetry/telemetry.hpp"

namespace antarex::rtrm {

Dispatcher::Dispatcher(PlacementPolicy policy, bool backfill)
    : policy_(policy), backfill_(backfill) {
  ANTAREX_REQUIRE(policy_ != PlacementPolicy::EnergyAware,
                  "Dispatcher: no EnergyAware placement (use ShardedCluster)");
}

void Dispatcher::submit(Job job) {
  ANTAREX_REQUIRE(!job.profiles.empty(), "Dispatcher: job with no device profiles");
  job.state = JobState::Queued;
  queue_.push_back(std::move(job));
  TELEMETRY_COUNT("rtrm.jobs.submitted", 1);
}

Device* Dispatcher::choose_device(std::vector<Node>& nodes, const Job& job) const {
  Device* best = nullptr;
  double best_score = 0.0;
  for (auto& node : nodes) {
    if (node.failed()) continue;  // a downed node accepts no work
    for (auto& d : node.devices()) {
      if (d.busy() || !job.can_run_on(d.spec().type)) continue;
      if (policy_ == PlacementPolicy::FirstFit) return &d;
      // FastestFirst: shortest predicted time at the current P-state.
      const power::WorkloadModel& w = job.profile(d.spec().type);
      const double score =
          w.execution_time_s(d.op()) * d.slowdown() * job.units_remaining();
      if (!best || score < best_score) {
        best = &d;
        best_score = score;
      }
    }
  }
  return best;
}

void Dispatcher::start(Job job, Device& device, double now_s) {
  job.state = JobState::Running;
  job.start_time_s = now_s;
  job.device_name = device.name();
  // Resume from the last checkpoint: only the unfinished units are assigned.
  device.assign(job.profile(device.spec().type), job.units_remaining(), job.id);
  emit("dispatch", job.id, now_s);
  running_.push_back(std::move(job));
  TELEMETRY_COUNT("rtrm.jobs.dispatched", 1);
}

double Dispatcher::predicted_remaining_s(const Device& d) {
  if (!d.busy()) return 0.0;
  return d.units_remaining() * d.workload().execution_time_s(d.op()) *
         d.slowdown();
}

void Dispatcher::place(std::vector<Node>& nodes, double now_s) {
  TELEMETRY_SPAN("rtrm.dispatch");
  // FCFS over the *eligible* queue: jobs still in crash backoff are skipped
  // without blocking the jobs behind them.
  auto first_eligible = [&]() {
    return std::find_if(queue_.begin(), queue_.end(), [&](const Job& j) {
      return j.not_before_s <= now_s;
    });
  };
  while (true) {
    auto head_it = first_eligible();
    if (head_it == queue_.end()) break;
    Job& head = *head_it;
    Device* d = choose_device(nodes, head);
    if (d) {
      start(std::move(head), *d, now_s);
      queue_.erase(head_it);
      continue;
    }
    if (!backfill_) break;  // plain FCFS: head blocks

    // EASY backfill. Reserve for the head the busy compatible device with
    // the shortest predicted remaining time.
    const Device* reserved = nullptr;
    double reservation_s = 0.0;
    for (auto& node : nodes) {
      if (node.failed()) continue;
      for (auto& dev : node.devices()) {
        if (!head.can_run_on(dev.spec().type)) continue;
        const double rem = predicted_remaining_s(dev);
        if (!reserved || rem < reservation_s) {
          reserved = &dev;
          reservation_s = rem;
        }
      }
    }
    if (!reserved) break;  // no compatible device exists at all

    // Try to start one later job without endangering the reservation: it may
    // use any free device other than the reserved one freely; the reserved
    // device itself is busy (that is why the head waits), so "other free
    // devices" is the whole opportunity set.
    bool placed_any = false;
    for (auto it = std::next(head_it); it != queue_.end(); ++it) {
      if (it->not_before_s > now_s) continue;  // backoff: not eligible yet
      Device* fit = choose_device(nodes, *it);
      if (!fit || fit == reserved) continue;
      start(std::move(*it), *fit, now_s);
      queue_.erase(it);
      ++backfilled_;
      TELEMETRY_COUNT("rtrm.jobs.backfilled", 1);
      placed_any = true;
      break;  // re-evaluate from the head after each placement
    }
    if (!placed_any) break;
  }
  TELEMETRY_GAUGE("rtrm.queue_depth", static_cast<double>(queue_.size()));
}

void Dispatcher::on_finished(u64 job_id, double now_s) {
  const auto it = std::find_if(running_.begin(), running_.end(),
                               [&](const Job& j) { return j.id == job_id; });
  ANTAREX_REQUIRE(it != running_.end(),
                  "Dispatcher: completion for a job that is not running");
  it->state = JobState::Done;
  it->finish_time_s = now_s;
  it->units_done = it->units;
  TELEMETRY_COUNT("rtrm.jobs.completed", 1);
  emit("finish", job_id, now_s);
  done_.push_back(std::move(*it));
  running_.erase(it);
}

void Dispatcher::on_node_failed(
    const std::vector<std::pair<u64, double>>& interrupted, double now_s) {
  for (const auto& [job_id, units_unfinished] : interrupted) {
    const auto it = std::find_if(running_.begin(), running_.end(),
                                 [&](const Job& j) { return j.id == job_id; });
    ANTAREX_REQUIRE(it != running_.end(),
                    "Dispatcher: crash report for a job that is not running");
    Job job = std::move(*it);
    running_.erase(it);

    // Roll progress back to the last durable checkpoint. The device reports
    // units still unfinished for *this* assignment; anything beyond the
    // checkpoint granularity is lost.
    const double assigned = job.units_remaining();
    const double progressed = std::max(0.0, assigned - units_unfinished);
    if (job.checkpoint_units > 0.0)
      job.units_done +=
          std::floor(progressed / job.checkpoint_units) * job.checkpoint_units;

    ++job.attempts;
    if (job.attempts > job.max_attempts) {
      job.state = JobState::Failed;
      job.finish_time_s = now_s;
      TELEMETRY_COUNT("rtrm.jobs.failed", 1);
      emit("fail", job_id, now_s);
      failed_.push_back(std::move(job));
      continue;
    }
    job.state = JobState::Queued;
    job.device_name.clear();
    job.not_before_s =
        now_s + backoff_base_s_ * std::ldexp(1.0, job.attempts - 1);
    ++requeued_;
    TELEMETRY_COUNT("rtrm.jobs.requeued", 1);
    emit("requeue", job_id, now_s);
    queue_.push_back(std::move(job));
  }
}

}  // namespace antarex::rtrm
