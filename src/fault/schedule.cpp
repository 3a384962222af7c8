#include "fault/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "support/rng.hpp"

namespace antarex::fault {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::NodeCrash: return "crash";
    case FaultKind::NodeRepair: return "repair";
    case FaultKind::SensorGlitch: return "glitch";
    case FaultKind::GlitchClear: return "glitch-clear";
    case FaultKind::ThermalThrottle: return "throttle";
    case FaultKind::SlowNode: return "slow";
    case FaultKind::SlowNodeEnd: return "slow-end";
  }
  return "?";
}

std::string FaultSchedule::to_text() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "schedule seed=%llu horizon=%.17g n=%zu\n",
                static_cast<unsigned long long>(seed), horizon_s,
                events.size());
  out += line;
  for (const FaultEvent& e : events) {
    std::snprintf(line, sizeof(line),
                  "%.17g %s node=%u dev=%u mag=%.17g dur=%.17g\n", e.at_s,
                  fault_kind_name(e.kind), e.node, e.device, e.magnitude,
                  e.duration_s);
    out += line;
  }
  return out;
}

namespace {

constexpr double kRepairSigma = 0.25;  ///< lognormal sigma of the repair time

/// One generator per (seed, node, device, kind): streams stay independent
/// when the topology or the enabled fault classes change.
Rng stream(u64 seed, std::size_t node, std::size_t device, FaultKind kind) {
  SplitMix64 mix(seed);
  u64 s = mix.next() ^ (0x9e3779b97f4a7c15ULL * (static_cast<u64>(node) + 1));
  s ^= 0xbf58476d1ce4e5b9ULL * (static_cast<u64>(device) + 1);
  s ^= 0x94d049bb133111ebULL * (static_cast<u64>(kind) + 1);
  return Rng(SplitMix64(s).next());
}

/// Sequential begin/end timeline: interarrival from `next_gap`, episode
/// length from `next_len`; the next gap starts after the episode ends, so
/// episodes on one timeline never overlap.
template <typename Gap, typename Len, typename Emit>
void timeline(double horizon_s, Gap next_gap, Len next_len, Emit emit) {
  double t = 0.0;
  while (true) {
    t += next_gap();
    if (t >= horizon_s) return;
    const double len = next_len();
    emit(t, len);
    t += len;
  }
}

}  // namespace

FaultSchedule generate_schedule(const FaultModel& model, std::size_t nodes,
                                std::size_t devices_per_node, double horizon_s,
                                u64 seed) {
  ANTAREX_REQUIRE(horizon_s > 0.0, "generate_schedule: non-positive horizon");
  ANTAREX_REQUIRE(nodes > 0, "generate_schedule: no nodes");
  FaultSchedule out;
  out.seed = seed;
  out.horizon_s = horizon_s;

  auto push = [&](double t, FaultKind kind, std::size_t node,
                  std::size_t device, double mag, double dur) {
    FaultEvent e;
    e.at_s = t;
    e.kind = kind;
    e.node = static_cast<u32>(node);
    e.device = static_cast<u32>(device);
    e.magnitude = mag;
    e.duration_s = dur;
    out.events.push_back(e);
  };

  for (std::size_t n = 0; n < nodes; ++n) {
    if (model.crash_mtbf_s > 0.0) {
      Rng rng = stream(seed, n, 0, FaultKind::NodeCrash);
      timeline(
          horizon_s,
          [&] { return rng.weibull(model.crash_weibull_shape, model.crash_mtbf_s); },
          [&] {
            const double mu = std::log(std::max(1e-9, model.repair_mean_s)) -
                              0.5 * kRepairSigma * kRepairSigma;
            return rng.lognormal(mu, kRepairSigma);
          },
          [&](double t, double len) {
            push(t, FaultKind::NodeCrash, n, 0, 0.0, len);
            push(t + len, FaultKind::NodeRepair, n, 0, 0.0, 0.0);
          });
    }
    if (model.slowdown_rate_hz > 0.0) {
      Rng rng = stream(seed, n, 0, FaultKind::SlowNode);
      timeline(
          horizon_s, [&] { return rng.exponential(model.slowdown_rate_hz); },
          [&] { return model.slowdown_duration_s; },
          [&](double t, double len) {
            push(t, FaultKind::SlowNode, n, 0, model.slowdown_factor, len);
            push(t + len, FaultKind::SlowNodeEnd, n, 0, 1.0, 0.0);
          });
    }
    for (std::size_t d = 0; d < devices_per_node; ++d) {
      if (model.glitch_rate_hz > 0.0) {
        Rng rng = stream(seed, n, d, FaultKind::SensorGlitch);
        timeline(
            horizon_s, [&] { return rng.exponential(model.glitch_rate_hz); },
            [&] { return model.glitch_duration_s; },
            [&](double t, double len) {
              // Signed offset: glitches read high or low with equal odds.
              const double sign = rng.bernoulli(0.5) ? 1.0 : -1.0;
              push(t, FaultKind::SensorGlitch, n, d,
                   sign * model.glitch_magnitude_j, len);
              push(t + len, FaultKind::GlitchClear, n, d, 0.0, 0.0);
            });
      }
      if (model.throttle_rate_hz > 0.0) {
        Rng rng = stream(seed, n, d, FaultKind::ThermalThrottle);
        timeline(
            horizon_s, [&] { return rng.exponential(model.throttle_rate_hz); },
            [&] { return model.throttle_duration_s; },
            [&](double t, double len) {
              push(t, FaultKind::ThermalThrottle, n, d, 0.0, len);
            });
      }
    }
  }

  std::stable_sort(out.events.begin(), out.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     if (a.at_s != b.at_s) return a.at_s < b.at_s;
                     if (a.node != b.node) return a.node < b.node;
                     if (a.device != b.device) return a.device < b.device;
                     return static_cast<int>(a.kind) < static_cast<int>(b.kind);
                   });
  return out;
}

}  // namespace antarex::fault
