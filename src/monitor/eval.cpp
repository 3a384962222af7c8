#include "monitor/eval.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

namespace antarex::monitor {

namespace {

/// Ground truth starting before this never qualifies: the detector's
/// baselines are still warming.
constexpr double kWarmupEndS = 12.0;
constexpr u64 kMinSamples = 3;  ///< sampling instants inside a qualifying GT
constexpr double kMatchSlackS = 3.0;  ///< overlap grace (hysteresis + lag)

/// Closed-interval overlap with symmetric slack.
bool overlaps(double a1, double a2, double b1, double b2, double slack) {
  return a1 - slack <= b2 && b1 - slack <= a2;
}

/// Sampling instants (multiples of the period) strictly inside [a, b].
u64 samples_inside(double a, double b, double period) {
  if (b <= a) return 0;
  const auto lo = static_cast<i64>(std::floor(a / period));
  const auto hi = static_cast<i64>(std::floor(b / period));
  return static_cast<u64>(std::max<i64>(0, hi - lo));
}

}  // namespace

std::vector<GroundTruthEpisode> ground_truth(const fault::FaultSchedule& sched,
                                             double sample_period_s) {
  const double horizon_s = sched.horizon_s;
  ANTAREX_REQUIRE(horizon_s > 0.0, "monitor::ground_truth: horizon not set");
  ANTAREX_REQUIRE(sample_period_s > 0.0,
                  "monitor::ground_truth: sample period must be positive");
  std::vector<GroundTruthEpisode> out;
  std::map<u32, double> open_slow;                  // node -> start
  std::map<std::pair<u32, u32>, double> open_glitch;  // (node, dev) -> start

  for (const fault::FaultEvent& e : sched.events) {
    switch (e.kind) {
      case fault::FaultKind::ThermalThrottle:
        out.push_back(GroundTruthEpisode{
            e.node, AnomalyKind::Throttle, e.at_s,
            std::min(e.at_s + e.duration_s, horizon_s), false});
        break;
      case fault::FaultKind::SlowNode:
        open_slow[e.node] = e.at_s;
        break;
      case fault::FaultKind::SlowNodeEnd: {
        const auto it = open_slow.find(e.node);
        if (it == open_slow.end()) break;
        out.push_back(GroundTruthEpisode{e.node, AnomalyKind::SlowNode,
                                         it->second, e.at_s, false});
        open_slow.erase(it);
        break;
      }
      case fault::FaultKind::SensorGlitch:
        open_glitch[{e.node, e.device}] = e.at_s;
        break;
      case fault::FaultKind::GlitchClear: {
        const auto it = open_glitch.find({e.node, e.device});
        if (it == open_glitch.end()) break;
        out.push_back(GroundTruthEpisode{e.node, AnomalyKind::PowerSpike,
                                         it->second, e.at_s, false});
        open_glitch.erase(it);
        break;
      }
      default:
        break;  // crash/repair: a dead node goes silent, not anomalous
    }
  }
  for (const auto& [node, start] : open_slow)
    out.push_back(GroundTruthEpisode{node, AnomalyKind::SlowNode, start,
                                     horizon_s, false});
  for (const auto& [key, start] : open_glitch)
    out.push_back(GroundTruthEpisode{key.first, AnomalyKind::PowerSpike, start,
                                     horizon_s, false});

  for (GroundTruthEpisode& g : out) {
    g.qualifies =
        g.start_s >= kWarmupEndS &&
        samples_inside(g.start_s, std::min(g.end_s, horizon_s),
                       sample_period_s) >= kMinSamples;
  }
  std::sort(out.begin(), out.end(),
            [](const GroundTruthEpisode& a, const GroundTruthEpisode& b) {
              if (a.start_s != b.start_s) return a.start_s < b.start_s;
              return a.node < b.node;
            });
  return out;
}

EvalResult evaluate(const std::vector<GroundTruthEpisode>& truth,
                    const std::vector<Episode>& detections) {
  EvalResult result;
  const double slack = kMatchSlackS;

  for (const GroundTruthEpisode& g : truth) {
    KindScore& score = result.kinds[static_cast<std::size_t>(g.kind)];
    ++score.gt_total;
    if (g.qualifies) ++score.gt_qualifying;
  }
  for (const Episode& d : detections)
    ++result.kinds[static_cast<std::size_t>(d.kind)].detected;

  // A throttle and a slowdown co-occurring on one node blend their power
  // signatures, so a drop-kind detection there may legitimately carry either
  // label: cross-kind matches are allowed exactly when the matched GT
  // overlaps a GT of the detection's own kind on the same node.
  const auto cross_ok = [&](const Episode& d, const GroundTruthEpisode& g) {
    const bool drop_pair =
        (d.kind == AnomalyKind::Throttle && g.kind == AnomalyKind::SlowNode) ||
        (d.kind == AnomalyKind::SlowNode && g.kind == AnomalyKind::Throttle);
    if (!drop_pair) return false;
    for (const GroundTruthEpisode& other : truth)
      if (other.node == g.node && other.kind == d.kind &&
          overlaps(other.start_s, other.end_s, g.start_s, g.end_s, 0.0))
        return true;
    return false;
  };

  std::vector<bool> gt_hit(truth.size(), false);
  for (const Episode& d : detections) {
    bool matched = false;
    for (std::size_t i = 0; i < truth.size(); ++i) {
      const GroundTruthEpisode& g = truth[i];
      if (g.node != d.node) continue;
      if (!overlaps(d.open_t_s, d.close_t_s, g.start_s, g.end_s, slack))
        continue;
      if (g.kind != d.kind && !cross_ok(d, g)) continue;
      matched = true;
      gt_hit[i] = true;
    }
    if (matched)
      ++result.kinds[static_cast<std::size_t>(d.kind)].true_positives;
  }
  for (std::size_t i = 0; i < truth.size(); ++i)
    if (gt_hit[i] && truth[i].qualifies)
      ++result.kinds[static_cast<std::size_t>(truth[i].kind)].gt_matched;

  return result;
}

fault::FaultSchedule strip_warmup_faults(fault::FaultSchedule sched) {
  std::vector<fault::FaultEvent> kept;
  std::vector<std::pair<u32, u32>> open_glitch;  // dropped, awaiting clears
  std::vector<u32> open_slow;
  for (const fault::FaultEvent& e : sched.events) {
    bool drop = false;
    switch (e.kind) {
      case fault::FaultKind::SensorGlitch:
        if (e.at_s < kWarmupEndS) {
          drop = true;
          open_glitch.emplace_back(e.node, e.device);
        }
        break;
      case fault::FaultKind::GlitchClear: {
        const auto it = std::find(open_glitch.begin(), open_glitch.end(),
                                  std::make_pair(e.node, e.device));
        if (it != open_glitch.end()) {
          drop = true;
          open_glitch.erase(it);
        }
        break;
      }
      case fault::FaultKind::SlowNode:
        if (e.at_s < kWarmupEndS) {
          drop = true;
          open_slow.push_back(e.node);
        }
        break;
      case fault::FaultKind::SlowNodeEnd: {
        const auto it = std::find(open_slow.begin(), open_slow.end(), e.node);
        if (it != open_slow.end()) {
          drop = true;
          open_slow.erase(it);
        }
        break;
      }
      default:  // throttle is self-contained; crash/repair produce no GT
        drop = e.at_s < kWarmupEndS;
        break;
    }
    if (!drop) kept.push_back(e);
  }
  sched.events = std::move(kept);
  return sched;
}

}  // namespace antarex::monitor
