// antarex::monitor — detector evaluation against fault ground truth.
//
// antarex::fault knows exactly which node was throttled, slowed, or glitched
// and when, so the anomaly detector can be scored like a classifier instead
// of eyeballed. The pipeline:
//
//   FaultSchedule ──▶ ground_truth()  (paired events -> labeled intervals)
//   AnomalyDetector::episodes() ──▶ evaluate()  (interval matching)
//
// Recall counts only *qualifying* ground-truth episodes: ones starting after
// the detector's warmup window with at least three sampling instants of the
// scored fabric inside the run — an episode the detector never got a judged
// sample of is not a miss, it is unobservable. Precision counts a detection as a true
// positive when it overlaps (with 3 s of grace on both sides) a
// same-kind episode on the same node; where a throttle and a slowdown
// overlap on one node the power signature is genuinely ambiguous, so either
// kind matches there.
#pragma once

#include <vector>

#include "fault/schedule.hpp"
#include "monitor/detector.hpp"

namespace antarex::monitor {

struct GroundTruthEpisode {
  u32 node = 0;
  AnomalyKind kind = AnomalyKind::Throttle;
  double start_s = 0.0;
  double end_s = 0.0;
  bool qualifies = false;  ///< counts toward the recall denominator
};

struct KindScore {
  u64 gt_total = 0;       ///< ground-truth episodes of this kind
  u64 gt_qualifying = 0;  ///< ... that qualify for recall
  u64 gt_matched = 0;     ///< qualifying GT with >= 1 matching detection
  u64 detected = 0;       ///< detector episodes of this kind
  u64 true_positives = 0; ///< ... matching some GT (ambiguity-aware)

  /// 1.0 when nothing was detected (no claims, none wrong).
  double precision() const {
    return detected ? static_cast<double>(true_positives) /
                          static_cast<double>(detected)
                    : 1.0;
  }
  /// 1.0 when nothing qualified (nothing observable to find).
  double recall() const {
    return gt_qualifying ? static_cast<double>(gt_matched) /
                               static_cast<double>(gt_qualifying)
                         : 1.0;
  }
};

struct EvalResult {
  KindScore kinds[kAnomalyKindCount];
  const KindScore& of(AnomalyKind k) const {
    return kinds[static_cast<std::size_t>(k)];
  }
};

/// Fold a schedule's paired events into labeled intervals:
/// ThermalThrottle (+duration_s) -> Throttle, SlowNode/SlowNodeEnd ->
/// SlowNode, SensorGlitch/GlitchClear -> PowerSpike (the glitch offset shows
/// up as a one-sample spike at both edges). Crash/repair produce no episode —
/// a dead node stops publishing rather than looking anomalous. Unended
/// episodes run to the schedule's horizon, which must be set. Sampling
/// instants for qualification are the multiples of `sample_period_s`, the
/// FabricConfig::sample_period_s of the run being scored.
std::vector<GroundTruthEpisode> ground_truth(const fault::FaultSchedule& sched,
                                             double sample_period_s);

/// Score detector episodes against the ground truth.
EvalResult evaluate(const std::vector<GroundTruthEpisode>& truth,
                    const std::vector<Episode>& detections);

/// Drop fault episodes that begin inside the detector's warmup window (paired
/// end events of dropped openers go with them; throttles carry their own
/// duration). The detector's quality bounds are steady-state properties:
/// baselines must warm on healthy traffic before z-flags can veto
/// contaminated samples, and a throttle that spans the cold-start window is
/// indistinguishable from normal load to a fresh baseline. Scenario builders
/// (the property suite, bench_monitor) use this to keep bootstrap out of the
/// scored window, matching the eval's refusal to judge detections there.
fault::FaultSchedule strip_warmup_faults(fault::FaultSchedule sched);

}  // namespace antarex::monitor
