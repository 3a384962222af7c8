// antarex::monitor — online anomaly detection over the metric stream.
//
// Per-(shard, metric) robust baselines: an EWMA of the level and an
// exponentially-weighted MAD of the deviation. A sample's z-score is
//
//   z = (x - ewma) / max(1.4826 * mad, rel_floor * |ewma|, abs_floor)
//
// (1.4826 scales MAD to a standard deviation under normality; the floors
// keep z finite on quiet streams). Baselines learn only from unflagged busy
// samples, so an anomaly cannot teach the detector that it is normal. Taught
// samples are additionally winsorized to m +- clip_z scale units: during the
// warmup window z-flags cannot veto yet, and one wild sample (a RAPL counter
// wrap, say) must not be allowed to poison the level and MAD for the tens of
// samples an EWMA needs to forget it.
//
// Four anomaly kinds map onto the fault model:
//   ThermalRunaway  temperature z above threshold
//   PowerSpike      power z above threshold (RAPL sensor glitches show up
//                   here: the sampler reads counter deltas, so a glitch
//                   offset lands in exactly one sample)
//   Throttle        progress drop with a matching power drop (a device
//                   pinned to its lowest P-state does less and draws less)
//   SlowNode        progress drop at normal power (same work rate per busy
//                   second, just slower — e.g. a degraded node)
//
// Hysteresis turns per-sample flags into episodes through the stack's one
// alert rule (support/trigger.hpp): open after 2 consecutive flagged samples
// (1 for PowerSpike — glitches are one sample), close after 3 consecutive
// quiet ones. Idle nodes (util below 0.5) are never judged; their samples
// count as quiet. The thresholds, rates and floors are fixed constants in
// detector.cpp.
//
// Memory: baselines are O(shards * metrics); per-node state exists only for
// currently-flagged nodes, capped at kMaxTracked (overflow counted). Closed
// episodes are retained up to 65536 for ground-truth evaluation.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "monitor/topic.hpp"
#include "support/common.hpp"
#include "support/trigger.hpp"

namespace antarex::monitor {

enum class AnomalyKind : u8 { ThermalRunaway, PowerSpike, Throttle, SlowNode };
constexpr std::size_t kAnomalyKindCount = 4;
const char* anomaly_kind_name(AnomalyKind k);

/// One contiguous anomaly on one node.
struct Episode {
  u32 node = 0;
  u16 shard = 0;
  AnomalyKind kind = AnomalyKind::ThermalRunaway;
  double open_t_s = 0.0;
  double close_t_s = 0.0;  ///< == open_t_s while still open
  double peak_z = 0.0;
  u32 samples = 0;  ///< flagged samples inside the episode
  bool open = false;
};

class AnomalyDetector {
 public:
  /// Called on every episode transition: opened=true right after the episode
  /// opens, opened=false right after it closes. Runs on the sim thread.
  using Hook = std::function<void(const Episode&, bool opened)>;

  /// |z| that flags a sample.
  static constexpr double kFlagZ = 4.0;
  /// Concurrently tracked flagged nodes; more are counted as overflow.
  static constexpr std::size_t kMaxTracked = 1024;

  explicit AnomalyDetector(std::size_t shards);

  void set_hook(Hook hook) { hook_ = std::move(hook); }

  /// Ingest one frame (the broker delivers every frame here, after the
  /// aggregator).
  void observe(const MetricFrame& frame);

  /// Episodes closed so far, in close order.
  const std::vector<Episode>& closed() const { return closed_; }
  /// Closed + still-open episodes (open ones last, node order).
  std::vector<Episode> episodes() const;
  std::size_t active() const { return active_; }
  u64 flagged_samples() const { return flagged_samples_; }
  u64 tracked_overflow() const { return tracked_overflow_; }
  u64 closed_overflow() const { return closed_overflow_; }

  std::size_t approx_bytes() const;

 private:
  struct Baseline {
    double m = 0.0;
    double mad = 0.0;
    u64 n = 0;
  };
  struct KindState {
    Trigger trigger;  ///< flagged samples in, episode open/close out
    Episode episode;
    u64 ledger_seq = 0;  ///< causal::DecisionLedger record awaiting close
  };
  struct NodeTrack {
    KindState kinds[kAnomalyKindCount];
  };

  Baseline& baseline(u16 shard, Metric m) {
    return baselines_[static_cast<std::size_t>(shard) * kMetricCount +
                      static_cast<std::size_t>(m)];
  }
  static double scale_for(const Baseline& b, Metric m);
  static double z_for(const Baseline& b, Metric m, double x);
  static void update_baseline(Baseline& b, Metric m, double x);
  void step_kind(NodeTrack& track, AnomalyKind kind, bool flagged, double z,
                 const MetricFrame& frame);
  void open_episode(KindState& ks, AnomalyKind kind, double z,
                    const MetricFrame& frame);
  void close_episode(KindState& ks);

  std::size_t shards_;
  Hook hook_;
  std::vector<Baseline> baselines_;  ///< shards * metrics
  std::map<u32, NodeTrack> tracked_;
  std::vector<Episode> closed_;
  std::size_t active_ = 0;
  u64 flagged_samples_ = 0;
  u64 tracked_overflow_ = 0;
  u64 closed_overflow_ = 0;
};

}  // namespace antarex::monitor
