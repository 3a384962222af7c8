#include "monitor/detector.hpp"

#include <algorithm>
#include <cmath>

#include "causal/ledger.hpp"
#include "support/strings.hpp"
#include "telemetry/telemetry.hpp"

namespace antarex::monitor {

namespace {

// Power z below -this marks a progress drop as Throttle, else SlowNode.
constexpr double kPowerDropZ = 2.0;
// Open after 2 consecutive flags, close after 3 consecutive quiet samples;
// PowerSpike opens immediately (glitches are one sample).
constexpr TriggerRule kEpisodeRule{2, 3};
constexpr TriggerRule kSpikeRule{1, 3};
constexpr u64 kWarmupSamples = 8;  // baseline samples before judging a stream
constexpr double kMinUtil = 0.5;   // only judge nodes at least this busy
constexpr double kEwmaAlpha = 0.05;
constexpr double kMadBeta = 0.05;
constexpr double kRelFloor = 0.04;  // scale floor as a fraction of the level
constexpr double kClipZ = 8.0;      // winsorize taught samples at this many scales
constexpr double kAbsFloorPowerW = 2.0;
constexpr double kAbsFloorTempC = 1.5;
constexpr double kAbsFloorProgress = 0.02;
constexpr std::size_t kMaxClosed = 65536;  // retained closed episodes

}  // namespace

const char* anomaly_kind_name(AnomalyKind k) {
  switch (k) {
    case AnomalyKind::ThermalRunaway: return "thermal_runaway";
    case AnomalyKind::PowerSpike: return "power_spike";
    case AnomalyKind::Throttle: return "throttle";
    default: return "slow_node";
  }
}

AnomalyDetector::AnomalyDetector(std::size_t shards) : shards_(shards) {
  ANTAREX_REQUIRE(shards > 0, "AnomalyDetector: need at least one shard");
  baselines_.resize(shards_ * kMetricCount);
}

double AnomalyDetector::scale_for(const Baseline& b, Metric m) {
  double abs_floor = kAbsFloorProgress;
  switch (m) {
    case Metric::PowerW: abs_floor = kAbsFloorPowerW; break;
    case Metric::TempC: abs_floor = kAbsFloorTempC; break;
    default: break;
  }
  return std::max({1.4826 * b.mad, kRelFloor * std::abs(b.m), abs_floor});
}

double AnomalyDetector::z_for(const Baseline& b, Metric m, double x) {
  if (b.n < kWarmupSamples) return 0.0;
  return (x - b.m) / scale_for(b, m);
}

void AnomalyDetector::update_baseline(Baseline& b, Metric m, double x) {
  if (b.n == 0) {
    b.m = x;
    b.mad = 0.0;
  } else {
    // Winsorize: a wild sample may pull the level by at most
    // alpha * clip_z * scale per step, not alpha * (x - m).
    const double lim = kClipZ * scale_for(b, m);
    const double v = std::clamp(x, b.m - lim, b.m + lim);
    b.m += kEwmaAlpha * (v - b.m);
    b.mad += kMadBeta * (std::abs(v - b.m) - b.mad);
  }
  ++b.n;
}

void AnomalyDetector::observe(const MetricFrame& frame) {
  ANTAREX_REQUIRE(frame.shard < shards_, "AnomalyDetector: shard out of range");
  const bool busy = frame.util >= static_cast<float>(kMinUtil);

  bool flags[kAnomalyKindCount] = {false, false, false, false};
  double zs[kAnomalyKindCount] = {0.0, 0.0, 0.0, 0.0};
  bool any = false;
  if (busy) {
    Baseline& bp = baseline(frame.shard, Metric::PowerW);
    Baseline& bt = baseline(frame.shard, Metric::TempC);
    Baseline& bg = baseline(frame.shard, Metric::ProgressUps);
    const double zp = z_for(bp, Metric::PowerW, frame.power_w);
    const double zt = z_for(bt, Metric::TempC, frame.temp_c);
    const double zg = z_for(bg, Metric::ProgressUps, frame.progress_ups);

    if (zt > kFlagZ) {
      flags[static_cast<std::size_t>(AnomalyKind::ThermalRunaway)] = true;
      zs[static_cast<std::size_t>(AnomalyKind::ThermalRunaway)] = zt;
    }
    if (zp > kFlagZ) {
      flags[static_cast<std::size_t>(AnomalyKind::PowerSpike)] = true;
      zs[static_cast<std::size_t>(AnomalyKind::PowerSpike)] = zp;
    }
    if (-zg > kFlagZ) {
      // Progress fell off the shard baseline; the power signature says how.
      const auto kind =
          zp < -kPowerDropZ ? AnomalyKind::Throttle : AnomalyKind::SlowNode;
      flags[static_cast<std::size_t>(kind)] = true;
      zs[static_cast<std::size_t>(kind)] = -zg;
    }
    any = flags[0] || flags[1] || flags[2] || flags[3];
    if (any) ++flagged_samples_;

    // Anomalous samples must not teach the baseline (a stuck throttle would
    // become "normal" within 1/alpha samples otherwise).
    if (!flags[static_cast<std::size_t>(AnomalyKind::PowerSpike)] &&
        !flags[static_cast<std::size_t>(AnomalyKind::Throttle)])
      update_baseline(bp, Metric::PowerW, frame.power_w);
    if (!flags[static_cast<std::size_t>(AnomalyKind::ThermalRunaway)])
      update_baseline(bt, Metric::TempC, frame.temp_c);
    if (!flags[static_cast<std::size_t>(AnomalyKind::Throttle)] &&
        !flags[static_cast<std::size_t>(AnomalyKind::SlowNode)])
      update_baseline(bg, Metric::ProgressUps, frame.progress_ups);
  }

  auto it = tracked_.find(frame.node);
  if (it == tracked_.end()) {
    if (!any) return;  // healthy untracked node: nothing to do
    if (tracked_.size() >= kMaxTracked) {
      ++tracked_overflow_;
      TELEMETRY_COUNT("monitor.detector.tracked_overflow", 1);
      return;
    }
    it = tracked_.emplace(frame.node, NodeTrack{}).first;
  }

  NodeTrack& track = it->second;
  for (std::size_t k = 0; k < kAnomalyKindCount; ++k)
    step_kind(track, static_cast<AnomalyKind>(k), flags[k], zs[k], frame);

  // Drop the node's tracking state once it is fully healthy again.
  bool live = false;
  for (const KindState& ks : track.kinds)
    if (ks.trigger.open || ks.trigger.last) live = true;
  if (!live) tracked_.erase(it);
}

void AnomalyDetector::step_kind(NodeTrack& track, AnomalyKind kind,
                                bool flagged, double z,
                                const MetricFrame& frame) {
  KindState& ks = track.kinds[static_cast<std::size_t>(kind)];
  const Transition t = ks.trigger.step(
      kind == AnomalyKind::PowerSpike ? kSpikeRule : kEpisodeRule, flagged);
  if (t.opened) open_episode(ks, kind, z, frame);
  if (t.closed) close_episode(ks);
  if (flagged && ks.trigger.open) {
    ks.episode.peak_z = std::max(ks.episode.peak_z, z);
    ++ks.episode.samples;
    ks.episode.close_t_s = frame.t_s;
  }
}

void AnomalyDetector::open_episode(KindState& ks, AnomalyKind kind, double z,
                                   const MetricFrame& frame) {
  ks.episode = Episode{frame.node, frame.shard,  kind, frame.t_s,
                       frame.t_s,  z,            0,    true};
  ++active_;
  // Dynamic metric name (one per kind): cold path, so the uncached registry
  // lookup is fine — the cached TELEMETRY_COUNT macro needs a constant name.
  telemetry::Registry::global()
      .counter(format("monitor.anomaly.open.%s", anomaly_kind_name(kind)))
      .add(1);
  TELEMETRY_GAUGE("monitor.anomaly_active", static_cast<double>(active_));
  // Decision provenance: an episode opening is the detector deciding the
  // node is anomalous; the observed effect lands when the episode closes.
  causal::DecisionRecord rec;
  rec.t_s = frame.t_s;
  rec.actor = "monitor.detector";
  rec.action = format("episode_open:%s", anomaly_kind_name(kind));
  rec.cause = format("node %u shard %u z=%.2f", frame.node, frame.shard, z);
  rec.cause_value = z;
  ks.ledger_seq = causal::DecisionLedger::global().record(std::move(rec));
  if (hook_) hook_(ks.episode, true);
}

void AnomalyDetector::close_episode(KindState& ks) {
  // The close time is the last flagged sample, already recorded.
  ks.episode.open = false;
  --active_;
  TELEMETRY_GAUGE("monitor.anomaly_active", static_cast<double>(active_));
  if (ks.ledger_seq != 0) {
    causal::DecisionLedger::global().note_effect(
        ks.ledger_seq,
        format("closed after %.2fs, %u samples, peak z=%.2f",
               ks.episode.close_t_s - ks.episode.open_t_s, ks.episode.samples,
               ks.episode.peak_z),
        ks.episode.peak_z);
    ks.ledger_seq = 0;
  }
  if (hook_) hook_(ks.episode, false);
  if (closed_.size() >= kMaxClosed) {
    ++closed_overflow_;
    TELEMETRY_COUNT("monitor.detector.closed_overflow", 1);
    return;
  }
  closed_.push_back(ks.episode);
}

std::vector<Episode> AnomalyDetector::episodes() const {
  std::vector<Episode> out = closed_;
  for (const auto& [node, track] : tracked_)
    for (const KindState& ks : track.kinds)
      if (ks.trigger.open) out.push_back(ks.episode);
  return out;
}

std::size_t AnomalyDetector::approx_bytes() const {
  return sizeof(*this) + baselines_.size() * sizeof(Baseline) +
         tracked_.size() * (sizeof(NodeTrack) + sizeof(u32) + 48) +
         closed_.capacity() * sizeof(Episode);
}

}  // namespace antarex::monitor
