// antarex::monitor — Examon-style metric addressing.
//
// Every sample the fabric moves belongs to one stream, addressed by
//
//   cluster/<shard>/node/<id>/<metric>
//
// exactly the scheme ANTAREX's Examon uses to ship per-node sensor streams
// over MQTT brokers. The hot path never materializes topic strings: a
// MetricFrame carries its (shard, node) ids and all four metrics at once,
// and the broker delivers every frame to the fabric's fixed consumers (the
// aggregator, then the detector). MQTT wildcard topic filters are not
// modelled, because no consumer asks for less than every stream.
#pragma once

#include "support/common.hpp"

namespace antarex::monitor {

/// The per-node signals a Sampler publishes. One MetricFrame carries all of
/// them; the metric level of a topic selects one of them.
enum class Metric : u8 {
  PowerW,       ///< sensor-read node power (RAPL counter deltas)
  TempC,        ///< hottest device temperature
  Utilization,  ///< busy devices / device count
  ProgressUps,  ///< observed work progress rate (units/s)
};

constexpr std::size_t kMetricCount = 4;

const char* metric_name(Metric m);  ///< "power_w", "temp_c", ...

/// One compact sample from one node at one sampling instant. 32 bytes; this
/// is the fabric's unit of traffic and the published bytes/node figure.
struct MetricFrame {
  double t_s = 0.0;       ///< virtual sampling time
  u32 node = 0;
  u16 shard = 0;
  u16 busy_devices = 0;
  float power_w = 0.0f;
  float temp_c = 0.0f;
  float util = 0.0f;
  float progress_ups = 0.0f;

  float value(Metric m) const {
    switch (m) {
      case Metric::PowerW: return power_w;
      case Metric::TempC: return temp_c;
      case Metric::Utilization: return util;
      default: return progress_ups;
    }
  }
};

}  // namespace antarex::monitor
