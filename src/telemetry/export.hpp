// Exporters: Chrome-trace JSON (chrome://tracing / Perfetto), a flat metrics
// JSON dump with a stable schema, and a human-readable summary table.
#pragma once

#include <string>

#include "support/table.hpp"
#include "telemetry/registry.hpp"

namespace antarex::telemetry {

/// Chrome trace-event JSON ("JSON object format"): one B/E pair per span,
/// timestamps in microseconds relative to the first event. Unbalanced tails
/// (possible when the buffer dropped events) are repaired: orphan 'E' events
/// are skipped and still-open 'B' events are closed at the last timestamp,
/// so the output always loads in Perfetto. The drop counter is exported under
/// "otherData".
std::string chrome_trace_json(const Registry& registry = Registry::global());

/// Flat metrics dump, schema "antarex.telemetry.metrics/v3":
///   { "schema": ..., "counters": {name: int},
///     "gauges": {name: {last,min,max,updates}},
///     "histograms": {name: {lo,hi,count,sum,mean,p50,p95,p99,buckets:[...]}},
///     "series": {name: {count,last,mean,p50,p95,p99,ewma}},
///     "drops": {"trace_buffer": int, <drop counter name>: int, ...},
///     "drops_total": int,
///     "trace": {events,dropped} }
/// v3 adds the "drops" section: the trace ring's drop count plus every
/// counter registered through Registry::drop_counter(), so any bounded
/// buffer that silently discarded data shows up in one place.
/// Histogram quantiles are approx_quantiles() estimates (interpolated);
/// series quantiles are exact (nearest rank) over the rolling window. Each
/// metric's p50/p95/p99 come from one snapshot, so they never cross. Keys
/// are emitted in sorted order, so the layout is deterministic.
std::string metrics_json(const Registry& registry = Registry::global());

/// One row per metric (name, kind, count, value, mean, p50, p95, p99) via
/// support/table.
Table summary_table(const Registry& registry = Registry::global());

/// Write a string to a file; throws antarex::Error on I/O failure.
void write_text_file(const std::string& path, const std::string& content);

}  // namespace antarex::telemetry
