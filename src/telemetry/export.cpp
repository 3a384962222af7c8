#include "telemetry/export.hpp"

#include <cstdio>
#include <string>
#include <vector>

#include "support/json.hpp"
#include "support/strings.hpp"

namespace antarex::telemetry {

namespace {

std::string num(double v) { return format("%.9g", v); }

std::string num(u64 v) {
  return format("%llu", static_cast<unsigned long long>(v));
}

/// Comma-separated accumulation helper for JSON object/array bodies.
class Joiner {
 public:
  void add(const std::string& piece) {
    if (!first_) out_ += ',';
    first_ = false;
    out_ += piece;
  }
  const std::string& str() const { return out_; }

 private:
  std::string out_;
  bool first_ = true;
};

std::string trace_event(const char* name, char phase, double ts_us) {
  return format(
      "{\"name\":\"%s\",\"cat\":\"antarex\",\"ph\":\"%c\",\"pid\":1,"
      "\"tid\":1,\"ts\":%.3f}",
      json_escape(name).c_str(), phase, ts_us);
}

// 'B' event carrying causal identity. Ids are decimal *strings*: they are
// full 64-bit values and JSON numbers lose integer precision past 2^53.
std::string trace_event_ids(const TraceEvent& e, double ts_us) {
  return format(
      "{\"name\":\"%s\",\"cat\":\"antarex\",\"ph\":\"%c\",\"pid\":1,"
      "\"tid\":1,\"ts\":%.3f,\"args\":{\"trace_id\":\"%llu\","
      "\"span_id\":\"%llu\",\"parent_id\":\"%llu\"}}",
      json_escape(e.name).c_str(), e.phase, ts_us,
      static_cast<unsigned long long>(e.trace_id),
      static_cast<unsigned long long>(e.span_id),
      static_cast<unsigned long long>(e.parent_id));
}

// 'S'/'F' causal marks become Chrome flow start/finish events, the arrows
// that stitch a stolen task back to its submitter in the timeline view.
// "bp":"e" binds the finish to the enclosing slice.
std::string flow_event(const TraceEvent& e, double ts_us) {
  if (e.phase == 'S')
    return format(
        "{\"name\":\"%s\",\"cat\":\"antarex\",\"ph\":\"s\",\"id\":\"%llx\","
        "\"pid\":1,\"tid\":1,\"ts\":%.3f}",
        json_escape(e.name).c_str(),
        static_cast<unsigned long long>(e.span_id), ts_us);
  return format(
      "{\"name\":\"%s\",\"cat\":\"antarex\",\"ph\":\"f\",\"bp\":\"e\","
      "\"id\":\"%llx\",\"pid\":1,\"tid\":1,\"ts\":%.3f}",
      json_escape(e.name).c_str(), static_cast<unsigned long long>(e.span_id),
      ts_us);
}

}  // namespace

std::string chrome_trace_json(const Registry& registry) {
  const TraceBuffer& buf = registry.trace();
  // snapshot(), not events(): exporting may race with pool workers still
  // emitting spans.
  const std::vector<TraceEvent> events = buf.snapshot();
  const u64 t0 = events.empty() ? 0 : events.front().ts_ns;

  Joiner body;
  std::vector<const char*> open;  // names of not-yet-closed 'B' events
  double last_ts_us = 0.0;
  for (const TraceEvent& e : events) {
    const double ts_us = static_cast<double>(e.ts_ns - t0) / 1000.0;
    last_ts_us = ts_us;
    if (e.phase == 'S' || e.phase == 'F') {
      // Causal flow marks: exported as flow events, never part of the
      // begin/end balancing below.
      body.add(flow_event(e, ts_us));
    } else if (e.trace_id != 0) {
      // Id-carrying spans pair by span_id, not by stack position — correct
      // even when workers interleave events from several requests.
      body.add(trace_event_ids(e, ts_us));
    } else if (e.phase == 'B') {
      body.add(trace_event(e.name, 'B', ts_us));
      open.push_back(e.name);
    } else if (!open.empty()) {
      // Well-nested by RAII construction; a mismatch can only come from
      // events dropped at capacity, in which case we close what is open.
      body.add(trace_event(open.back(), 'E', ts_us));
      open.pop_back();
    }
    // Orphan 'E' with nothing open: its 'B' was dropped — skip it.
  }
  while (!open.empty()) {
    body.add(trace_event(open.back(), 'E', last_ts_us));
    open.pop_back();
  }

  return "{\"traceEvents\":[" + body.str() +
         "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"recorded\":" +
         num(static_cast<u64>(events.size())) +
         ",\"dropped\":" + num(buf.dropped()) + "}}";
}

std::string metrics_json(const Registry& registry) {
  Joiner counters;
  for (const auto& [name, c] : registry.counters())
    counters.add("\"" + json_escape(name) + "\":" + num(c->value()));

  Joiner gauges;
  for (const auto& [name, g] : registry.gauges())
    gauges.add("\"" + json_escape(name) + "\":{\"last\":" + num(g->last()) +
               ",\"min\":" + num(g->min()) + ",\"max\":" + num(g->max()) +
               ",\"updates\":" + num(g->updates()) + "}");

  Joiner histograms;
  for (const auto& [name, h] : registry.histograms()) {
    Joiner buckets;
    for (std::size_t i = 0; i < h->bins(); ++i) buckets.add(num(h->bucket(i)));
    const std::vector<double> q = h->approx_quantiles({0.50, 0.95, 0.99});
    histograms.add("\"" + json_escape(name) + "\":{\"lo\":" + num(h->lo()) +
                   ",\"hi\":" + num(h->hi()) + ",\"count\":" + num(h->count()) +
                   ",\"sum\":" + num(h->sum()) + ",\"mean\":" + num(h->mean()) +
                   ",\"p50\":" + num(q[0]) + ",\"p95\":" + num(q[1]) +
                   ",\"p99\":" + num(q[2]) +
                   ",\"buckets\":[" + buckets.str() + "]}");
  }

  Joiner series;
  for (const auto& [name, s] : registry.all_series()) {
    const bool has = !s->empty();
    const std::vector<double> p =
        has ? s->window_percentiles({50, 95, 99}) : std::vector<double>(3, 0.0);
    series.add("\"" + json_escape(name) +
               "\":{\"count\":" + num(static_cast<u64>(s->count())) +
               ",\"last\":" + num(has ? s->last() : 0.0) +
               ",\"mean\":" + num(has ? s->window_mean() : 0.0) +
               ",\"p50\":" + num(p[0]) + ",\"p95\":" + num(p[1]) +
               ",\"p99\":" + num(p[2]) +
               ",\"ewma\":" + num(has ? s->ewma() : 0.0) + "}");
  }

  // v3: a consolidated "drops" section — every bounded buffer that discarded
  // data (trace ring, broker shard queues, detector caps) in one place, so
  // silent saturation is diagnosable from any bench report.
  const TraceBuffer& buf = registry.trace();
  Joiner drops;
  u64 drops_total = buf.dropped();
  drops.add("\"trace_buffer\":" + num(buf.dropped()));
  for (const auto& [name, c] : registry.drop_counters()) {
    drops.add("\"" + json_escape(name) + "\":" + num(c->value()));
    drops_total += c->value();
  }

  return "{\"schema\":\"antarex.telemetry.metrics/v3\",\"counters\":{" +
         counters.str() + "},\"gauges\":{" + gauges.str() +
         "},\"histograms\":{" + histograms.str() + "},\"series\":{" +
         series.str() + "},\"drops\":{" + drops.str() +
         "},\"drops_total\":" + num(drops_total) +
         ",\"trace\":{\"events\":" + num(static_cast<u64>(buf.size())) +
         ",\"dropped\":" + num(buf.dropped()) + "}}";
}

Table summary_table(const Registry& registry) {
  Table t({"metric", "kind", "count", "value", "mean", "p50", "p95", "p99"});
  for (const auto& [name, c] : registry.counters())
    t.add_row({name, "counter", num(c->value()), num(c->value()), "-", "-",
               "-", "-"});
  for (const auto& [name, g] : registry.gauges())
    t.add_row({name, "gauge", num(g->updates()), format("%.4g", g->last()),
               "-", "-", format("max %.4g", g->max()), "-"});
  for (const auto& [name, h] : registry.histograms()) {
    const std::vector<double> q = h->approx_quantiles({0.50, 0.95, 0.99});
    t.add_row({name, "histogram", num(h->count()), format("%.4g", h->sum()),
               format("%.4g", h->mean()), format("%.4g", q[0]),
               format("%.4g", q[1]), format("%.4g", q[2])});
  }
  for (const auto& [name, s] : registry.all_series()) {
    const bool has = !s->empty();
    const std::vector<double> p =
        has ? s->window_percentiles({50, 95, 99}) : std::vector<double>(3, 0.0);
    t.add_row({name, "series", num(static_cast<u64>(s->count())),
               format("%.4g", has ? s->last() : 0.0),
               format("%.4g", has ? s->window_mean() : 0.0),
               format("%.4g", p[0]), format("%.4g", p[1]),
               format("%.4g", p[2])});
  }
  return t;
}

void write_text_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ANTAREX_REQUIRE(f != nullptr, "telemetry: cannot open '" + path + "' for writing");
  const std::size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const int close_rc = std::fclose(f);
  ANTAREX_REQUIRE(written == content.size() && close_rc == 0,
                  "telemetry: short write to '" + path + "'");
}

}  // namespace antarex::telemetry
