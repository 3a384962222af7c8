#include "obs/report.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "support/common.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"

namespace antarex::obs {

namespace {

/// One reconstructed span interval from the B/E event stream.
struct Interval {
  std::string name;
  double begin_us = 0.0;
  double end_us = 0.0;
  std::size_t depth = 0;
  double dur_us() const { return end_us - begin_us; }
};

struct SpanAgg {
  std::string name;
  u64 count = 0;
  double total_us = 0.0;
  double self_us = 0.0;  ///< total minus time in nested spans
  double max_us = 0.0;
};

/// Rebuild intervals from the exporter's single-track B/E stream. The
/// exporter guarantees balance (it repairs truncated tails), but stay
/// defensive: orphan 'E's are skipped, open 'B's closed at the last
/// timestamp.
std::vector<Interval> reconstruct(const JsonValue& trace) {
  const JsonValue* events = trace.get("traceEvents");
  ANTAREX_REQUIRE(events != nullptr && events->is_array(),
                  "report: trace has no traceEvents array");
  std::vector<Interval> out;
  std::vector<std::size_t> stack;  // indices into out of the open spans
  double last_ts = 0.0;
  for (const JsonValue& e : events->as_array()) {
    if (!e.is_object()) continue;
    const JsonValue* ph = e.get("ph");
    const JsonValue* name = e.get("name");
    if (!ph || !ph->is_string()) continue;
    const double ts = e.number_or("ts", last_ts);
    last_ts = ts;
    if (ph->as_string() == "B") {
      Interval iv;
      iv.name = (name && name->is_string()) ? name->as_string() : "(unnamed)";
      iv.begin_us = ts;
      iv.depth = stack.size();
      out.push_back(iv);
      stack.push_back(out.size() - 1);
    } else if (ph->as_string() == "E" && !stack.empty()) {
      out[stack.back()].end_us = ts;
      stack.pop_back();
    }
  }
  while (!stack.empty()) {
    out[stack.back()].end_us = last_ts;
    stack.pop_back();
  }
  return out;
}

/// Aggregate per name; self time recomputed by re-walking with a stack.
std::vector<SpanAgg> aggregate(const std::vector<Interval>& intervals) {
  // Intervals are in begin order; children always follow parents. Compute
  // child time per interval by a containment sweep over depth.
  std::vector<double> child_us(intervals.size(), 0.0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    while (!stack.empty() &&
           intervals[stack.back()].depth >= intervals[i].depth)
      stack.pop_back();
    if (!stack.empty()) child_us[stack.back()] += intervals[i].dur_us();
    stack.push_back(i);
  }
  std::map<std::string, SpanAgg> by_name;
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    SpanAgg& a = by_name[intervals[i].name];
    a.name = intervals[i].name;
    ++a.count;
    a.total_us += intervals[i].dur_us();
    a.self_us += intervals[i].dur_us() - child_us[i];
    a.max_us = std::max(a.max_us, intervals[i].dur_us());
  }
  std::vector<SpanAgg> out;
  out.reserve(by_name.size());
  for (auto& [name, a] : by_name) out.push_back(a);
  std::sort(out.begin(), out.end(), [](const SpanAgg& a, const SpanAgg& b) {
    return a.total_us > b.total_us;
  });
  return out;
}

std::string html_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

/// Stable pastel color per span name (hash -> hue).
std::string color_for(const std::string& name) {
  u32 h = 2166136261u;
  for (const char c : name) h = (h ^ static_cast<u8>(c)) * 16777619u;
  return format("hsl(%u,55%%,72%%)", h % 360u);
}

std::string fmt_us(double us) {
  if (us >= 1e6) return format("%.3f s", us / 1e6);
  if (us >= 1e3) return format("%.3f ms", us / 1e3);
  return format("%.0f us", us);
}

void emit_flame(std::string& html, const std::vector<Interval>& intervals) {
  if (intervals.empty()) {
    html += "<p class=note>trace contains no spans</p>\n";
    return;
  }
  double t0 = intervals[0].begin_us, t1 = 0.0;
  std::size_t max_depth = 0;
  for (const Interval& iv : intervals) {
    t0 = std::min(t0, iv.begin_us);
    t1 = std::max(t1, iv.end_us);
    max_depth = std::max(max_depth, iv.depth);
  }
  const double span_us = std::max(1e-9, t1 - t0);
  // Bound the DOM size: beyond the cap, note the truncation loudly rather
  // than silently rendering a partial-looking picture.
  constexpr std::size_t kMaxBoxes = 4000;
  const std::size_t n = std::min(intervals.size(), kMaxBoxes);
  html += format(
      "<div class=flame style=\"height:%zupx\" "
      "title=\"timeline: %s total\">\n",
      (max_depth + 1) * 22 + 2, fmt_us(span_us).c_str());
  for (std::size_t i = 0; i < n; ++i) {
    const Interval& iv = intervals[i];
    const double left = 100.0 * (iv.begin_us - t0) / span_us;
    const double width = 100.0 * iv.dur_us() / span_us;
    if (width < 0.02) continue;  // sub-pixel boxes only bloat the file
    html += format(
        "<div class=sp style=\"left:%.3f%%;width:%.3f%%;top:%zupx;"
        "background:%s\" title=\"%s (%s)\">%s</div>\n",
        left, std::max(width, 0.05), iv.depth * 22,
        color_for(iv.name).c_str(), html_escape(iv.name).c_str(),
        fmt_us(iv.dur_us()).c_str(), html_escape(iv.name).c_str());
  }
  html += "</div>\n";
  if (intervals.size() > kMaxBoxes)
    html += format("<p class=note>timeline truncated to the first %zu of %zu "
                   "spans</p>\n",
                   kMaxBoxes, intervals.size());
}

void emit_span_table(std::string& html, const std::vector<SpanAgg>& aggs) {
  html += "<table><tr><th>span</th><th>count</th><th>total</th><th>self</th>"
          "<th>max</th></tr>\n";
  for (const SpanAgg& a : aggs)
    html += format(
        "<tr><td><span class=chip style=\"background:%s\"></span>%s</td>"
        "<td class=r>%llu</td><td class=r>%s</td><td class=r>%s</td>"
        "<td class=r>%s</td></tr>\n",
        color_for(a.name).c_str(), html_escape(a.name).c_str(),
        static_cast<unsigned long long>(a.count), fmt_us(a.total_us).c_str(),
        fmt_us(a.self_us).c_str(), fmt_us(a.max_us).c_str());
  html += "</table>\n";
}

void emit_attribution(std::string& html, const JsonValue& attr) {
  const double total = attr.number_or("total_joules", 0.0);
  html += format(
      "<p>%.3f J attributed over %.0f samples (interval %.3g s)",
      total, attr.number_or("samples", 0.0), attr.number_or("interval_s", 0.0));
  html += "</p>\n";
  const auto emit_table = [&](const char* key, const char* caption) {
    const JsonValue* rows = attr.get(key);
    if (!rows || !rows->is_array() || rows->as_array().empty()) return;
    html += format("<h3>%s</h3>\n", caption);
    html += "<table><tr><th>span</th><th>joules</th><th>share</th>"
            "<th>seconds</th><th>samples</th></tr>\n";
    for (const JsonValue& row : rows->as_array()) {
      if (!row.is_object()) continue;
      const std::string name =
          row.get("span") && row.get("span")->is_string()
              ? row.get("span")->as_string() : "(unnamed)";
      const double j = row.number_or("joules", 0.0);
      html += format(
          "<tr><td>%s</td><td class=r>%.3f</td><td class=r>%.1f%%</td>"
          "<td class=r>%.3f</td><td class=r>%.0f</td></tr>\n",
          html_escape(name).c_str(), j, total > 0.0 ? 100.0 * j / total : 0.0,
          row.number_or("seconds", 0.0), row.number_or("samples", 0.0));
      // Bar visualization of the share.
      html += format(
          "<tr class=barrow><td colspan=5><div class=bar "
          "style=\"width:%.2f%%;background:%s\"></div></td></tr>\n",
          total > 0.0 ? 100.0 * j / total : 0.0, color_for(name).c_str());
    }
    html += "</table>\n";
  };
  emit_table("by_phase", "By phase (outermost span)");
  emit_table("by_leaf", "By leaf (innermost span)");
}

void emit_metrics(std::string& html, const JsonValue& metrics) {
  const auto section = [&](const char* key) -> const JsonValue* {
    const JsonValue* v = metrics.get(key);
    return (v && v->is_object() && !v->members().empty()) ? v : nullptr;
  };
  if (const JsonValue* counters = section("counters")) {
    html += "<h3>Counters</h3>\n<table><tr><th>name</th><th>value</th></tr>\n";
    for (const auto& [name, v] : counters->members())
      if (v.is_number())
        html += format("<tr><td>%s</td><td class=r>%.0f</td></tr>\n",
                       html_escape(name).c_str(), v.as_number());
    html += "</table>\n";
  }
  if (const JsonValue* gauges = section("gauges")) {
    html += "<h3>Gauges</h3>\n<table><tr><th>name</th><th>last</th>"
            "<th>min</th><th>max</th><th>updates</th></tr>\n";
    for (const auto& [name, v] : gauges->members())
      if (v.is_object())
        html += format(
            "<tr><td>%s</td><td class=r>%.4g</td><td class=r>%.4g</td>"
            "<td class=r>%.4g</td><td class=r>%.0f</td></tr>\n",
            html_escape(name).c_str(), v.number_or("last", 0.0),
            v.number_or("min", 0.0), v.number_or("max", 0.0),
            v.number_or("updates", 0.0));
    html += "</table>\n";
  }
  if (const JsonValue* hists = section("histograms")) {
    html += "<h3>Histograms</h3>\n<table><tr><th>name</th><th>count</th>"
            "<th>mean</th><th>p50</th><th>p95</th><th>p99</th></tr>\n";
    for (const auto& [name, v] : hists->members())
      if (v.is_object())
        html += format(
            "<tr><td>%s</td><td class=r>%.0f</td><td class=r>%.4g</td>"
            "<td class=r>%.4g</td><td class=r>%.4g</td><td class=r>%.4g</td>"
            "</tr>\n",
            html_escape(name).c_str(), v.number_or("count", 0.0),
            v.number_or("mean", 0.0), v.number_or("p50", 0.0),
            v.number_or("p95", 0.0), v.number_or("p99", 0.0));
    html += "</table>\n";
  }
  if (const JsonValue* series = section("series")) {
    html += "<h3>Series</h3>\n<table><tr><th>name</th><th>count</th>"
            "<th>last</th><th>mean</th><th>p95</th><th>ewma</th></tr>\n";
    for (const auto& [name, v] : series->members())
      if (v.is_object())
        html += format(
            "<tr><td>%s</td><td class=r>%.0f</td><td class=r>%.4g</td>"
            "<td class=r>%.4g</td><td class=r>%.4g</td><td class=r>%.4g</td>"
            "</tr>\n",
            html_escape(name).c_str(), v.number_or("count", 0.0),
            v.number_or("last", 0.0), v.number_or("mean", 0.0),
            v.number_or("p95", 0.0), v.number_or("ewma", 0.0));
    html += "</table>\n";
  }
}

/// Fixed palette per anomaly kind (hash hues would collide or drift).
const char* kind_color(const std::string& kind) {
  if (kind == "thermal_runaway") return "#e05252";
  if (kind == "power_spike") return "#e8a33d";
  if (kind == "throttle") return "#4f9dd6";
  return "#8f6fc9";  // slow_node
}

void emit_cluster_health(std::string& html, const JsonValue& health) {
  html += format(
      "<p class=meta>%.0f shards, %.0f sampling sweeps, %.0f frames "
      "aggregated (%.0f published, %.0f dropped), fabric core %.1f KiB</p>\n",
      health.number_or("shards", 0.0), health.number_or("samples", 0.0),
      health.number_or("frames", 0.0), health.number_or("published", 0.0),
      health.number_or("dropped", 0.0),
      health.number_or("fabric_bytes", 0.0) / 1024.0);

  // Shard heatmap: one row per metric, one cell per shard, shaded by where
  // the shard's mean sits between the row's min and max.
  const JsonValue* shard_mean = health.get("shard_mean");
  if (shard_mean && shard_mean->is_object() &&
      !shard_mean->members().empty()) {
    html += "<h3>Shard heatmap</h3>\n<table class=heat><tr><th>metric</th>";
    std::size_t n_shards = 0;
    for (const auto& [metric, row] : shard_mean->members())
      if (row.is_array()) n_shards = std::max(n_shards, row.as_array().size());
    for (std::size_t s = 0; s < n_shards; ++s)
      html += format("<th class=r>s%zu</th>", s);
    html += "</tr>\n";
    for (const auto& [metric, row] : shard_mean->members()) {
      if (!row.is_array()) continue;
      double lo = 0.0, hi = 0.0;
      bool first = true;
      for (const JsonValue& v : row.as_array()) {
        if (!v.is_number()) continue;
        lo = first ? v.as_number() : std::min(lo, v.as_number());
        hi = first ? v.as_number() : std::max(hi, v.as_number());
        first = false;
      }
      html += "<tr><td>" + html_escape(metric) + "</td>";
      for (const JsonValue& v : row.as_array()) {
        const double x = v.is_number() ? v.as_number() : 0.0;
        const double t = hi > lo ? (x - lo) / (hi - lo) : 0.0;
        html += format(
            "<td class=r style=\"background:hsl(210,60%%,%.0f%%)\">%.4g</td>",
            93.0 - 38.0 * t, x);
      }
      html += "</tr>\n";
    }
    html += "</table>\n";
  }

  // Anomaly timeline: one lane per episode over the sampled window, colored
  // by kind, followed by the episode table.
  html += "<h3>Anomaly timeline</h3>\n";
  const JsonValue* episodes = health.get("episodes");
  if (!episodes || !episodes->is_array() || episodes->as_array().empty()) {
    html += "<p class=note>no anomaly episodes</p>\n";
    return;
  }
  const auto& eps = episodes->as_array();
  double t1 = 1e-9;
  for (const JsonValue& e : eps) t1 = std::max(t1, e.number_or("close_s", 0.0));
  constexpr std::size_t kMaxLanes = 400;
  const std::size_t lanes = std::min(eps.size(), kMaxLanes);
  html += format("<div class=flame style=\"height:%zupx\">\n", lanes * 16 + 2);
  for (std::size_t i = 0; i < lanes; ++i) {
    const JsonValue& e = eps[i];
    const std::string kind = e.get("kind") && e.get("kind")->is_string()
                                 ? e.get("kind")->as_string()
                                 : "(unknown)";
    const double open_s = e.number_or("open_s", 0.0);
    const double close_s = std::max(e.number_or("close_s", 0.0), open_s);
    html += format(
        "<div class=\"sp ep\" style=\"left:%.3f%%;width:%.3f%%;top:%zupx;"
        "background:%s\" title=\"node %.0f %s [%.1f s, %.1f s] peak z "
        "%.2f\">n%.0f %s</div>\n",
        100.0 * open_s / t1,
        std::max(100.0 * (close_s - open_s) / t1, 0.3), i * 16,
        kind_color(kind), e.number_or("node", 0.0), html_escape(kind).c_str(),
        open_s, close_s, e.number_or("peak_z", 0.0), e.number_or("node", 0.0),
        html_escape(kind).c_str());
  }
  html += "</div>\n";
  if (eps.size() > kMaxLanes)
    html += format("<p class=note>timeline truncated to the first %zu of %zu "
                   "episodes</p>\n",
                   kMaxLanes, eps.size());
  html += "<table><tr><th>node</th><th>shard</th><th>kind</th>"
          "<th>open s</th><th>close s</th><th>peak z</th><th>samples</th>"
          "<th>state</th></tr>\n";
  for (const JsonValue& e : eps) {
    const std::string kind = e.get("kind") && e.get("kind")->is_string()
                                 ? e.get("kind")->as_string()
                                 : "(unknown)";
    const JsonValue* open = e.get("open");
    html += format(
        "<tr><td class=r>%.0f</td><td class=r>%.0f</td>"
        "<td><span class=chip style=\"background:%s\"></span>%s</td>"
        "<td class=r>%.1f</td><td class=r>%.1f</td><td class=r>%.2f</td>"
        "<td class=r>%.0f</td><td>%s</td></tr>\n",
        e.number_or("node", 0.0), e.number_or("shard", 0.0), kind_color(kind),
        html_escape(kind).c_str(), e.number_or("open_s", 0.0),
        e.number_or("close_s", 0.0), e.number_or("peak_z", 0.0),
        e.number_or("samples", 0.0),
        open && open->is_bool() && open->as_bool() ? "open" : "closed");
  }
  html += "</table>\n";
}

// Decision provenance: the causal::DecisionLedger dump as an "explain"
// timeline — who decided what, on what evidence, and what happened next.
void emit_decisions(std::string& html, const JsonValue& ledger) {
  const JsonValue* decisions = ledger.get("decisions");
  if (!decisions || !decisions->is_array() ||
      decisions->as_array().empty()) {
    html += "<p class=note>no decisions recorded</p>\n";
    return;
  }
  const auto& recs = decisions->as_array();
  html += format("<p class=meta>%zu decisions (%.0f dropped at the ledger)"
                 "</p>\n",
                 recs.size(), ledger.number_or("dropped", 0.0));
  html += "<table><tr><th>#</th><th>t (s)</th><th>actor</th><th>action</th>"
          "<th>cause</th><th>observed effect</th></tr>\n";
  for (const JsonValue& r : recs) {
    const auto str = [&r](const char* key) -> std::string {
      const JsonValue* v = r.get(key);
      return v && v->is_string() ? v->as_string() : std::string();
    };
    const JsonValue* effect = r.get("effect");
    const std::string effect_text =
        effect && effect->is_string() ? effect->as_string()
                                      : std::string("(pending)");
    html += format(
        "<tr><td class=r>%.0f</td><td class=r>%.3f</td><td>%s</td>"
        "<td>%s</td><td>%s</td><td>%s</td></tr>\n",
        r.number_or("seq", 0.0), r.number_or("t_s", 0.0),
        html_escape(str("actor")).c_str(), html_escape(str("action")).c_str(),
        html_escape(str("cause")).c_str(), html_escape(effect_text).c_str());
  }
  html += "</table>\n";
}

constexpr const char* kStyle = R"css(
body{font:14px/1.45 system-ui,sans-serif;margin:24px auto;max-width:1100px;
     color:#222;background:#fafafa}
h1{font-size:22px;border-bottom:2px solid #ddd;padding-bottom:6px}
h2{font-size:17px;margin-top:28px}
h3{font-size:14px;margin:14px 0 4px}
table{border-collapse:collapse;margin:6px 0;background:#fff}
th,td{border:1px solid #ddd;padding:3px 10px;text-align:left}
th{background:#f0f0f0}
td.r{text-align:right;font-variant-numeric:tabular-nums}
.flame{position:relative;background:#fff;border:1px solid #ddd;
       overflow:hidden;margin:8px 0}
.sp{position:absolute;height:20px;font-size:10px;line-height:20px;
    overflow:hidden;white-space:nowrap;border-radius:2px;
    border:1px solid rgba(0,0,0,.15);box-sizing:border-box;padding:0 3px}
.chip{display:inline-block;width:10px;height:10px;border-radius:2px;
      margin-right:6px;border:1px solid rgba(0,0,0,.2)}
.bar{height:5px;border-radius:2px}
.barrow td{border:none;padding:0 10px 4px}
.note{color:#777;font-style:italic}
.meta{color:#555}
.heat td{padding:3px 8px}
.ep{height:14px;font-size:10px;line-height:14px;color:#fff}
)css";

}  // namespace

std::string html_report(const ReportInputs& inputs) {
  const JsonValue trace = parse_json(inputs.trace_json);
  const std::vector<Interval> intervals = reconstruct(trace);
  const std::vector<SpanAgg> aggs = aggregate(intervals);

  std::string html;
  html += "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n";
  html += "<title>" + html_escape(inputs.title) + "</title>\n";
  html += "<style>";
  html += kStyle;
  html += "</style>\n</head>\n<body>\n";
  html += "<h1>" + html_escape(inputs.title) + "</h1>\n";

  double recorded = 0.0, dropped = 0.0;
  if (const JsonValue* other = trace.get("otherData")) {
    recorded = other->number_or("recorded", 0.0);
    dropped = other->number_or("dropped", 0.0);
  }
  html += format("<p class=meta>%zu spans reconstructed from %.0f events "
                 "(%.0f dropped at the buffer)</p>\n",
                 intervals.size(), recorded, dropped);

  if (!inputs.attribution_json.empty()) {
    html += "<h2>Energy attribution</h2>\n";
    emit_attribution(html, parse_json(inputs.attribution_json));
  }

  if (!inputs.health_json.empty()) {
    html += "<h2>Cluster health</h2>\n";
    emit_cluster_health(html, parse_json(inputs.health_json));
  }

  if (!inputs.decisions_json.empty()) {
    html += "<h2>Decision provenance</h2>\n";
    emit_decisions(html, parse_json(inputs.decisions_json));
  }

  html += "<h2>Timeline</h2>\n";
  emit_flame(html, intervals);

  html += "<h2>Spans</h2>\n";
  emit_span_table(html, aggs);

  if (!inputs.metrics_json.empty()) {
    html += "<h2>Metrics</h2>\n";
    emit_metrics(html, parse_json(inputs.metrics_json));
  }

  html += "</body>\n</html>\n";
  return html;
}

}  // namespace antarex::obs
