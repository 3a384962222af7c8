#include "tuner/knowledge.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "support/strings.hpp"

namespace antarex::tuner {

namespace {

/// A config index or sample count: plain decimal digits that fit size_t.
/// from_chars takes no sign, no blank and no empty field for an unsigned type.
bool parse_count(const std::string& s, std::size_t& out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

void Knowledge::observe(const Measurement& m) {
  ANTAREX_REQUIRE(!m.config.empty(), "Knowledge: empty configuration");
  Entry& e = table_[config_key(m.config)];
  if (e.config.empty()) e.config = m.config;
  for (const auto& [metric, value] : m.metrics) e.stats[metric].add(value);
  ++observations_;
}

bool Knowledge::has(const Configuration& c) const {
  return table_.contains(config_key(c));
}

std::optional<double> Knowledge::mean(const Configuration& c,
                                      const std::string& metric) const {
  auto it = table_.find(config_key(c));
  if (it == table_.end()) return std::nullopt;
  auto mit = it->second.stats.find(metric);
  if (mit == it->second.stats.end() || mit->second.count() == 0) return std::nullopt;
  return mit->second.mean();
}

std::vector<Configuration> Knowledge::configs() const {
  std::vector<Configuration> out;
  out.reserve(table_.size());
  for (const auto& [key, e] : table_) out.push_back(e.config);
  return out;
}

std::size_t Knowledge::samples(const Configuration& c) const {
  auto it = table_.find(config_key(c));
  if (it == table_.end()) return 0;
  std::size_t n = 0;
  for (const auto& [metric, st] : it->second.stats) n = std::max(n, st.count());
  return n;
}

std::optional<Configuration> Knowledge::best(const std::string& objective,
                                             bool minimize,
                                             const std::vector<Goal>& goals) const {
  const Entry* best_entry = nullptr;
  double best_value = 0.0;
  for (const auto& [key, e] : table_) {
    auto oit = e.stats.find(objective);
    if (oit == e.stats.end() || oit->second.count() == 0) continue;
    bool ok = true;
    for (const Goal& g : goals) {
      auto git = e.stats.find(g.metric);
      if (git == e.stats.end() || git->second.count() == 0 ||
          !g.satisfied_by(git->second.mean())) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    const double v = oit->second.mean();
    if (!best_entry || (minimize ? v < best_value : v > best_value)) {
      best_entry = &e;
      best_value = v;
    }
  }
  if (!best_entry) return std::nullopt;
  return best_entry->config;
}

std::vector<Configuration> Knowledge::pareto_front(
    const std::string& metric_a, const std::string& metric_b) const {
  struct Point {
    const Entry* entry;
    double a, b;
  };
  std::vector<Point> points;
  for (const auto& [key, e] : table_) {
    const auto ait = e.stats.find(metric_a);
    const auto bit = e.stats.find(metric_b);
    if (ait == e.stats.end() || bit == e.stats.end()) continue;
    if (ait->second.count() == 0 || bit->second.count() == 0) continue;
    points.push_back({&e, ait->second.mean(), bit->second.mean()});
  }
  // Sort by a ascending, b ascending; sweep keeping strictly improving b.
  std::sort(points.begin(), points.end(), [](const Point& x, const Point& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  });
  std::vector<Configuration> front;
  double best_b = std::numeric_limits<double>::infinity();
  for (const Point& p : points) {
    if (p.b < best_b) {
      front.push_back(p.entry->config);
      best_b = p.b;
    }
  }
  return front;
}

void Knowledge::clear() {
  table_.clear();
  observations_ = 0;
}

std::string Knowledge::export_text() const {
  std::string out;
  for (const auto& [key, e] : table_) {
    std::string cfg;
    for (std::size_t i = 0; i < e.config.size(); ++i) {
      if (i) cfg += ',';
      cfg += format("%zu", e.config[i]);
    }
    for (const auto& [metric, st] : e.stats) {
      if (st.count() == 0) continue;
      out += format("%s %s %zu %.17g\n", cfg.c_str(), metric.c_str(),
                    st.count(), st.mean());
    }
  }
  return out;
}

void Knowledge::import_text(const std::string& text) {
  for (const std::string& raw_line : split(text, '\n')) {
    const std::string line = trim(raw_line);
    if (line.empty() || line[0] == '#') continue;
    const auto fields = split(line, ' ');
    ANTAREX_REQUIRE(fields.size() == 4,
                    "Knowledge::import_text: expected 4 fields in '" + line + "'");
    Configuration config;
    for (const std::string& idx : split(fields[0], ',')) {
      std::size_t v = 0;
      ANTAREX_REQUIRE(parse_count(idx, v),
                      "Knowledge::import_text: bad config index '" + idx + "'");
      config.push_back(v);
    }
    std::size_t n = 0;
    ANTAREX_REQUIRE(parse_count(fields[2], n) && n > 0,
                    "Knowledge::import_text: bad sample count in '" + line + "'");
    char* end = nullptr;
    const double mean_value = std::strtod(fields[3].c_str(), &end);
    ANTAREX_REQUIRE(end && *end == '\0' && std::isfinite(mean_value),
                    "Knowledge::import_text: bad mean in '" + line + "'");

    Entry& e = table_[config_key(config)];
    if (e.config.empty()) e.config = config;
    e.stats[fields[1]].merge(RunningStats::repeated(mean_value, n));
    observations_ += n;
  }
}

}  // namespace antarex::tuner
