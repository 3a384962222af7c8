#include "tuner/knob.hpp"

#include "support/strings.hpp"

namespace antarex::tuner {

std::string config_key(const Configuration& c) {
  std::string key;
  for (std::size_t i : c) key += format("%zu,", i);
  return key;
}

void DesignSpace::add_knob(Knob k) {
  ANTAREX_REQUIRE(!k.name.empty(), "DesignSpace: knob needs a name");
  ANTAREX_REQUIRE(!k.values.empty(), "DesignSpace: knob needs at least one value");
  ANTAREX_REQUIRE(knob_index(k.name) < 0,
                  "DesignSpace: duplicate knob '" + k.name + "'");
  std::vector<std::size_t> all(k.values.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  knobs_.push_back(std::move(k));
  candidates_.push_back(std::move(all));
}

const Knob& DesignSpace::knob(std::size_t i) const {
  ANTAREX_REQUIRE(i < knobs_.size(), "DesignSpace: knob index out of range");
  return knobs_[i];
}

int DesignSpace::knob_index(const std::string& name) const {
  for (std::size_t i = 0; i < knobs_.size(); ++i)
    if (knobs_[i].name == name) return static_cast<int>(i);
  return -1;
}

std::size_t DesignSpace::size() const {
  if (knobs_.empty()) return 0;
  std::size_t n = 1;
  for (const auto& c : candidates_) n *= c.size();
  return n;
}

Configuration DesignSpace::at(std::size_t flat_index) const {
  ANTAREX_REQUIRE(flat_index < size(), "DesignSpace: flat index out of range");
  Configuration c(knobs_.size());
  for (std::size_t i = 0; i < knobs_.size(); ++i) {
    const auto& cand = candidates_[i];
    c[i] = cand[flat_index % cand.size()];
    flat_index /= cand.size();
  }
  return c;
}

double DesignSpace::value(const Configuration& c, const std::string& knob_name) const {
  const int i = knob_index(knob_name);
  ANTAREX_REQUIRE(i >= 0, "DesignSpace: unknown knob '" + knob_name + "'");
  return value(c, static_cast<std::size_t>(i));
}

double DesignSpace::value(const Configuration& c, std::size_t ki) const {
  ANTAREX_REQUIRE(valid(c), "DesignSpace: invalid configuration");
  ANTAREX_REQUIRE(ki < knobs_.size(), "DesignSpace: knob index out of range");
  return knobs_[ki].values[c[ki]];
}

void DesignSpace::restrict_range(const std::string& knob_name, double lo, double hi) {
  const int i = knob_index(knob_name);
  ANTAREX_REQUIRE(i >= 0, "DesignSpace: unknown knob '" + knob_name + "'");
  ANTAREX_REQUIRE(lo <= hi, "DesignSpace: empty restriction range");
  std::vector<std::size_t> keep;
  const Knob& k = knobs_[static_cast<std::size_t>(i)];
  for (std::size_t vi = 0; vi < k.values.size(); ++vi)
    if (k.values[vi] >= lo && k.values[vi] <= hi) keep.push_back(vi);
  ANTAREX_REQUIRE(!keep.empty(),
                  "DesignSpace: restriction excludes every value of '" +
                      knob_name + "'");
  candidates_[static_cast<std::size_t>(i)] = std::move(keep);
}

const std::vector<std::size_t>& DesignSpace::candidates(std::size_t knob_index) const {
  ANTAREX_REQUIRE(knob_index < candidates_.size(),
                  "DesignSpace: knob index out of range");
  return candidates_[knob_index];
}

bool DesignSpace::valid(const Configuration& c) const {
  if (c.size() != knobs_.size()) return false;
  for (std::size_t i = 0; i < c.size(); ++i)
    if (c[i] >= knobs_[i].values.size()) return false;
  return true;
}

}  // namespace antarex::tuner
