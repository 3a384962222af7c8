// Software knobs and the design space (paper Sec. I: "tuning software knobs
// (including application parameters, code transformations and code
// variants)").
//
// Grey-box positioning (Sec. IV): the space supports *annotations* — range
// restrictions from code annotations — that shrink what the autotuner must
// explore, without requiring full domain knowledge.
#pragma once

#include <string>
#include <vector>

#include "support/common.hpp"

namespace antarex::tuner {

/// One discrete tuning knob: an application parameter (tile size, batch
/// size), a code-variant selector, or a precision level.
struct Knob {
  std::string name;
  std::vector<double> values;
};

/// A point in the design space: one value index per knob.
using Configuration = std::vector<std::size_t>;

/// Stable dictionary key for a configuration.
std::string config_key(const Configuration& c);

class DesignSpace {
 public:
  void add_knob(Knob k);

  std::size_t knob_count() const { return knobs_.size(); }
  const Knob& knob(std::size_t i) const;
  int knob_index(const std::string& name) const;  ///< -1 if absent

  /// Total number of configurations (product of per-knob candidate counts,
  /// honoring annotations).
  std::size_t size() const;

  /// Decode a flat index in [0, size()) into a configuration.
  Configuration at(std::size_t flat_index) const;

  /// The actual knob value selected by a configuration.
  double value(const Configuration& c, const std::string& knob_name) const;
  double value(const Configuration& c, std::size_t knob_index) const;

  /// Grey-box annotation: restrict a knob to values within [lo, hi]. The
  /// excluded values stay in the knob definition but are never proposed.
  void restrict_range(const std::string& knob_name, double lo, double hi);

  /// Candidate value-indices for a knob under current annotations.
  const std::vector<std::size_t>& candidates(std::size_t knob_index) const;

  /// Validity check for externally produced configurations.
  bool valid(const Configuration& c) const;

 private:
  std::vector<Knob> knobs_;
  std::vector<std::vector<std::size_t>> candidates_;  ///< per knob
};

}  // namespace antarex::tuner
