// Pass pipeline management.
//
// Pipelines are named sequences like "fold,dce,unroll:16,strength" — the unit
// of exploration for iterative compilation (paper Sec. III-B) and the
// "compiler optimization sequences" action family of LARA (paper Sec. III-A).
#pragma once

#include <string>
#include <vector>

#include "passes/pass.hpp"

namespace antarex::passes {

struct PipelineStats {
  struct Step {
    std::string pass;
    bool changed = false;
    std::size_t actions = 0;
  };
  std::vector<Step> steps;
};

class PassManager {
 public:
  /// Module-aware: inline needs cross-function visibility.
  explicit PassManager(cir::Module& module) : module_(module) {}

  /// Append a pass by spec. Known specs:
  ///   "fold" | "dce" | "strength" | "inline"
  ///   "unroll"          (full, default max trip 16)
  ///   "unroll:N"        (full, max trip N)
  ///   "unroll-partial"  (factor 4)
  ///   "unroll-partial:N"
  /// Throws on unknown specs.
  void add(const std::string& spec);

  /// Parse a comma-separated pipeline and append each pass.
  void add_pipeline(const std::string& pipeline);

  std::size_t size() const { return passes_.size(); }
  void clear() { passes_.clear(); }

  /// Run all passes, in order, over one function.
  PipelineStats run(cir::Function& f);

  /// Run over every function of the module.
  PipelineStats run_all();

  /// Run the pipeline repeatedly over a function until no pass reports a
  /// change (bounded by max_rounds).
  PipelineStats run_to_fixpoint(cir::Function& f, int max_rounds = 8);

  /// The specs this manager knows how to construct (for explorers).
  static std::vector<std::string> known_specs();

 private:
  PassPtr make_pass(const std::string& spec) const;

  cir::Module& module_;
  std::vector<std::string> specs_;
  std::vector<PassPtr> passes_;
};

}  // namespace antarex::passes
