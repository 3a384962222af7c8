#include "passes/pass_manager.hpp"

#include "passes/const_fold.hpp"
#include "passes/dce.hpp"
#include "passes/inline.hpp"
#include "passes/strength.hpp"
#include "passes/unroll.hpp"
#include "support/strings.hpp"

namespace antarex::passes {

void PassManager::add(const std::string& spec) {
  passes_.push_back(make_pass(spec));
  specs_.push_back(spec);
}

void PassManager::add_pipeline(const std::string& pipeline) {
  for (const auto& part : split(pipeline, ',')) {
    const std::string spec = trim(part);
    if (!spec.empty()) add(spec);
  }
}

PassPtr PassManager::make_pass(const std::string& spec) const {
  std::string name = spec;
  i64 arg = -1;
  if (const auto pos = spec.find(':'); pos != std::string::npos) {
    name = spec.substr(0, pos);
    const std::string arg_str = spec.substr(pos + 1);
    ANTAREX_REQUIRE(!arg_str.empty(), "pass spec '" + spec + "': missing argument");
    arg = std::strtoll(arg_str.c_str(), nullptr, 10);
    ANTAREX_REQUIRE(arg > 0, "pass spec '" + spec + "': argument must be positive");
  }
  if (name == "fold") return std::make_unique<ConstantFoldPass>();
  if (name == "dce") return std::make_unique<DeadCodeEliminationPass>();
  if (name == "strength") return std::make_unique<StrengthReductionPass>();
  if (name == "inline") return std::make_unique<InlineTrivialPass>(module_);
  if (name == "unroll") return std::make_unique<FullUnrollPass>(arg > 0 ? arg : 16);
  if (name == "unroll-partial")
    return std::make_unique<PartialUnrollPass>(arg > 0 ? arg : 4);
  throw Error("unknown pass spec '" + spec + "'");
}

PipelineStats PassManager::run(cir::Function& f) {
  PipelineStats stats;
  for (std::size_t i = 0; i < passes_.size(); ++i) {
    const PassResult r = passes_[i]->run(f);
    stats.steps.push_back({specs_[i], r.changed, r.actions});
  }
  return stats;
}

PipelineStats PassManager::run_all() {
  PipelineStats stats;
  for (auto& f : module_.functions) {
    PipelineStats s = run(*f);
    for (auto& step : s.steps) stats.steps.push_back(std::move(step));
  }
  return stats;
}

PipelineStats PassManager::run_to_fixpoint(cir::Function& f, int max_rounds) {
  PipelineStats stats;
  for (int round = 0; round < max_rounds; ++round) {
    bool changed = false;
    for (std::size_t i = 0; i < passes_.size(); ++i) {
      const PassResult r = passes_[i]->run(f);
      stats.steps.push_back({specs_[i], r.changed, r.actions});
      changed = changed || r.changed;
    }
    if (!changed) break;
  }
  return stats;
}

std::vector<std::string> PassManager::known_specs() {
  return {"fold", "dce", "strength", "inline", "unroll", "unroll-partial"};
}

}  // namespace antarex::passes
