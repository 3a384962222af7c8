#include "passes/iterative.hpp"

#include <cmath>

#include "exec/parallel.hpp"
#include "passes/pass_manager.hpp"
#include "support/strings.hpp"

namespace antarex::passes {

namespace {

bool values_equal(const vm::Value& a, const vm::Value& b) {
  if (a.is_numeric() && b.is_numeric()) {
    if (a.is_int() && b.is_int()) return a.as_int() == b.as_int();
    const double x = a.as_float();
    const double y = b.as_float();
    if (std::isnan(x) && std::isnan(y)) return true;
    const double tol = 1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
    return std::fabs(x - y) <= tol;
  }
  return false;  // arrays/strings as return values are not compared
}

}  // namespace

IterativeCompiler::IterativeCompiler(std::vector<std::string> specs)
    : specs_(std::move(specs)) {
  if (specs_.empty()) specs_ = PassManager::known_specs();
}

u64 IterativeCompiler::run_baseline(const cir::Module& m, const Workload& w,
                                    vm::Value* out) const {
  vm::Engine engine;
  engine.load_module(m);
  engine.reset_instruction_count();
  vm::Value result = engine.call(w.entry, w.make_args());
  if (out) *out = result;
  return engine.executed_instructions();
}

Candidate IterativeCompiler::evaluate(const cir::Module& m, const Workload& w,
                                      const std::string& pipeline) const {
  auto transformed = m.clone();
  PassManager pm(*transformed);
  pm.add_pipeline(pipeline);
  pm.run_all();

  vm::Engine engine;
  engine.load_module(*transformed);
  engine.reset_instruction_count();
  vm::Value result = engine.call(w.entry, w.make_args());

  Candidate c;
  c.pipeline = pipeline;
  c.instructions = engine.executed_instructions();

  vm::Value baseline_result;
  run_baseline(m, w, &baseline_result);
  c.output_matches_baseline =
      !baseline_result.is_numeric() || values_equal(result, baseline_result);
  return c;
}

std::vector<Candidate> IterativeCompiler::evaluate_all(
    const cir::Module& m, const Workload& w,
    const std::vector<std::string>& pipelines) const {
  if (!pool_ || pipelines.size() < 2) {
    std::vector<Candidate> out;
    out.reserve(pipelines.size());
    for (const auto& p : pipelines) out.push_back(evaluate(m, w, p));
    return out;
  }
  // evaluate() is pure (clones the module, fresh Engine per run), so
  // candidates are embarrassingly parallel; parallel_map keeps index order.
  return exec::parallel_map<Candidate>(
      *pool_, pipelines.size(), 1,
      [&](std::size_t i) { return evaluate(m, w, pipelines[i]); });
}

IterativeResult IterativeCompiler::finalize(std::vector<Candidate> candidates,
                                            u64 baseline) const {
  IterativeResult out;
  out.baseline_instructions = baseline;
  out.best_instructions = baseline;
  out.best_pipeline = "";
  for (const auto& c : candidates) {
    if (c.output_matches_baseline && c.instructions < out.best_instructions) {
      out.best_instructions = c.instructions;
      out.best_pipeline = c.pipeline;
    }
  }
  out.evaluated = std::move(candidates);
  return out;
}

IterativeResult IterativeCompiler::explore_exhaustive(const cir::Module& m,
                                                      const Workload& w,
                                                      int max_len) const {
  ANTAREX_REQUIRE(max_len >= 1, "explore_exhaustive: max_len must be >= 1");
  const u64 baseline = run_baseline(m, w, nullptr);

  std::vector<std::string> pipelines;
  std::vector<std::size_t> seq;
  std::function<void()> recurse = [&]() {
    if (!seq.empty()) {
      std::vector<std::string> parts;
      for (std::size_t i : seq) parts.push_back(specs_[i]);
      pipelines.push_back(join(parts, ","));
    }
    if (static_cast<int>(seq.size()) == max_len) return;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      // No immediate repetition; repeating a pass back-to-back is a no-op for
      // all our fixpoint-free passes.
      if (!seq.empty() && seq.back() == i) continue;
      seq.push_back(i);
      recurse();
      seq.pop_back();
    }
  };
  recurse();
  return finalize(evaluate_all(m, w, pipelines), baseline);
}

}  // namespace antarex::passes
