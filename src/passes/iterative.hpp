// Iterative compilation (paper Sec. III-B).
//
// "Iterative compilation techniques are attractive to identify the best
// compiler optimizations for a given program/code fragment" — this explorer
// enumerates pass pipelines, evaluates each candidate by actually running the
// transformed program on the VM and counting executed instructions (a
// deterministic stand-in for cycles), and returns the best sequence. The
// result is what split compilation conveys to the runtime stage.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "cir/ast.hpp"
#include "exec/pool.hpp"
#include "vm/engine.hpp"

namespace antarex::passes {

/// A measurement workload: entry point plus a factory producing fresh
/// arguments per evaluation (array arguments are mutable buffers, so each
/// candidate run must get its own copy). When candidates are evaluated on a
/// thread pool, make_args is called concurrently and must be thread-safe
/// (a pure factory over captured-by-value inputs is).
struct Workload {
  std::string entry;
  std::function<std::vector<vm::Value>()> make_args;
};

struct Candidate {
  std::string pipeline;
  u64 instructions = 0;
  bool output_matches_baseline = true;
};

struct IterativeResult {
  std::string best_pipeline;      ///< "" = baseline (no passes) is best
  u64 best_instructions = 0;
  u64 baseline_instructions = 0;
  std::vector<Candidate> evaluated;

  double best_speedup() const {
    return best_instructions == 0
               ? 1.0
               : static_cast<double>(baseline_instructions) /
                     static_cast<double>(best_instructions);
  }
};

class IterativeCompiler {
 public:
  /// Candidate pass specs used to build sequences; defaults to
  /// PassManager::known_specs().
  explicit IterativeCompiler(std::vector<std::string> specs = {});

  /// Evaluate candidates on `pool` instead of serially (nullptr reverts).
  /// Candidate lists are always generated serially and results are collected
  /// in candidate index order, so exploration results are byte-identical with
  /// and without a pool.
  void set_pool(exec::ThreadPool* pool) { pool_ = pool; }

  /// Evaluate one pipeline on a fresh clone of the module. Also verifies the
  /// transformed program still produces the baseline output (miscompilation
  /// guard); mismatching candidates are marked and never selected.
  Candidate evaluate(const cir::Module& m, const Workload& w,
                     const std::string& pipeline) const;

  /// Exhaustive search over all ordered sequences of length 1..max_len
  /// (without repetition within one sequence).
  IterativeResult explore_exhaustive(const cir::Module& m, const Workload& w,
                                     int max_len = 2) const;

 private:
  u64 run_baseline(const cir::Module& m, const Workload& w, vm::Value* out) const;
  std::vector<Candidate> evaluate_all(const cir::Module& m, const Workload& w,
                                      const std::vector<std::string>& pipelines) const;
  IterativeResult finalize(std::vector<Candidate> candidates, u64 baseline) const;

  std::vector<std::string> specs_;
  exec::ThreadPool* pool_ = nullptr;
};

}  // namespace antarex::passes
