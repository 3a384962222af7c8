// Loop unrolling (full and partial).
//
// Full unrolling is the action behind the paper's Figure 3 aspect
// (`do LoopUnroll('full')` on innermost loops with numIter <= threshold).
#pragma once

#include "passes/pass.hpp"

namespace antarex::passes {

/// Fully unrolls one specific loop if legal: canonical counted loop, static
/// trip count <= `max_trip`, no break and no top-level continue in the body.
/// The loop statement is replaced in its owning block by the expanded body
/// copies (with the induction variable substituted by literals).
/// Returns true on success, false if the loop is not eligible (the function is
/// left unchanged). Throws if `loop` is not owned by `f`.
bool unroll_loop_full(cir::Function& f, const cir::ForStmt* loop, i64 max_trip = 64);

/// Partially unrolls one loop by `factor`: the body is replicated `factor`
/// times (induction variable offset by k*step in copy k) and the step is
/// scaled; a remainder loop handles trip counts not divisible by the factor.
/// Requires a canonical counted loop with static trip count. Returns false if
/// not eligible.
bool unroll_loop_partial(cir::Function& f, const cir::ForStmt* loop, i64 factor);

/// Pass wrapper: fully unroll every eligible loop with trip count <= max_trip
/// (innermost-first so nested constant loops collapse bottom-up).
class FullUnrollPass final : public Pass {
 public:
  explicit FullUnrollPass(i64 max_trip = 16) : max_trip_(max_trip) {}
  PassResult run(cir::Function& f) override;

 private:
  i64 max_trip_;
};

/// Pass wrapper: partially unroll every eligible loop by a fixed factor.
class PartialUnrollPass final : public Pass {
 public:
  explicit PartialUnrollPass(i64 factor = 4) : factor_(factor) {}
  PassResult run(cir::Function& f) override;

 private:
  i64 factor_;
};

}  // namespace antarex::passes
