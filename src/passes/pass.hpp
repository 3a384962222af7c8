// Transformation pass interface over the mini-C AST.
//
// Passes are the "code transformations" software knob of the paper (Sec. I:
// "tuning software knobs (including application parameters, code
// transformations and code variants)"). The DSL weaver actions (LoopUnroll,
// Specialize) and the iterative-compilation explorer are built from these.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cir/ast.hpp"

namespace antarex::passes {

struct PassResult {
  bool changed = false;
  /// Pass-specific count (folded expressions, unrolled loops, ...).
  std::size_t actions = 0;
};

class Pass {
 public:
  virtual ~Pass() = default;
  virtual PassResult run(cir::Function& f) = 0;
};

using PassPtr = std::unique_ptr<Pass>;

/// True if evaluating the expression cannot write memory or perform I/O:
/// literals, variable/array reads, arithmetic, and calls to pure math
/// builtins. Calls to user functions or probes are impure.
bool is_pure_expr(const cir::Expr& e);

/// True if `e` is the integer literal `v`.
bool is_int_lit(const cir::Expr& e, i64 v);

}  // namespace antarex::passes
