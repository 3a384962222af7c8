// Strength reduction: replace expensive operations with cheaper equivalents.
#pragma once

#include "passes/pass.hpp"

namespace antarex::passes {

/// Rewrites (on pure operands where duplication is required):
///   pow(x, 2) -> x * x,   pow(x, 3) -> x * x * x,   pow(x, 1) -> x
///   x * 2  /  2 * x -> x + x
///   pow(x, 0.5) -> sqrt(x)
class StrengthReductionPass final : public Pass {
 public:
  PassResult run(cir::Function& f) override;
};

}  // namespace antarex::passes
