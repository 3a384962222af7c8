// Constant folding + algebraic simplification + local constant propagation.
#pragma once

#include "passes/pass.hpp"

namespace antarex::passes {

/// Folds literal subexpressions (2*3 -> 6), applies safe algebraic identities
/// (x*1 -> x, x+0 -> x, x*0 -> 0 when x is pure), and propagates constants
/// from `int x = C;` declarations whose variable is never reassigned in the
/// function.
class ConstantFoldPass final : public Pass {
 public:
  PassResult run(cir::Function& f) override;
};

}  // namespace antarex::passes
