// Dead code elimination.
#pragma once

#include "passes/pass.hpp"

namespace antarex::passes {

/// Removes:
///  - statements after an unconditional return in a block,
///  - `if` with a literal condition (replaced by the taken branch),
///  - `while (0)` loops and `for` loops with literal-false conditions,
///  - declarations of variables that are never read, when the initializer is
///    pure (repeatedly, so chains of dead temporaries disappear),
///  - pure expression statements.
class DeadCodeEliminationPass final : public Pass {
 public:
  PassResult run(cir::Function& f) override;
};

}  // namespace antarex::passes
