// Inlining of trivial functions.
#pragma once

#include "passes/pass.hpp"

namespace antarex::passes {

/// Inlines calls to module-local functions whose body is a single
/// `return <pure expr>;` statement: the call expression is replaced by the
/// callee body with parameters substituted by the (pure) argument
/// expressions. Calls with impure arguments, or to larger callees, are left
/// alone — the VM's call overhead is exactly what iterative compilation then
/// weighs against code growth.
class InlineTrivialPass final : public Pass {
 public:
  /// Module-aware pass: needs the module to resolve callees.
  explicit InlineTrivialPass(const cir::Module& module) : module_(module) {}
  PassResult run(cir::Function& f) override;

 private:
  const cir::Module& module_;
};

}  // namespace antarex::passes
