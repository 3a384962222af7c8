#include "passes/pass.hpp"

#include <algorithm>
#include <iterator>

#include "cir/analysis.hpp"

namespace antarex::passes {

bool is_pure_expr(const cir::Expr& e) {
  bool pure = true;
  cir::walk_exprs(e, [&](const cir::Expr& x) {
    if (x.kind != cir::ExprKind::Call) return;
    const auto it = std::ranges::find(cir::kBuiltinCallees,
                                      static_cast<const cir::CallExpr&>(x).callee,
                                      &cir::BuiltinCallee::name);
    if (it == std::end(cir::kBuiltinCallees) || !it->pure) pure = false;
  });
  return pure;
}

bool is_int_lit(const cir::Expr& e, i64 v) {
  return e.kind == cir::ExprKind::IntLit && static_cast<const cir::IntLit&>(e).value == v;
}

}  // namespace antarex::passes
