#include "passes/strength.hpp"

#include "cir/analysis.hpp"

namespace antarex::passes {

using namespace cir;

namespace {

bool is_float_lit(const Expr& e, double v) {
  return e.kind == ExprKind::FloatLit && static_cast<const FloatLit&>(e).value == v;
}

std::size_t reduce_tree(ExprPtr& e) {
  std::size_t n = 0;
  // Bottom-up: children first. An index base names an array and stays.
  for_each_operand(*e, [&](ExprPtr& child, bool is_index_base) {
    if (!is_index_base) n += reduce_tree(child);
  });

  if (e->kind == ExprKind::Call) {
    auto& c = static_cast<CallExpr&>(*e);
    if (c.callee == "pow" && c.args.size() == 2 && is_pure_expr(*c.args[0])) {
      if (is_int_lit(*c.args[1], 1) || is_float_lit(*c.args[1], 1.0)) {
        e = std::move(c.args[0]);
        return n + 1;
      }
      if (is_int_lit(*c.args[1], 2) || is_float_lit(*c.args[1], 2.0)) {
        ExprPtr x = std::move(c.args[0]);
        ExprPtr x2 = x->clone();
        e = make_binary(BinOp::Mul, std::move(x), std::move(x2));
        return n + 1;
      }
      if (is_int_lit(*c.args[1], 3) || is_float_lit(*c.args[1], 3.0)) {
        ExprPtr x = std::move(c.args[0]);
        ExprPtr sq = make_binary(BinOp::Mul, x->clone(), x->clone());
        e = make_binary(BinOp::Mul, std::move(sq), std::move(x));
        return n + 1;
      }
      if (is_float_lit(*c.args[1], 0.5)) {
        std::vector<ExprPtr> args;
        args.push_back(std::move(c.args[0]));
        e = make_call("sqrt", std::move(args));
        return n + 1;
      }
    }
  } else if (e->kind == ExprKind::Binary) {
    auto& b = static_cast<BinaryExpr&>(*e);
    if (b.op == BinOp::Mul) {
      if (is_int_lit(*b.rhs, 2) && is_pure_expr(*b.lhs)) {
        ExprPtr x = std::move(b.lhs);
        ExprPtr x2 = x->clone();
        e = make_binary(BinOp::Add, std::move(x), std::move(x2));
        return n + 1;
      }
      if (is_int_lit(*b.lhs, 2) && is_pure_expr(*b.rhs)) {
        ExprPtr x = std::move(b.rhs);
        ExprPtr x2 = x->clone();
        e = make_binary(BinOp::Add, std::move(x), std::move(x2));
        return n + 1;
      }
    }
  }
  return n;
}

}  // namespace

PassResult StrengthReductionPass::run(Function& f) {
  PassResult result;
  if (!f.body) return result;
  for_each_expr_slot(*f.body, [&](ExprPtr& slot, bool is_store_target) {
    if (ExprPtr* read = read_part(slot, is_store_target)) result.actions += reduce_tree(*read);
  });
  result.changed = result.actions > 0;
  return result;
}

}  // namespace antarex::passes
