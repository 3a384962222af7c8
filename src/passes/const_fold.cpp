#include "passes/const_fold.hpp"

#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "cir/analysis.hpp"

namespace antarex::passes {

using namespace cir;

namespace {

bool is_lit(const Expr& e) {
  return e.kind == ExprKind::IntLit || e.kind == ExprKind::FloatLit;
}

double lit_value(const Expr& e) {
  return e.kind == ExprKind::IntLit
             ? static_cast<double>(static_cast<const IntLit&>(e).value)
             : static_cast<const FloatLit&>(e).value;
}

/// Fold a binop of two literals. Integer semantics when both are IntLit.
ExprPtr fold_literal_binop(BinOp op, const Expr& l, const Expr& r) {
  const bool both_int = l.kind == ExprKind::IntLit && r.kind == ExprKind::IntLit;
  if (both_int) {
    const i64 a = static_cast<const IntLit&>(l).value;
    const i64 b = static_cast<const IntLit&>(r).value;
    switch (op) {
      case BinOp::Add: return make_int(a + b);
      case BinOp::Sub: return make_int(a - b);
      case BinOp::Mul: return make_int(a * b);
      case BinOp::Div: return b == 0 ? nullptr : make_int(a / b);
      case BinOp::Mod: return b == 0 ? nullptr : make_int(a % b);
      case BinOp::Lt: return make_int(a < b);
      case BinOp::Le: return make_int(a <= b);
      case BinOp::Gt: return make_int(a > b);
      case BinOp::Ge: return make_int(a >= b);
      case BinOp::Eq: return make_int(a == b);
      case BinOp::Ne: return make_int(a != b);
      case BinOp::And: return make_int(a != 0 && b != 0);
      case BinOp::Or: return make_int(a != 0 || b != 0);
    }
    return nullptr;
  }
  const double a = lit_value(l);
  const double b = lit_value(r);
  switch (op) {
    case BinOp::Add: return make_float(a + b);
    case BinOp::Sub: return make_float(a - b);
    case BinOp::Mul: return make_float(a * b);
    case BinOp::Div: return b == 0.0 ? nullptr : make_float(a / b);
    case BinOp::Mod: return b == 0.0 ? nullptr : make_float(std::fmod(a, b));
    case BinOp::Lt: return make_int(a < b);
    case BinOp::Le: return make_int(a <= b);
    case BinOp::Gt: return make_int(a > b);
    case BinOp::Ge: return make_int(a >= b);
    case BinOp::Eq: return make_int(a == b);
    case BinOp::Ne: return make_int(a != b);
    case BinOp::And: return make_int(a != 0.0 && b != 0.0);
    case BinOp::Or: return make_int(a != 0.0 || b != 0.0);
  }
  return nullptr;
}

std::size_t fold_tree(ExprPtr& e) {
  std::size_t folds = 0;
  // Children first. An index base names an array and stays.
  for_each_operand(*e, [&](ExprPtr& child, bool is_index_base) {
    if (!is_index_base) folds += fold_tree(child);
  });
  switch (e->kind) {
    case ExprKind::Unary: {
      auto& u = static_cast<UnaryExpr&>(*e);
      if (u.op == UnOp::Neg && u.operand->kind == ExprKind::IntLit) {
        e = make_int(-static_cast<IntLit&>(*u.operand).value);
        ++folds;
      } else if (u.op == UnOp::Neg && u.operand->kind == ExprKind::FloatLit) {
        e = make_float(-static_cast<FloatLit&>(*u.operand).value);
        ++folds;
      } else if (u.op == UnOp::Not && is_lit(*u.operand)) {
        e = make_int(lit_value(*u.operand) == 0.0 ? 1 : 0);
        ++folds;
      }
      break;
    }
    case ExprKind::Binary: {
      auto& b = static_cast<BinaryExpr&>(*e);
      if (is_lit(*b.lhs) && is_lit(*b.rhs)) {
        if (ExprPtr folded = fold_literal_binop(b.op, *b.lhs, *b.rhs)) {
          folded->loc = e->loc;
          e = std::move(folded);
          ++folds;
        }
        break;
      }
      // Algebraic identities (checked with integer-literal neutral elements;
      // also safe for float operands since 0/1 are exact).
      auto take = [&](ExprPtr& keep) {
        ExprPtr kept = std::move(keep);
        kept->loc = e->loc;
        e = std::move(kept);
        ++folds;
      };
      switch (b.op) {
        case BinOp::Add:
          if (is_int_lit(*b.rhs, 0)) take(b.lhs);
          else if (is_int_lit(*b.lhs, 0)) take(b.rhs);
          break;
        case BinOp::Sub:
          if (is_int_lit(*b.rhs, 0)) take(b.lhs);
          break;
        case BinOp::Mul:
          if (is_int_lit(*b.rhs, 1)) take(b.lhs);
          else if (is_int_lit(*b.lhs, 1)) take(b.rhs);
          else if ((is_int_lit(*b.rhs, 0) && is_pure_expr(*b.lhs)) ||
                   (is_int_lit(*b.lhs, 0) && is_pure_expr(*b.rhs))) {
            e = make_int(0);
            ++folds;
          }
          break;
        case BinOp::Div:
          if (is_int_lit(*b.rhs, 1)) take(b.lhs);
          break;
        default:
          break;
      }
      break;
    }
    default:
      break;
  }
  return folds;
}

/// Variables eligible for function-wide constant propagation: declared exactly
/// once, with an integer/float literal initializer, and never re-assigned.
std::unordered_map<std::string, const Expr*> propagatable_constants(Function& f) {
  std::unordered_map<std::string, int> decl_count;
  std::unordered_map<std::string, const Expr*> init;
  std::unordered_set<std::string> assigned;
  walk_stmts(*f.body, [&](Stmt& s) {
    if (s.kind == StmtKind::VarDecl) {
      auto& d = static_cast<VarDeclStmt&>(s);
      ++decl_count[d.name];
      if (d.init && is_lit(*d.init)) init[d.name] = d.init.get();
    } else if (s.kind == StmtKind::Assign) {
      auto& a = static_cast<AssignStmt&>(s);
      if (a.target->kind == ExprKind::VarRef)
        assigned.insert(static_cast<VarRef&>(*a.target).name);
    }
  });
  // Parameters shadow nothing here; remove names that are params (their value
  // is not the initializer).
  std::unordered_map<std::string, const Expr*> out;
  for (auto& [name, expr] : init) {
    if (decl_count[name] == 1 && !assigned.contains(name) &&
        f.param_index(name) < 0)
      out[name] = expr;
  }
  return out;
}

}  // namespace

PassResult ConstantFoldPass::run(Function& f) {
  PassResult result;
  if (!f.body) return result;

  // 1. Propagate single-assignment literal locals into their uses.
  const auto constants = propagatable_constants(f);
  for (const auto& [name, lit] : constants) {
    // substitute_var only rewrites reads; the (single) declaration remains and
    // DCE removes it once unused.
    result.actions += substitute_var(*f.body, name, *lit);
  }

  // 2. Fold every expression tree.
  for_each_expr_slot(*f.body, [&](ExprPtr& slot, bool is_store_target) {
    if (ExprPtr* read = read_part(slot, is_store_target)) result.actions += fold_tree(*read);
  });

  result.changed = result.actions > 0;
  return result;
}

}  // namespace antarex::passes
