#include "passes/inline.hpp"

#include "cir/analysis.hpp"

namespace antarex::passes {

using namespace cir;

namespace {

/// Returns the single returned expression if `f` is `return <pure expr>;`.
const Expr* trivial_body(const Function& f) {
  if (!f.body || f.body->stmts.size() != 1) return nullptr;
  const Stmt& s = *f.body->stmts.front();
  if (s.kind != StmtKind::Return) return nullptr;
  const auto& r = static_cast<const ReturnStmt&>(s);
  if (!r.value || !is_pure_expr(*r.value)) return nullptr;
  return r.value.get();
}

std::size_t inline_in_tree(ExprPtr& e, const Module& module, const Function& self) {
  std::size_t n = 0;
  // Callees inside the arguments first. An index base names an array and stays.
  for_each_operand(*e, [&](ExprPtr& child, bool is_index_base) {
    if (!is_index_base) n += inline_in_tree(child, module, self);
  });
  if (e->kind != ExprKind::Call) return n;
  auto& c = static_cast<CallExpr&>(*e);
  if (c.callee == self.name) return n;  // no self-inlining
  const Function* callee = module.find(c.callee);
  if (!callee || callee->params.size() != c.args.size()) return n;
  const Expr* body = trivial_body(*callee);
  if (!body) return n;
  // All argument expressions must be pure: they may be duplicated (a
  // parameter can occur several times in the body) or dropped (parameter
  // unused).
  for (const auto& a : c.args)
    if (!is_pure_expr(*a)) return n;
  ExprPtr replacement = body->clone();
  substitute_vars(replacement, [&](const std::string& var) -> const Expr* {
    const int idx = callee->param_index(var);
    return idx >= 0 ? c.args[static_cast<std::size_t>(idx)].get() : nullptr;
  });
  replacement->loc = e->loc;
  e = std::move(replacement);
  return n + 1;
}

}  // namespace

PassResult InlineTrivialPass::run(Function& f) {
  PassResult result;
  if (!f.body) return result;
  for_each_expr_slot(*f.body, [&](ExprPtr& slot, bool is_store_target) {
    if (is_store_target) return;
    result.actions += inline_in_tree(slot, module_, f);
  });
  result.changed = result.actions > 0;
  return result;
}

}  // namespace antarex::passes
