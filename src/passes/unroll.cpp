#include "passes/unroll.hpp"

#include <unordered_set>

#include "cir/analysis.hpp"

namespace antarex::passes {

using namespace cir;

namespace {

/// Finds the owning slot of `target` anywhere under `b` (recursively).
StmtPtr* find_stmt_slot(Block& b, const Stmt* target) {
  StmtPtr* found = nullptr;
  for (auto& sp : b.stmts) {
    if (sp.get() == target) return &sp;
    for_each_child(*sp, skip, skip, [&](Block& child) {
      if (!found) found = find_stmt_slot(child, target);
    });
    if (found) return found;
  }
  return nullptr;
}

/// True if the block contains a `continue` that would bind to this loop
/// (i.e., not nested inside an inner loop).
bool has_toplevel_continue(const Block& b) {
  bool found = false;
  for (const auto& sp : b.stmts) {
    const Stmt& s = *sp;
    if (s.kind == StmtKind::Continue) return true;
    // For/While re-bind continue; do not descend.
    if (s.kind == StmtKind::For || s.kind == StmtKind::While) continue;
    for_each_child(s, skip, skip, [&](const Block& child) {
      found = found || has_toplevel_continue(child);
    });
    if (found) return true;
  }
  return false;
}

struct Eligibility {
  bool ok = false;
  LoopFacts facts;
};

Eligibility check_eligible(const ForStmt& loop) {
  Eligibility e;
  e.facts = analyze_loop(loop);
  if (!e.facts.trip_count || e.facts.induction_var.empty()) return e;
  if (has_toplevel_continue(*loop.body)) return e;
  e.ok = true;
  return e;
}

}  // namespace

bool unroll_loop_full(Function& f, const ForStmt* loop, i64 max_trip) {
  ANTAREX_REQUIRE(f.body != nullptr, "unroll: function has no body");
  StmtPtr* slot = find_stmt_slot(*f.body, loop);
  ANTAREX_REQUIRE(slot != nullptr, "unroll: loop does not belong to this function");

  const Eligibility e = check_eligible(*loop);
  if (!e.ok || *e.facts.trip_count > max_trip) return false;

  const i64 n = *e.facts.trip_count;
  const i64 c0 = *e.facts.lower_bound;
  const i64 step = *e.facts.step;
  const std::string& var = e.facts.induction_var;

  auto expansion = std::make_unique<Block>();
  expansion->loc = loop->loc;
  for (i64 k = 0; k < n; ++k) {
    auto copy = loop->body->clone_block();
    const IntLit value(c0 + k * step);
    substitute_var(*copy, var, value);
    // Splice the copy's statements; keep each iteration as a nested block so
    // iteration-local declarations do not collide.
    expansion->stmts.push_back(std::move(copy));
  }
  *slot = std::move(expansion);
  return true;
}

bool unroll_loop_partial(Function& f, const ForStmt* loop, i64 factor) {
  ANTAREX_REQUIRE(f.body != nullptr, "unroll: function has no body");
  ANTAREX_REQUIRE(factor >= 2, "unroll: partial factor must be >= 2");
  StmtPtr* slot = find_stmt_slot(*f.body, loop);
  ANTAREX_REQUIRE(slot != nullptr, "unroll: loop does not belong to this function");

  const Eligibility e = check_eligible(*loop);
  if (!e.ok) return false;
  const i64 n = *e.facts.trip_count;
  if (n < factor) return false;

  const i64 c0 = *e.facts.lower_bound;
  const i64 step = *e.facts.step;
  const std::string& var = e.facts.induction_var;

  const i64 main_iters = n / factor;
  const i64 main_end = c0 + main_iters * factor * step;  // first index of remainder

  auto result = std::make_unique<Block>();
  result->loc = loop->loc;

  // Main loop: for (v = c0; v <|> main_end_bound; v = v + factor*step) with
  // `factor` body copies, copy k substituting v -> v + k*step.
  {
    auto init = std::make_unique<VarDeclStmt>(Type::Int, var, make_int(c0));
    ExprPtr cond = make_binary(step > 0 ? BinOp::Lt : BinOp::Gt, make_var(var),
                               make_int(main_end));
    auto step_stmt = std::make_unique<AssignStmt>(
        make_var(var),
        make_binary(BinOp::Add, make_var(var), make_int(factor * step)));
    auto body = std::make_unique<Block>();
    for (i64 k = 0; k < factor; ++k) {
      auto copy = loop->body->clone_block();
      if (k > 0) {
        const BinaryExpr offset(BinOp::Add, make_var(var), make_int(k * step));
        substitute_var(*copy, var, offset);
      }
      body->stmts.push_back(std::move(copy));
    }
    result->stmts.push_back(std::make_unique<ForStmt>(
        std::move(init), std::move(cond), std::move(step_stmt), std::move(body)));
  }

  // Remainder loop: the leftover n % factor iterations, fully expanded.
  const i64 rem = n % factor;
  for (i64 k = 0; k < rem; ++k) {
    auto copy = loop->body->clone_block();
    const IntLit value(main_end + k * step);
    substitute_var(*copy, var, value);
    result->stmts.push_back(std::move(copy));
  }

  *slot = std::move(result);
  return true;
}

PassResult FullUnrollPass::run(Function& f) {
  PassResult result;
  if (!f.body) return result;
  // Re-collect after each successful unroll: the transformation invalidates
  // pointers into the replaced subtree.
  bool progress = true;
  while (progress) {
    progress = false;
    for (ForStmt* loop : collect_for_loops(f)) {
      const LoopFacts facts = analyze_loop(*loop);
      if (!facts.is_innermost) continue;  // bottom-up: innermost first
      if (unroll_loop_full(f, loop, max_trip_)) {
        ++result.actions;
        progress = true;
        break;
      }
    }
  }
  result.changed = result.actions > 0;
  return result;
}

PassResult PartialUnrollPass::run(Function& f) {
  PassResult result;
  if (!f.body) return result;
  // Snapshot eligible loops by node id so the pass never re-processes the
  // main loops it generates (clones and new loops get fresh ids).
  std::unordered_set<NodeId> pending;
  for (ForStmt* loop : collect_for_loops(f)) {
    const LoopFacts facts = analyze_loop(*loop);
    if (facts.trip_count && *facts.trip_count >= 2 * factor_)
      pending.insert(loop->id);
  }
  while (!pending.empty()) {
    ForStmt* target = nullptr;
    for (ForStmt* loop : collect_for_loops(f)) {
      if (pending.contains(loop->id)) {
        target = loop;
        break;
      }
    }
    if (!target) break;  // remaining ids were destroyed by earlier unrolls
    pending.erase(target->id);
    if (unroll_loop_partial(f, target, factor_)) ++result.actions;
  }
  result.changed = result.actions > 0;
  return result;
}

}  // namespace antarex::passes
