#include "cir/analysis.hpp"

#include <algorithm>
#include <iterator>
#include <unordered_set>

#include "support/strings.hpp"

namespace antarex::cir {

namespace {

// One template per walker serves both constnesses: `B`, `S` and `E` are the
// node type, const or not.

template <class B, class Fn>
void walk_block(B& b, const Fn& fn) {
  for (auto& sp : b.stmts) {
    like_t<B, Stmt>& s = *sp;
    fn(s);
    // For-header statements are visited, not descended into.
    for_each_child(s, skip, fn, [&](B& child) { walk_block(child, fn); });
  }
}

template <class E, class Fn>
void walk_tree(E& e, const Fn& fn) {
  fn(e);
  for_each_operand(e, [&](auto& slot, bool) { walk_tree<E>(*slot, fn); });
}

/// The statement's own expression slots only: not its for-header
/// statements', nor those of its child blocks.
template <class S, class Fn>
void walk_own_exprs(S& s, const Fn& fn) {
  for_each_child(s, [&](auto& slot, bool) { walk_tree<like_t<S, Expr>>(*slot, fn); },
                 skip, skip);
}

/// Calls anywhere in a statement of `b`, its for-header included, anchor at
/// that statement; calls in its child blocks anchor in those blocks.
void collect_calls(Function& f, Block& b, std::vector<CallSite>& out) {
  for (std::size_t i = 0; i < b.stmts.size(); ++i) {
    const auto anchor_here = [&](Stmt& s) {
      walk_exprs(s, [&](Expr& e) {
        if (e.kind == ExprKind::Call)
          out.push_back(CallSite{static_cast<CallExpr*>(&e), &f, &b, i});
      });
    };
    anchor_here(*b.stmts[i]);
    for_each_child(*b.stmts[i], skip, anchor_here,
                   [&](Block& child) { collect_calls(f, child, out); });
  }
}

}  // namespace

void walk_stmts(Block& b, const std::function<void(Stmt&)>& fn) { walk_block(b, fn); }

void walk_stmts(const Block& b, const std::function<void(const Stmt&)>& fn) {
  walk_block(b, fn);
}

void walk_exprs(Expr& e, const std::function<void(Expr&)>& fn) { walk_tree(e, fn); }

void walk_exprs(const Expr& e, const std::function<void(const Expr&)>& fn) {
  walk_tree(e, fn);
}

void walk_exprs(Stmt& s, const std::function<void(Expr&)>& fn) { walk_own_exprs(s, fn); }

void walk_exprs(const Stmt& s, const std::function<void(const Expr&)>& fn) {
  walk_own_exprs(s, fn);
}

std::vector<CallSite> collect_call_sites(Function& f) {
  std::vector<CallSite> out;
  if (f.body) collect_calls(f, *f.body, out);
  return out;
}

std::vector<ForStmt*> collect_for_loops(Function& f) {
  std::vector<ForStmt*> out;
  if (f.body)
    walk_stmts(*f.body, [&](Stmt& s) {
      if (s.kind == StmtKind::For) out.push_back(static_cast<ForStmt*>(&s));
    });
  return out;
}

namespace {

/// Extract (var, constant) from a canonical init: `int i = C` or `i = C`.
std::optional<std::pair<std::string, i64>> canonical_init(const Stmt& init) {
  if (init.kind == StmtKind::VarDecl) {
    const auto& d = static_cast<const VarDeclStmt&>(init);
    if (d.type == Type::Int && d.init && d.init->kind == ExprKind::IntLit)
      return {{d.name, static_cast<const IntLit&>(*d.init).value}};
  } else if (init.kind == StmtKind::Assign) {
    const auto& a = static_cast<const AssignStmt&>(init);
    if (a.target->kind == ExprKind::VarRef && a.value->kind == ExprKind::IntLit)
      return {{static_cast<const VarRef&>(*a.target).name,
               static_cast<const IntLit&>(*a.value).value}};
  }
  return std::nullopt;
}

/// Extract step constant from `i = i + C` / `i = i - C` (including the
/// desugared forms of i++, i += C).
std::optional<i64> canonical_step(const Stmt& step, const std::string& var) {
  if (step.kind != StmtKind::Assign) return std::nullopt;
  const auto& a = static_cast<const AssignStmt&>(step);
  if (a.target->kind != ExprKind::VarRef ||
      static_cast<const VarRef&>(*a.target).name != var)
    return std::nullopt;
  if (a.value->kind != ExprKind::Binary) return std::nullopt;
  const auto& b = static_cast<const BinaryExpr&>(*a.value);
  if (b.op != BinOp::Add && b.op != BinOp::Sub) return std::nullopt;
  if (b.lhs->kind != ExprKind::VarRef ||
      static_cast<const VarRef&>(*b.lhs).name != var)
    return std::nullopt;
  if (b.rhs->kind != ExprKind::IntLit) return std::nullopt;
  const i64 c = static_cast<const IntLit&>(*b.rhs).value;
  return b.op == BinOp::Add ? c : -c;
}

struct CondFacts {
  BinOp op;
  i64 bound;
};

/// Extract `var <relop> C` from the condition.
std::optional<CondFacts> canonical_cond(const Expr& cond, const std::string& var) {
  if (cond.kind != ExprKind::Binary) return std::nullopt;
  const auto& b = static_cast<const BinaryExpr&>(cond);
  if (b.op != BinOp::Lt && b.op != BinOp::Le && b.op != BinOp::Gt && b.op != BinOp::Ge)
    return std::nullopt;
  if (b.lhs->kind != ExprKind::VarRef ||
      static_cast<const VarRef&>(*b.lhs).name != var)
    return std::nullopt;
  if (b.rhs->kind != ExprKind::IntLit) return std::nullopt;
  return CondFacts{b.op, static_cast<const IntLit&>(*b.rhs).value};
}

}  // namespace

LoopFacts analyze_loop(const ForStmt& loop) {
  LoopFacts facts;

  bool nested_loop = false;
  walk_stmts(*loop.body, [&](const Stmt& s) {
    if (s.kind == StmtKind::For || s.kind == StmtKind::While) nested_loop = true;
  });
  facts.is_innermost = !nested_loop;

  if (!loop.init || !loop.cond || !loop.step) return facts;
  const auto init = canonical_init(*loop.init);
  if (!init) return facts;
  const auto& [var, c0] = *init;
  const auto step = canonical_step(*loop.step, var);
  if (!step || *step == 0) return facts;
  const auto cond = canonical_cond(*loop.cond, var);
  if (!cond) return facts;
  // Induction variable must not be written inside the body, and the body must
  // not break out early.
  if (is_var_modified(*loop.body, var)) return facts;
  bool has_break = false;
  walk_stmts(*loop.body, [&](const Stmt& s) {
    if (s.kind == StmtKind::Break) has_break = true;
  });
  if (has_break) return facts;

  facts.induction_var = var;
  facts.lower_bound = c0;
  facts.step = *step;

  const i64 s = *step;
  const i64 c1 = cond->bound;
  i64 count = 0;
  switch (cond->op) {
    case BinOp::Lt:
      if (s > 0 && c0 < c1) count = (c1 - c0 + s - 1) / s;
      break;
    case BinOp::Le:
      if (s > 0 && c0 <= c1) count = (c1 - c0) / s + 1;
      break;
    case BinOp::Gt:
      if (s < 0 && c0 > c1) count = (c0 - c1 + (-s) - 1) / (-s);
      break;
    case BinOp::Ge:
      if (s < 0 && c0 >= c1) count = (c0 - c1) / (-s) + 1;
      break;
    default:
      return facts;
  }
  // count==0 is a legitimate static fact (loop never runs) only when the
  // direction matches; a mismatched direction means "cannot tell" (infinite).
  const bool direction_ok = (s > 0 && (cond->op == BinOp::Lt || cond->op == BinOp::Le)) ||
                            (s < 0 && (cond->op == BinOp::Gt || cond->op == BinOp::Ge));
  if (direction_ok) facts.trip_count = count;
  return facts;
}

void for_each_expr_slot(Stmt& s,
                        const std::function<void(ExprPtr&, bool)>& fn) {
  for_each_child(s, fn, [&](Stmt& header) { for_each_expr_slot(header, fn); },
                 [&](Block& child) { for_each_expr_slot(child, fn); });
}

void for_each_expr_slot(Block& b,
                        const std::function<void(ExprPtr&, bool)>& fn) {
  for (auto& sp : b.stmts) for_each_expr_slot(*sp, fn);
}

ExprPtr* read_part(ExprPtr& slot, bool is_store_target) {
  if (!is_store_target) return &slot;
  if (slot->kind == ExprKind::Index) return &static_cast<IndexExpr&>(*slot).index;
  return nullptr;
}

bool is_var_modified(const Block& b, const std::string& name) {
  bool modified = false;
  walk_stmts(b, [&](const Stmt& s) {
    if (s.kind == StmtKind::Assign) {
      const auto& a = static_cast<const AssignStmt&>(s);
      if (a.target->kind == ExprKind::VarRef &&
          static_cast<const VarRef&>(*a.target).name == name)
        modified = true;
    } else if (s.kind == StmtKind::VarDecl) {
      if (static_cast<const VarDeclStmt&>(s).name == name) modified = true;
    }
  });
  return modified;
}

std::size_t substitute_vars(ExprPtr& e,
                            const std::function<const Expr*(const std::string&)>& lookup) {
  if (e->kind == ExprKind::VarRef) {
    if (const Expr* replacement = lookup(static_cast<VarRef&>(*e).name)) {
      e = replacement->clone();
      return 1;
    }
  }
  std::size_t count = 0;
  for_each_operand(*e, [&](ExprPtr& child, bool) { count += substitute_vars(child, lookup); });
  return count;
}

std::size_t substitute_var(Block& b, const std::string& name, const Expr& replacement) {
  std::size_t count = 0;
  const std::function<const Expr*(const std::string&)> lookup =
      [&](const std::string& var) { return var == name ? &replacement : nullptr; };
  // Body and for-header statements alike: every read, including the index
  // of an array store target.
  const auto rewrite_reads = [&](ExprPtr& slot, bool is_store_target) {
    if (ExprPtr* read = read_part(slot, is_store_target))
      count += substitute_vars(*read, lookup);
  };
  for (auto& sp : b.stmts)
    for_each_child(
        *sp, rewrite_reads,
        [&](Stmt& header) { for_each_child(header, rewrite_reads, skip, skip); },
        [&](Block& child) { count += substitute_var(child, name, replacement); });
  return count;
}

namespace {

class Checker {
 public:
  explicit Checker(const Module& m) : module_(m) {}

  std::vector<Diagnostic> run() {
    for (const auto& f : module_.functions) check_function(*f);
    return std::move(diags_);
  }

 private:
  void error(SourceLoc loc, std::string msg) {
    diags_.push_back({loc, std::move(msg)});
  }

  void check_function(const Function& f) {
    scopes_.clear();
    scopes_.emplace_back();
    current_ = &f;
    loop_depth_ = 0;
    for (const auto& p : f.params) declare(f.loc, p.name);
    check_block_inner(*f.body);
    if (f.return_type != Type::Void && !always_returns(*f.body))
      error(f.loc, format("function '%s' may fall off the end without returning a value",
                          f.name.c_str()));
    scopes_.pop_back();
  }

  void declare(SourceLoc loc, const std::string& name) {
    if (scopes_.back().contains(name))
      error(loc, format("redeclaration of '%s' in the same scope", name.c_str()));
    scopes_.back().insert(name);
  }

  bool is_declared(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it)
      if (it->contains(name)) return true;
    return false;
  }

  void check_block(const Block& b) {
    scopes_.emplace_back();
    check_block_inner(b);
    scopes_.pop_back();
  }

  void check_block_inner(const Block& b) {
    for (const auto& sp : b.stmts) check_stmt(*sp);
  }

  void check_stmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::Block:
        check_block(static_cast<const Block&>(s));
        break;
      case StmtKind::ExprStmt:
        check_expr(*static_cast<const ExprStmt&>(s).expr);
        break;
      case StmtKind::VarDecl: {
        const auto& d = static_cast<const VarDeclStmt&>(s);
        if (d.init) check_expr(*d.init);
        declare(d.loc, d.name);
        break;
      }
      case StmtKind::Assign: {
        const auto& a = static_cast<const AssignStmt&>(s);
        check_expr(*a.target);
        check_expr(*a.value);
        break;
      }
      case StmtKind::If: {
        const auto& i = static_cast<const IfStmt&>(s);
        check_expr(*i.cond);
        check_block(*i.then_block);
        if (i.else_block) check_block(*i.else_block);
        break;
      }
      case StmtKind::For: {
        const auto& f = static_cast<const ForStmt&>(s);
        scopes_.emplace_back();  // for-init scope
        if (f.init) check_stmt(*f.init);
        if (f.cond) check_expr(*f.cond);
        if (f.step) check_stmt(*f.step);
        ++loop_depth_;
        check_block(*f.body);
        --loop_depth_;
        scopes_.pop_back();
        break;
      }
      case StmtKind::While: {
        const auto& w = static_cast<const WhileStmt&>(s);
        check_expr(*w.cond);
        ++loop_depth_;
        check_block(*w.body);
        --loop_depth_;
        break;
      }
      case StmtKind::Return: {
        const auto& r = static_cast<const ReturnStmt&>(s);
        if (r.value) check_expr(*r.value);
        if (current_->return_type == Type::Void && r.value)
          error(r.loc, "void function returns a value");
        if (current_->return_type != Type::Void && !r.value)
          error(r.loc, "non-void function returns without a value");
        break;
      }
      case StmtKind::Break:
        if (loop_depth_ == 0) error(s.loc, "'break' outside of a loop");
        break;
      case StmtKind::Continue:
        if (loop_depth_ == 0) error(s.loc, "'continue' outside of a loop");
        break;
    }
  }

  void check_expr(const Expr& e) {
    walk_exprs(e, [&](const Expr& x) {
      if (x.kind == ExprKind::VarRef) {
        const auto& v = static_cast<const VarRef&>(x);
        if (!is_declared(v.name))
          error(v.loc, format("use of undeclared variable '%s'", v.name.c_str()));
      } else if (x.kind == ExprKind::Call) {
        const auto& c = static_cast<const CallExpr&>(x);
        if (const Function* callee = module_.find(c.callee)) {
          if (callee->params.size() != c.args.size())
            error(c.loc, format("call to '%s' with %zu arguments, expected %zu",
                                c.callee.c_str(), c.args.size(),
                                callee->params.size()));
        } else if (std::ranges::find(kBuiltinCallees, c.callee, &BuiltinCallee::name) ==
                   std::end(kBuiltinCallees)) {
          error(c.loc, format("call to unknown function '%s'", c.callee.c_str()));
        }
      }
    });
  }

  /// Conservative "all paths return": last statement is a return, or an
  /// if/else where both arms always return.
  static bool always_returns(const Block& b) {
    for (auto it = b.stmts.rbegin(); it != b.stmts.rend(); ++it) {
      const Stmt& s = **it;
      if (s.kind == StmtKind::Return) return true;
      if (s.kind == StmtKind::If) {
        const auto& i = static_cast<const IfStmt&>(s);
        if (i.else_block && always_returns(*i.then_block) &&
            always_returns(*i.else_block))
          return true;
      }
      if (s.kind == StmtKind::Block && always_returns(static_cast<const Block&>(s)))
        return true;
      // While/for loops do not guarantee a return; keep scanning earlier
      // statements only if this one is unreachable-neutral — conservatively
      // stop at the first non-returning trailing statement.
      return false;
    }
    return false;
  }

  const Module& module_;
  const Function* current_ = nullptr;
  std::vector<std::unordered_set<std::string>> scopes_;
  int loop_depth_ = 0;
  std::vector<Diagnostic> diags_;
};

}  // namespace

std::vector<Diagnostic> check_module(const Module& m) { return Checker(m).run(); }

}  // namespace antarex::cir
