#include "cir/analysis.hpp"

#include <unordered_map>
#include <unordered_set>

#include "support/strings.hpp"

namespace antarex::cir {

void walk_stmts(Block& b, const std::function<void(Stmt&)>& fn) {
  for (auto& sp : b.stmts) {
    Stmt& s = *sp;
    fn(s);
    switch (s.kind) {
      case StmtKind::Block:
        walk_stmts(static_cast<Block&>(s), fn);
        break;
      case StmtKind::If: {
        auto& i = static_cast<IfStmt&>(s);
        walk_stmts(*i.then_block, fn);
        if (i.else_block) walk_stmts(*i.else_block, fn);
        break;
      }
      case StmtKind::For: {
        auto& f = static_cast<ForStmt&>(s);
        if (f.init) fn(*f.init);
        if (f.step) fn(*f.step);
        walk_stmts(*f.body, fn);
        break;
      }
      case StmtKind::While:
        walk_stmts(*static_cast<WhileStmt&>(s).body, fn);
        break;
      default:
        break;
    }
  }
}

void walk_stmts(const Block& b, const std::function<void(const Stmt&)>& fn) {
  // Const overload delegates to the mutable walker on a const_cast; the
  // callback signature guarantees no mutation.
  walk_stmts(const_cast<Block&>(b),
             [&fn](Stmt& s) { fn(static_cast<const Stmt&>(s)); });
}

void walk_exprs(Expr& e, const std::function<void(Expr&)>& fn) {
  fn(e);
  switch (e.kind) {
    case ExprKind::Unary:
      walk_exprs(*static_cast<UnaryExpr&>(e).operand, fn);
      break;
    case ExprKind::Binary: {
      auto& b = static_cast<BinaryExpr&>(e);
      walk_exprs(*b.lhs, fn);
      walk_exprs(*b.rhs, fn);
      break;
    }
    case ExprKind::Call:
      for (auto& a : static_cast<CallExpr&>(e).args) walk_exprs(*a, fn);
      break;
    case ExprKind::Index: {
      auto& ix = static_cast<IndexExpr&>(e);
      walk_exprs(*ix.base, fn);
      walk_exprs(*ix.index, fn);
      break;
    }
    default:
      break;
  }
}

void walk_exprs(const Expr& e, const std::function<void(const Expr&)>& fn) {
  walk_exprs(const_cast<Expr&>(e),
             [&fn](Expr& x) { fn(static_cast<const Expr&>(x)); });
}

void walk_exprs(Stmt& s, const std::function<void(Expr&)>& fn) {
  switch (s.kind) {
    case StmtKind::ExprStmt:
      walk_exprs(*static_cast<ExprStmt&>(s).expr, fn);
      break;
    case StmtKind::VarDecl: {
      auto& d = static_cast<VarDeclStmt&>(s);
      if (d.init) walk_exprs(*d.init, fn);
      break;
    }
    case StmtKind::Assign: {
      auto& a = static_cast<AssignStmt&>(s);
      walk_exprs(*a.target, fn);
      walk_exprs(*a.value, fn);
      break;
    }
    case StmtKind::If:
      walk_exprs(*static_cast<IfStmt&>(s).cond, fn);
      break;
    case StmtKind::For: {
      auto& f = static_cast<ForStmt&>(s);
      if (f.cond) walk_exprs(*f.cond, fn);
      break;
    }
    case StmtKind::While:
      walk_exprs(*static_cast<WhileStmt&>(s).cond, fn);
      break;
    case StmtKind::Return: {
      auto& r = static_cast<ReturnStmt&>(s);
      if (r.value) walk_exprs(*r.value, fn);
      break;
    }
    default:
      break;
  }
}

void walk_exprs(const Stmt& s, const std::function<void(const Expr&)>& fn) {
  walk_exprs(const_cast<Stmt&>(s),
             [&fn](Expr& x) { fn(static_cast<const Expr&>(x)); });
}

std::vector<CallSite> collect_call_sites(Function& f) {
  std::vector<CallSite> out;
  // Recurse keeping track of the owning (block, index) of each top-level
  // statement; calls nested anywhere inside that statement report it as the
  // insertion anchor.
  std::function<void(Block&)> visit_block = [&](Block& b) {
    for (std::size_t i = 0; i < b.stmts.size(); ++i) {
      Stmt& s = *b.stmts[i];
      // Collect calls in the statement itself (header expressions included),
      // anchored at (b, i).
      walk_exprs(s, [&](Expr& e) {
        if (e.kind == ExprKind::Call) {
          out.push_back(CallSite{static_cast<CallExpr*>(&e), &f, &b, i});
        }
      });
      // Recurse into nested regions; calls there anchor to their own block.
      switch (s.kind) {
        case StmtKind::Block:
          visit_block(static_cast<Block&>(s));
          break;
        case StmtKind::If: {
          auto& st = static_cast<IfStmt&>(s);
          visit_block(*st.then_block);
          if (st.else_block) visit_block(*st.else_block);
          break;
        }
        case StmtKind::For: {
          auto& st = static_cast<ForStmt&>(s);
          // init/step call sites anchor at the loop statement itself.
          auto scan_header = [&](Stmt* hs) {
            if (!hs) return;
            walk_exprs(*hs, [&](Expr& e) {
              if (e.kind == ExprKind::Call)
                out.push_back(CallSite{static_cast<CallExpr*>(&e), &f, &b, i});
            });
          };
          scan_header(st.init.get());
          scan_header(st.step.get());
          visit_block(*st.body);
          break;
        }
        case StmtKind::While:
          visit_block(*static_cast<WhileStmt&>(s).body);
          break;
        default:
          break;
      }
    }
  };
  if (f.body) visit_block(*f.body);
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
  switch (s.kind) {
    case StmtKind::Block:
      for_each_expr_slot(static_cast<Block&>(s), fn);
      break;
    case StmtKind::ExprStmt:
      fn(static_cast<ExprStmt&>(s).expr, false);
      break;
    case StmtKind::VarDecl: {
      auto& d = static_cast<VarDeclStmt&>(s);
      if (d.init) fn(d.init, false);
      break;
    }
    case StmtKind::Assign: {
      auto& a = static_cast<AssignStmt&>(s);
      fn(a.target, true);
      fn(a.value, false);
      break;
    }
    case StmtKind::If: {
      auto& i = static_cast<IfStmt&>(s);
      fn(i.cond, false);
      for_each_expr_slot(*i.then_block, fn);
      if (i.else_block) for_each_expr_slot(*i.else_block, fn);
      break;
    }
    case StmtKind::For: {
      auto& f = static_cast<ForStmt&>(s);
      if (f.init) for_each_expr_slot(*f.init, fn);
      if (f.cond) fn(f.cond, false);
      if (f.step) for_each_expr_slot(*f.step, fn);
      for_each_expr_slot(*f.body, fn);
      break;
    }
    case StmtKind::While: {
      auto& w = static_cast<WhileStmt&>(s);
      fn(w.cond, false);
      for_each_expr_slot(*w.body, fn);
      break;
    }
    case StmtKind::Return: {
      auto& r = static_cast<ReturnStmt&>(s);
      if (r.value) fn(r.value, false);
      break;
    }
    default:
      break;
  }
}

void for_each_expr_slot(Block& b,
                        const std::function<void(ExprPtr&, bool)>& fn) {
  for (auto& sp : b.stmts) for_each_expr_slot(*sp, fn);
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

std::size_t substitute_var(Block& b, const std::string& name, const Expr& replacement) {
  std::size_t count = 0;
  // Collect parent expression slots: we must replace the ExprPtr that owns a
  // VarRef. Walk statements and rewrite expression trees in place.
  std::function<void(ExprPtr&)> rewrite = [&](ExprPtr& e) {
    if (!e) return;
    if (e->kind == ExprKind::VarRef && static_cast<VarRef&>(*e).name == name) {
      e = replacement.clone();
      ++count;
      return;
    }
    switch (e->kind) {
      case ExprKind::Unary:
        rewrite(static_cast<UnaryExpr&>(*e).operand);
        break;
      case ExprKind::Binary: {
        auto& bin = static_cast<BinaryExpr&>(*e);
        rewrite(bin.lhs);
        rewrite(bin.rhs);
        break;
      }
      case ExprKind::Call:
        for (auto& a : static_cast<CallExpr&>(*e).args) rewrite(a);
        break;
      case ExprKind::Index: {
        auto& ix = static_cast<IndexExpr&>(*e);
        // Array base stays a VarRef unless it is exactly the substituted name
        // (substituting an array with another array variable is allowed).
        rewrite(ix.base);
        rewrite(ix.index);
        break;
      }
      default:
        break;
    }
  };

  std::function<void(Block&)> visit = [&](Block& blk) {
    for (auto& sp : blk.stmts) {
      Stmt& s = *sp;
      switch (s.kind) {
        case StmtKind::Block:
          visit(static_cast<Block&>(s));
          break;
        case StmtKind::ExprStmt:
          rewrite(static_cast<ExprStmt&>(s).expr);
          break;
        case StmtKind::VarDecl:
          rewrite(static_cast<VarDeclStmt&>(s).init);
          break;
        case StmtKind::Assign: {
          auto& a = static_cast<AssignStmt&>(s);
          // Only the value side and the index of an index target are reads.
          if (a.target->kind == ExprKind::Index)
            rewrite(static_cast<IndexExpr&>(*a.target).index);
          rewrite(a.value);
          break;
        }
        case StmtKind::If: {
          auto& i = static_cast<IfStmt&>(s);
          rewrite(i.cond);
          visit(*i.then_block);
          if (i.else_block) visit(*i.else_block);
          break;
        }
        case StmtKind::For: {
          auto& f = static_cast<ForStmt&>(s);
          if (f.init && f.init->kind == StmtKind::VarDecl)
            rewrite(static_cast<VarDeclStmt&>(*f.init).init);
          else if (f.init && f.init->kind == StmtKind::Assign)
            rewrite(static_cast<AssignStmt&>(*f.init).value);
          rewrite(f.cond);
          if (f.step && f.step->kind == StmtKind::Assign)
            rewrite(static_cast<AssignStmt&>(*f.step).value);
          visit(*f.body);
          break;
        }
        case StmtKind::While: {
          auto& w = static_cast<WhileStmt&>(s);
          rewrite(w.cond);
          visit(*w.body);
          break;
        }
        case StmtKind::Return: {
          auto& r = static_cast<ReturnStmt&>(s);
          rewrite(r.value);
          break;
        }
        default:
          break;
      }
    }
  };
  visit(b);
  return count;
}

bool is_builtin_callee(const std::string& name) {
  static const std::unordered_set<std::string> builtins = {
      "sqrt", "fabs", "exp", "log", "sin", "cos", "pow", "floor", "min", "max",
      "print_int", "print_float",
      // Instrumentation probes injected by aspects (paper Fig. 2).
      "profile_args", "monitor_begin", "monitor_end", "antarex_probe",
  };
  return builtins.contains(name);
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
        } else if (!is_builtin_callee(c.callee)) {
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
