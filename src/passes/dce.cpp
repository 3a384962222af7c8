#include "passes/dce.hpp"

#include <unordered_set>

#include "cir/analysis.hpp"

namespace antarex::passes {

using namespace cir;

namespace {

bool is_literal_cond(const Expr& e, bool& value) {
  if (e.kind == ExprKind::IntLit) {
    value = static_cast<const IntLit&>(e).value != 0;
    return true;
  }
  if (e.kind == ExprKind::FloatLit) {
    value = static_cast<const FloatLit&>(e).value != 0.0;
    return true;
  }
  return false;
}

/// Names read anywhere in the function (conservative: assignment targets of
/// array stores read the base; index reads count).
std::unordered_set<std::string> collect_reads(const Block& body) {
  std::unordered_set<std::string> reads;
  const auto read = [&](const Expr& e) {
    if (e.kind == ExprKind::VarRef) reads.insert(static_cast<const VarRef&>(e).name);
  };
  walk_stmts(body, [&](const Stmt& s) {
    if (s.kind == StmtKind::Assign) {
      const auto& a = static_cast<const AssignStmt&>(s);
      // Store target: VarRef target is a write, not a read; but an Index
      // target reads the base array and the index expression.
      if (a.target->kind == ExprKind::Index) walk_exprs(*a.target, read);
      walk_exprs(*a.value, read);
    } else {
      walk_exprs(s, read);
    }
  });
  return reads;
}

class Dce {
 public:
  explicit Dce(Function& f) : fn_(f) {}

  std::size_t run() {
    bool changed = true;
    // Iterate to fixpoint: removing one dead statement can make another dead.
    while (changed) {
      changed = false;
      reads_ = collect_reads(*fn_.body);
      const std::size_t before = removed_;
      simplify_block(*fn_.body);
      changed = removed_ > before;
    }
    return removed_;
  }

 private:
  void simplify_block(Block& b) {
    std::vector<StmtPtr> kept;
    kept.reserve(b.stmts.size());
    bool dead = false;  // statements after a return
    for (auto& sp : b.stmts) {
      if (dead) {
        ++removed_;
        continue;
      }
      if (!process(sp, kept)) continue;  // statement replaced/removed
      if (kept.back()->kind == StmtKind::Return) dead = true;
    }
    b.stmts = std::move(kept);
  }

  /// Returns false if the statement was dropped; otherwise appends (possibly a
  /// replacement) to `kept`.
  bool process(StmtPtr& sp, std::vector<StmtPtr>& kept) {
    Stmt& s = *sp;
    switch (s.kind) {
      case StmtKind::Block:
        simplify_block(static_cast<Block&>(s));
        break;
      case StmtKind::ExprStmt: {
        auto& es = static_cast<ExprStmt&>(s);
        if (is_pure_expr(*es.expr)) {
          ++removed_;
          return false;
        }
        break;
      }
      case StmtKind::VarDecl: {
        auto& d = static_cast<VarDeclStmt&>(s);
        if (!reads_.contains(d.name) && (!d.init || is_pure_expr(*d.init))) {
          ++removed_;
          return false;
        }
        break;
      }
      case StmtKind::Assign: {
        auto& a = static_cast<AssignStmt&>(s);
        if (a.target->kind == ExprKind::VarRef &&
            !reads_.contains(static_cast<VarRef&>(*a.target).name) &&
            is_pure_expr(*a.value)) {
          ++removed_;
          return false;
        }
        break;
      }
      case StmtKind::If: {
        auto& i = static_cast<IfStmt&>(s);
        bool cond_value = false;
        if (is_literal_cond(*i.cond, cond_value)) {
          ++removed_;
          std::unique_ptr<Block> taken =
              cond_value ? std::move(i.then_block) : std::move(i.else_block);
          if (!taken) return false;
          simplify_block(*taken);
          kept.push_back(std::move(taken));
          return true;
        }
        simplify_block(*i.then_block);
        if (i.else_block) {
          simplify_block(*i.else_block);
          if (i.else_block->stmts.empty()) i.else_block.reset();
        }
        break;
      }
      case StmtKind::For: {
        auto& f = static_cast<ForStmt&>(s);
        bool cond_value = true;
        if (f.cond && is_literal_cond(*f.cond, cond_value) && !cond_value) {
          // Loop body never runs; the init may still have effects.
          ++removed_;
          if (f.init && !(f.init->kind == StmtKind::VarDecl)) {
            kept.push_back(std::move(f.init));
            return true;
          }
          return false;
        }
        simplify_block(*f.body);
        break;
      }
      case StmtKind::While: {
        auto& w = static_cast<WhileStmt&>(s);
        bool cond_value = true;
        if (is_literal_cond(*w.cond, cond_value) && !cond_value) {
          ++removed_;
          return false;
        }
        simplify_block(*w.body);
        break;
      }
      default:
        break;
    }
    kept.push_back(std::move(sp));
    return true;
  }

  Function& fn_;
  std::unordered_set<std::string> reads_;
  std::size_t removed_ = 0;
};

}  // namespace

PassResult DeadCodeEliminationPass::run(Function& f) {
  PassResult result;
  if (!f.body) return result;
  result.actions = Dce(f).run();
  result.changed = result.actions > 0;
  return result;
}

}  // namespace antarex::passes
