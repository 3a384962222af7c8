// Structural analyses over the mini-C AST.
//
// These provide the attributes the DSL join-point model exposes to aspects
// ($loop.isInnermost, $loop.numIter, $fCall.argList, ...) and the facts the
// transformation passes need (static trip counts, induction variables,
// side-effect queries).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cir/ast.hpp"

namespace antarex::cir {

// ---------------------------------------------------------------------------
// Generic walkers (preorder).
// ---------------------------------------------------------------------------

/// Visit every statement in the block, recursively (including nested blocks,
/// loop bodies, branch bodies, and for-header init/step statements).
void walk_stmts(Block& b, const std::function<void(Stmt&)>& fn);
void walk_stmts(const Block& b, const std::function<void(const Stmt&)>& fn);

/// Visit every expression in a statement's own slots, recursively: not those
/// of its child blocks, and of a for loop only the condition (walk_stmts
/// visits its init and step as statements).
void walk_exprs(Stmt& s, const std::function<void(Expr&)>& fn);
void walk_exprs(const Stmt& s, const std::function<void(const Expr&)>& fn);
/// Visit an expression and every operand below it, index bases included.
void walk_exprs(Expr& e, const std::function<void(Expr&)>& fn);
void walk_exprs(const Expr& e, const std::function<void(const Expr&)>& fn);

// ---------------------------------------------------------------------------
// Join-point collections.
// ---------------------------------------------------------------------------

/// A call expression plus enough context to insert statements around the
/// statement that (transitively) contains it — the weaver's `insert before`.
struct CallSite {
  CallExpr* call = nullptr;
  Function* func = nullptr;      ///< enclosing function
  Block* block = nullptr;        ///< block owning the containing statement
  std::size_t stmt_index = 0;    ///< index of the containing statement in block
};

std::vector<CallSite> collect_call_sites(Function& f);

/// All counted FOR loops in a function, outermost first.
std::vector<ForStmt*> collect_for_loops(Function& f);

// ---------------------------------------------------------------------------
// Loop facts.
// ---------------------------------------------------------------------------

struct LoopFacts {
  bool is_innermost = false;              ///< no For/While nested inside
  std::optional<i64> trip_count;          ///< static trip count if derivable
  std::string induction_var;              ///< empty if not in canonical form
  std::optional<i64> lower_bound;         ///< init constant, if canonical
  std::optional<i64> step;                ///< increment constant, if canonical
};

/// Derive static facts about a for-loop. The canonical analyzable shape is
///   for (i = C0; i <relop> C1; i = i + C2)   with integer literals C0,C1,C2,
/// where relop ∈ {<, <=, >, >=} and the induction variable is not written in
/// the body. Loops outside this shape get is_innermost only.
LoopFacts analyze_loop(const ForStmt& loop);

// ---------------------------------------------------------------------------
// Owning-slot walker (for rewriting passes).
// ---------------------------------------------------------------------------

/// Visits every owning ExprPtr slot in a block, recursively: statement
/// expressions, declaration initializers, assignment targets and values,
/// branch/loop conditions, for-header init/step expressions, return values.
/// `is_store_target` is true exactly for the target slot of an assignment
/// (callbacks that rewrite reads must skip those, or rewrite their
/// `read_part`).
/// The callback may replace the pointed-to tree wholesale.
void for_each_expr_slot(Block& b,
                        const std::function<void(ExprPtr&, bool is_store_target)>& fn);
void for_each_expr_slot(Stmt& s,
                        const std::function<void(ExprPtr&, bool is_store_target)>& fn);

/// The part of a slot that is read: the slot itself, or of a store target the
/// index of an array element (null for a variable).
ExprPtr* read_part(ExprPtr& slot, bool is_store_target);

// ---------------------------------------------------------------------------
// Variable queries and substitution.
// ---------------------------------------------------------------------------

/// True if the named variable is assigned anywhere in the block
/// (Assign target or re-declaration).
bool is_var_modified(const Block& b, const std::string& name);

/// Replace every read of `name` with a clone of `replacement`.
/// Does not touch assignment targets; returns the number of replacements.
std::size_t substitute_var(Block& b, const std::string& name, const Expr& replacement);

/// Replace each variable reference in the tree at `e`, its root and index
/// bases included, for which `lookup(name)` gives an expression with a clone
/// of that expression; returns the number of replacements.
std::size_t substitute_vars(ExprPtr& e,
                            const std::function<const Expr*(const std::string&)>& lookup);

// ---------------------------------------------------------------------------
// Semantic checking.
// ---------------------------------------------------------------------------

struct Diagnostic {
  SourceLoc loc;
  std::string message;
};

/// A host function every VM engine provides, so a module calls it undeclared.
struct BuiltinCallee {
  std::string_view name;
  bool pure;  ///< cannot write memory or perform I/O
};

/// The math builtins, the print helpers, and the instrumentation probes that
/// aspects inject (paper Fig. 2). vm::Engine's host table matches it.
inline constexpr BuiltinCallee kBuiltinCallees[] = {
    {"sqrt", true},          {"fabs", true},          {"exp", true},
    {"log", true},           {"sin", true},           {"cos", true},
    {"pow", true},           {"floor", true},         {"min", true},
    {"max", true},           {"print_int", false},    {"print_float", false},
    {"profile_args", false}, {"monitor_begin", false}, {"monitor_end", false},
    {"antarex_probe", false},
};

/// Validates: variables declared before use, no duplicate declarations in a
/// scope, call arity against module-local functions, break/continue only
/// inside loops, non-void functions return on the trailing path.
std::vector<Diagnostic> check_module(const Module& m);

}  // namespace antarex::cir
