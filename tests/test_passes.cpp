// Unit tests for the compiler passes and the iterative-compilation explorer.
//
// Every transformation test checks both the structural effect (what changed in
// the AST) and, where relevant, semantic preservation (the VM computes the
// same result before and after).
#include <gtest/gtest.h>

#include "cir/analysis.hpp"
#include "cir/parser.hpp"
#include "cir/printer.hpp"
#include "passes/const_fold.hpp"
#include "passes/dce.hpp"
#include "passes/inline.hpp"
#include "passes/iterative.hpp"
#include "passes/pass_manager.hpp"
#include "passes/specialize.hpp"
#include "passes/strength.hpp"
#include "passes/unroll.hpp"
#include "vm/engine.hpp"

namespace antarex::passes {
namespace {

using cir::parse_module;
using cir::to_source;
using vm::Value;

i64 run_int(const cir::Module& m, const std::string& fn, std::vector<Value> args = {}) {
  vm::Engine e;
  e.load_module(m);
  return e.call(fn, std::move(args)).as_int();
}

u64 count_instructions(const cir::Module& m, const std::string& fn,
                       std::vector<Value> args = {}) {
  vm::Engine e;
  e.load_module(m);
  e.call(fn, std::move(args));
  return e.executed_instructions();
}

// --------------------------------------------------------------------------
// Constant folding
// --------------------------------------------------------------------------

/// Fold `expr`, the operand of `int f(int x)`'s return, with ConstantFoldPass
/// and print what the return is left with; `folds` receives the pass's count.
std::string fold(const std::string& expr, std::size_t* folds = nullptr) {
  auto m = parse_module("int f(int x) { return " + expr + "; }");
  cir::Function& f = *m->find("f");
  const PassResult r = ConstantFoldPass().run(f);
  if (folds) *folds = r.actions;
  return to_source(*static_cast<cir::ReturnStmt&>(*f.body->stmts.at(0)).value);
}

TEST(ConstFold, FoldsLiteralArithmetic) {
  std::size_t folds = 0;
  EXPECT_EQ(fold("2 + 3 * 4", &folds), "14");
  EXPECT_GT(folds, 0u);
}

TEST(ConstFold, FoldsComparisonsAndLogic) {
  EXPECT_EQ(fold("(3 < 4) && (2 == 2)"), "1");
}

TEST(ConstFold, FloatFolding) { EXPECT_EQ(fold("1.5 * 2.0 + 0.5"), "3.5"); }

TEST(ConstFold, MixedIntFloatPromotes) { EXPECT_EQ(fold("3 / 2.0"), "1.5"); }

TEST(ConstFold, DivisionByZeroNotFolded) {
  EXPECT_EQ(fold("1 / 0"), "1 / 0");  // left for the VM to raise at runtime
}

TEST(ConstFold, AlgebraicIdentities) {
  EXPECT_EQ(fold("x + 0"), "x");
  EXPECT_EQ(fold("0 + x"), "x");
  EXPECT_EQ(fold("x - 0"), "x");
  EXPECT_EQ(fold("x * 1"), "x");
  EXPECT_EQ(fold("1 * x"), "x");
  EXPECT_EQ(fold("x / 1"), "x");
  EXPECT_EQ(fold("x * 0"), "0");
}

TEST(ConstFold, ImpureTimesZeroNotFolded) {
  EXPECT_EQ(fold("launch() * 0"), "launch() * 0");
}

TEST(ConstFold, UnaryFolding) {
  EXPECT_EQ(fold("-(3 + 4)"), "-7");
  EXPECT_EQ(fold("!0"), "1");
}

TEST(ConstFold, PropagatesSingleAssignmentConstants) {
  auto m = parse_module("int f() { int k = 10; return k * k; }");
  ConstantFoldPass pass;
  const PassResult r = pass.run(*m->find("f"));
  EXPECT_TRUE(r.changed);
  EXPECT_NE(to_source(*m->find("f")).find("return 100;"), std::string::npos);
}

TEST(ConstFold, DoesNotPropagateReassignedVars) {
  auto m = parse_module("int f(int c) { int k = 10; if (c) { k = 20; } return k; }");
  ConstantFoldPass pass;
  pass.run(*m->find("f"));
  EXPECT_NE(to_source(*m->find("f")).find("return k;"), std::string::npos);
}

TEST(ConstFold, PreservesSemantics) {
  const char* src = "int f(int x) { int a = 3; int b = a * 4 + 0; return b + x * 1; }";
  auto m = parse_module(src);
  const i64 before = run_int(*m, "f", {Value::from_int(5)});
  ConstantFoldPass().run(*m->find("f"));
  EXPECT_EQ(run_int(*m, "f", {Value::from_int(5)}), before);
}

/// `src` after one run of `pass` over its function `f`.
template <class Run>
std::string after_pass(const std::string& src, PassResult* out, Run pass) {
  auto m = parse_module(src);
  cir::Function& f = *m->find("f");
  *out = pass(*m, f);
  return to_source(*f.body->stmts.at(0));
}

// Which operands the rewriting passes descend into: never the base of an
// index expression; a store target's index is folded and strength-reduced
// but not inlined.
TEST(PassDescent, IndexBasesAndStoreTargets) {
  PassResult r;
  EXPECT_EQ(after_pass("void f(int* a) { a[1 + 1] = a[2 * 1][3 - 0]; }", &r,
                       [](const cir::Module&, cir::Function& f) {
                         return ConstantFoldPass().run(f);
                       }),
            "a[2] = a[2 * 1][3];\n");
  EXPECT_EQ(r.actions, 2u);
  EXPECT_EQ(after_pass("void f(int* a, int x) { a[x * 2] = a[pow(x, 2)][pow(x, 2)]; }", &r,
                       [](const cir::Module&, cir::Function& f) {
                         return StrengthReductionPass().run(f);
                       }),
            "a[x + x] = a[pow(x, 2)][x * x];\n");
  EXPECT_EQ(r.actions, 2u);
  const auto inline_pass = [](const cir::Module& m, cir::Function& f) {
    return InlineTrivialPass(m).run(f);
  };
  EXPECT_EQ(after_pass("int one(int x) { return x; }"
                       "void f(int* a) { a[one(1)] = a[one(2)][one(3)]; }",
                       &r, inline_pass),
            "a[one(1)] = a[one(2)][3];\n");
  EXPECT_EQ(r.actions, 1u);
  // Parameters are substituted everywhere in the inlined body, bases too.
  EXPECT_EQ(after_pass("int at(int* p, int k) { return p[k]; }"
                       "void f(int* a) { print_int(at(a, 1)); }",
                       &r, inline_pass),
            "print_int(a[1]);\n");
  EXPECT_EQ(r.actions, 1u);
}

// --------------------------------------------------------------------------
// Dead code elimination
// --------------------------------------------------------------------------

TEST(Dce, RemovesCodeAfterReturn) {
  auto m = parse_module("int f() { return 1; int x = 2; x = 3; }");
  const PassResult r = DeadCodeEliminationPass().run(*m->find("f"));
  EXPECT_TRUE(r.changed);
  EXPECT_EQ(m->find("f")->body->stmts.size(), 1u);
}

TEST(Dce, FoldsConstantIf) {
  auto m = parse_module("int f() { if (1) { return 10; } else { return 20; } }");
  DeadCodeEliminationPass().run(*m->find("f"));
  const std::string src = to_source(*m->find("f"));
  EXPECT_EQ(src.find("if"), std::string::npos);
  EXPECT_NE(src.find("return 10;"), std::string::npos);
  EXPECT_EQ(run_int(*m, "f"), 10);
}

TEST(Dce, TakesElseOnFalse) {
  auto m = parse_module("int f() { if (0) { return 10; } else { return 20; } }");
  DeadCodeEliminationPass().run(*m->find("f"));
  EXPECT_EQ(run_int(*m, "f"), 20);
}

TEST(Dce, RemovesWhileFalse) {
  auto m = parse_module("int f() { int s = 1; while (0) { s = 99; } return s; }");
  DeadCodeEliminationPass().run(*m->find("f"));
  EXPECT_EQ(to_source(*m->find("f")).find("while"), std::string::npos);
}

TEST(Dce, RemovesUnusedPureDecl) {
  auto m = parse_module("int f(int x) { int unused = x * x; return x; }");
  const PassResult r = DeadCodeEliminationPass().run(*m->find("f"));
  EXPECT_TRUE(r.changed);
  EXPECT_EQ(to_source(*m->find("f")).find("unused"), std::string::npos);
}

TEST(Dce, KeepsImpureDecl) {
  auto m = parse_module(
      "int g() { return 1; } int f() { int unused = g(); return 2; }");
  DeadCodeEliminationPass().run(*m->find("f"));
  EXPECT_NE(to_source(*m->find("f")).find("g()"), std::string::npos);
}

TEST(Dce, RemovesDeadTemporaryChains) {
  auto m = parse_module(
      "int f() { int a = 1; int b = a + 1; int c = b + 1; return 7; }");
  DeadCodeEliminationPass().run(*m->find("f"));
  EXPECT_EQ(m->find("f")->body->stmts.size(), 1u);
}

TEST(Dce, RemovesPureExpressionStatement) {
  auto m = parse_module("int f(int x) { x + 1; return x; }");
  const PassResult r = DeadCodeEliminationPass().run(*m->find("f"));
  EXPECT_TRUE(r.changed);
  EXPECT_EQ(m->find("f")->body->stmts.size(), 1u);
}

TEST(Dce, PreservesSemanticsWithStores) {
  const char* src =
      "int f(int* out, int x) { if (0) { out[0] = 1; } out[1] = x; return x; }";
  auto m = parse_module(src);
  auto buf = std::make_shared<std::vector<i64>>(std::vector<i64>{0, 0});
  DeadCodeEliminationPass().run(*m->find("f"));
  run_int(*m, "f", {Value::from_int_array(buf), Value::from_int(9)});
  EXPECT_EQ((*buf)[0], 0);
  EXPECT_EQ((*buf)[1], 9);
}

// --------------------------------------------------------------------------
// Loop unrolling
// --------------------------------------------------------------------------

TEST(Unroll, FullUnrollReplacesLoop) {
  auto m = parse_module(
      "int f() { int s = 0; for (int i = 0; i < 4; i++) { s = s + i; } return s; }");
  cir::Function* f = m->find("f");
  auto loops = cir::collect_for_loops(*f);
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_TRUE(unroll_loop_full(*f, loops[0], 16));
  EXPECT_TRUE(cir::collect_for_loops(*f).empty());
  EXPECT_EQ(run_int(*m, "f"), 6);
}

TEST(Unroll, RespectsMaxTrip) {
  auto m = parse_module(
      "int f() { int s = 0; for (int i = 0; i < 100; i++) { s = s + i; } return s; }");
  cir::Function* f = m->find("f");
  EXPECT_FALSE(unroll_loop_full(*f, cir::collect_for_loops(*f)[0], 16));
  EXPECT_EQ(cir::collect_for_loops(*f).size(), 1u);
}

TEST(Unroll, SkipsNonCountableLoops) {
  auto m = parse_module(
      "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s = s + i; } return s; }");
  cir::Function* f = m->find("f");
  EXPECT_FALSE(unroll_loop_full(*f, cir::collect_for_loops(*f)[0], 16));
}

TEST(Unroll, SkipsLoopsWithToplevelContinue) {
  auto m = parse_module(
      "int f() { int s = 0; for (int i = 0; i < 4; i++) { if (i == 2) continue; "
      "s = s + i; } return s; }");
  cir::Function* f = m->find("f");
  EXPECT_FALSE(unroll_loop_full(*f, cir::collect_for_loops(*f)[0], 16));
  EXPECT_EQ(run_int(*m, "f"), 4);  // still correct: 0+1+3
}

TEST(Unroll, AllowsContinueInNestedLoop) {
  auto m = parse_module(
      "int f() { int s = 0; for (int i = 0; i < 3; i++) { "
      "for (int j = 0; j < 3; j++) { if (j == 1) continue; s = s + 1; } } return s; }");
  cir::Function* f = m->find("f");
  const i64 before = run_int(*m, "f");
  // Unroll the outer loop: legal because the continue binds to the inner one.
  auto loops = cir::collect_for_loops(*f);
  EXPECT_TRUE(unroll_loop_full(*f, loops[0], 16));
  EXPECT_EQ(run_int(*m, "f"), before);
}

TEST(Unroll, ReducesExecutedInstructions) {
  const char* src =
      "int f() { int s = 0; for (int i = 0; i < 8; i++) { s = s + i * i; } return s; }";
  auto m = parse_module(src);
  const u64 before = count_instructions(*m, "f");
  cir::Function* f = m->find("f");
  ASSERT_TRUE(unroll_loop_full(*f, cir::collect_for_loops(*f)[0], 16));
  const u64 after = count_instructions(*m, "f");
  EXPECT_LT(after, before);
}

TEST(Unroll, IterationLocalDeclsDoNotCollide) {
  auto m = parse_module(
      "int f() { int s = 0; for (int i = 0; i < 3; i++) { int t = i * 2; s = s + t; } "
      "return s; }");
  cir::Function* f = m->find("f");
  ASSERT_TRUE(unroll_loop_full(*f, cir::collect_for_loops(*f)[0], 16));
  EXPECT_TRUE(cir::check_module(*m).empty());
  EXPECT_EQ(run_int(*m, "f"), 6);
}

TEST(Unroll, FullUnrollRewritesInnerForHeaders) {
  // The outer induction variable read in an inner loop's for-header: in the
  // step, an expression statement, and in the index of an array-store init.
  const char* src =
      "int g(int* a, int v) { a[v] = a[v] + 1; return 0; }\n"
      "int f(int* a) {\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < 3; i++) {\n"
      "    for (int j = 0; j < 1; g(a, i)) { j = j + 1; s = s + i; }\n"
      "    for (a[i + 4] = 5 + i; s < 0; s = s + 1) { s = s + 1; }\n"
      "  }\n"
      "  return s;\n"
      "}\n";
  const auto run = [](const cir::Module& m) {
    auto a = std::make_shared<std::vector<i64>>(8, 0);
    const i64 ret = run_int(m, "f", {Value::from_int_array(a)});
    return std::make_pair(ret, *a);
  };
  auto m = parse_module(src);
  const auto before = run(*m);
  EXPECT_EQ(before.second, (std::vector<i64>{1, 1, 1, 0, 5, 6, 7, 0}));
  cir::Function* f = m->find("f");
  ASSERT_TRUE(unroll_loop_full(*f, cir::collect_for_loops(*f)[0], 16));
  EXPECT_EQ(cir::collect_for_loops(*f).size(), 6u) << to_source(*f);
  EXPECT_TRUE(cir::check_module(*m).empty()) << to_source(*f);
  EXPECT_EQ(run(*m), before);
}

TEST(Unroll, PassUnrollsNestedLoopsBottomUp) {
  auto m = parse_module(
      "int f() { int s = 0; for (int i = 0; i < 3; i++) { "
      "for (int j = 0; j < 2; j++) { s = s + 1; } } return s; }");
  FullUnrollPass pass(8);
  const PassResult r = pass.run(*m->find("f"));
  EXPECT_EQ(r.actions, 2u);  // inner then collapsed outer
  EXPECT_TRUE(cir::collect_for_loops(*m->find("f")).empty());
  EXPECT_EQ(run_int(*m, "f"), 6);
}

TEST(Unroll, PartialKeepsSemanticsWithRemainder) {
  // 10 iterations, factor 4 -> main loop 8, remainder 2.
  auto m = parse_module(
      "int f() { int s = 0; for (int i = 0; i < 10; i++) { s = s + i * i; } return s; }");
  cir::Function* f = m->find("f");
  const i64 expected = run_int(*m, "f");
  ASSERT_TRUE(unroll_loop_partial(*f, cir::collect_for_loops(*f)[0], 4));
  EXPECT_TRUE(cir::check_module(*m).empty()) << to_source(*f);
  EXPECT_EQ(run_int(*m, "f"), expected);
  // A loop remains (the main unrolled loop).
  EXPECT_EQ(cir::collect_for_loops(*f).size(), 1u);
}

TEST(Unroll, PartialExactMultiple) {
  auto m = parse_module(
      "int f() { int s = 0; for (int i = 0; i < 12; i++) { s = s + i; } return s; }");
  cir::Function* f = m->find("f");
  ASSERT_TRUE(unroll_loop_partial(*f, cir::collect_for_loops(*f)[0], 4));
  EXPECT_EQ(run_int(*m, "f"), 66);
}

TEST(Unroll, PartialDownCounting) {
  auto m = parse_module(
      "int f() { int s = 0; for (int i = 9; i >= 0; i = i - 1) { s = s + i; } return s; }");
  cir::Function* f = m->find("f");
  const i64 expected = run_int(*m, "f");
  ASSERT_TRUE(unroll_loop_partial(*f, cir::collect_for_loops(*f)[0], 3));
  EXPECT_EQ(run_int(*m, "f"), expected);
}

TEST(Unroll, PartialPassDoesNotReprocessOwnOutput) {
  auto m = parse_module(
      "int f() { int s = 0; for (int i = 0; i < 64; i++) { s = s + i; } return s; }");
  PartialUnrollPass pass(4);
  const PassResult r = pass.run(*m->find("f"));
  EXPECT_EQ(r.actions, 1u);
  EXPECT_EQ(run_int(*m, "f"), 2016);
}

// --------------------------------------------------------------------------
// Specialization
// --------------------------------------------------------------------------

TEST(Specialize, BindsParameterAndRenames) {
  auto m = parse_module(
      "int kernel(int size, int x) { int s = 0; "
      "for (int i = 0; i < size; i++) s = s + x; return s; }");
  cir::Function* sp = specialize_function(*m, "kernel", "size", 4);
  ASSERT_NE(sp, nullptr);
  EXPECT_EQ(sp->name, "kernel__size_4");
  EXPECT_EQ(sp->params.size(), 1u);
  EXPECT_EQ(run_int(*m, "kernel__size_4", {Value::from_int(7)}), 28);
  // Original untouched.
  EXPECT_EQ(run_int(*m, "kernel", {Value::from_int(4), Value::from_int(7)}), 28);
}

TEST(Specialize, IsIdempotent) {
  auto m = parse_module("int f(int n) { return n * 2; }");
  cir::Function* a = specialize_function(*m, "f", "n", 3);
  cir::Function* b = specialize_function(*m, "f", "n", 3);
  EXPECT_EQ(a, b);
  EXPECT_EQ(m->functions.size(), 2u);
}

TEST(Specialize, HandlesWrittenParameter) {
  auto m = parse_module("int f(int n) { n = n + 1; return n; }");
  specialize_function(*m, "f", "n", 10);
  EXPECT_EQ(run_int(*m, "f__n_10", {}), 11);
}

TEST(Specialize, ValidatesInputs) {
  auto m = parse_module("int f(double x) { return 1; }");
  EXPECT_THROW(specialize_function(*m, "nope", "x", 1), Error);
  EXPECT_THROW(specialize_function(*m, "f", "y", 1), Error);
  EXPECT_THROW(specialize_function(*m, "f", "x", 1), Error);  // not int
}

TEST(Specialize, EnablesFullUnrollingPipeline) {
  // The Figure 4 story: specialize on size, then fold+unroll collapse the loop.
  auto m = parse_module(
      "int kernel(int size, int x) { int s = 0; "
      "for (int i = 0; i < size; i++) s = s + x * x; return s; }");
  specialize_function(*m, "kernel", "size", 6);
  PassManager pm(*m);
  pm.add_pipeline("fold,unroll:16,fold,dce");
  pm.run(*m->find("kernel__size_6"));
  EXPECT_TRUE(cir::collect_for_loops(*m->find("kernel__size_6")).empty());
  const u64 generic =
      count_instructions(*m, "kernel", {Value::from_int(6), Value::from_int(3)});
  const u64 specialized =
      count_instructions(*m, "kernel__size_6", {Value::from_int(3)});
  EXPECT_LT(specialized, generic / 2);
  EXPECT_EQ(run_int(*m, "kernel__size_6", {Value::from_int(3)}), 54);
}

// --------------------------------------------------------------------------
// Strength reduction
// --------------------------------------------------------------------------

TEST(Strength, PowToMultiplication) {
  auto m = parse_module("double f(double x) { return pow(x, 2.0); }");
  const PassResult r = StrengthReductionPass().run(*m->find("f"));
  EXPECT_TRUE(r.changed);
  EXPECT_EQ(to_source(*m->find("f")).find("pow"), std::string::npos);
  vm::Engine e;
  e.load_module(*m);
  EXPECT_DOUBLE_EQ(e.call("f", {Value::from_float(3.0)}).as_float(), 9.0);
}

TEST(Strength, PowCubeAndHalf) {
  auto m = parse_module(
      "double f(double x) { return pow(x, 3.0) + pow(x, 0.5); }");
  StrengthReductionPass().run(*m->find("f"));
  const std::string src = to_source(*m->find("f"));
  EXPECT_EQ(src.find("pow"), std::string::npos);
  EXPECT_NE(src.find("sqrt"), std::string::npos);
  vm::Engine e;
  e.load_module(*m);
  EXPECT_DOUBLE_EQ(e.call("f", {Value::from_float(4.0)}).as_float(), 66.0);
}

TEST(Strength, TimesTwoBecomesAdd) {
  auto m = parse_module("int f(int x) { return x * 2 + 2 * x; }");
  StrengthReductionPass().run(*m->find("f"));
  EXPECT_EQ(to_source(*m->find("f")).find("*"), std::string::npos);
  EXPECT_EQ(run_int(*m, "f", {Value::from_int(5)}), 20);
}

TEST(Strength, LeavesImpureOperandsAlone) {
  auto m = parse_module("int g() { return 1; } int f() { return g() * 2; }");
  const PassResult r = StrengthReductionPass().run(*m->find("f"));
  EXPECT_FALSE(r.changed);
}

// --------------------------------------------------------------------------
// Inlining
// --------------------------------------------------------------------------

TEST(Inline, InlinesTrivialAccessor) {
  auto m = parse_module(
      "int sq(int x) { return x * x; }"
      "int f(int a) { return sq(a) + sq(a + 1); }");
  InlineTrivialPass pass(*m);
  const PassResult r = pass.run(*m->find("f"));
  EXPECT_EQ(r.actions, 2u);
  EXPECT_EQ(to_source(*m->find("f")).find("sq("), std::string::npos);
  EXPECT_EQ(run_int(*m, "f", {Value::from_int(3)}), 25);
}

TEST(Inline, SkipsImpureArguments) {
  // g is too big to inline itself, so sq's argument stays an impure call and
  // sq(g()) must not be inlined (g() would be duplicated by x * x).
  auto m = parse_module(
      "int sq(int x) { return x * x; }"
      "int g() { int t = 2; return t; }"
      "int f() { return sq(g()); }");
  InlineTrivialPass pass(*m);
  const PassResult r = pass.run(*m->find("f"));
  EXPECT_FALSE(r.changed);
}

TEST(Inline, ChainsThroughTrivialCallees) {
  // g itself is trivially inlinable; after that the argument is pure and sq
  // inlines too.
  auto m = parse_module(
      "int sq(int x) { return x * x; }"
      "int g() { return 2; }"
      "int f() { return sq(g()); }");
  InlineTrivialPass pass(*m);
  EXPECT_TRUE(pass.run(*m->find("f")).changed);
  EXPECT_EQ(run_int(*m, "f"), 4);
}

TEST(Inline, SkipsNonTrivialBodies) {
  auto m = parse_module(
      "int big(int x) { int y = x + 1; return y * y; }"
      "int f(int a) { return big(a); }");
  InlineTrivialPass pass(*m);
  EXPECT_FALSE(pass.run(*m->find("f")).changed);
}

TEST(Inline, NoSelfInlining) {
  auto m = parse_module("int f(int n) { return f(n); }");
  InlineTrivialPass pass(*m);
  EXPECT_FALSE(pass.run(*m->find("f")).changed);
}

TEST(Inline, ReducesCallOverhead) {
  auto m = parse_module(
      "int sq(int x) { return x * x; }"
      "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s = s + sq(i); return s; }");
  const u64 before = count_instructions(*m, "f", {Value::from_int(100)});
  InlineTrivialPass(*m).run(*m->find("f"));
  const u64 after = count_instructions(*m, "f", {Value::from_int(100)});
  EXPECT_LT(after, before);
}

// --------------------------------------------------------------------------
// PassManager
// --------------------------------------------------------------------------

TEST(PassManager, ParsesPipelineSpecs) {
  auto m = parse_module("void f() { }");
  PassManager pm(*m);
  pm.add_pipeline("fold, dce, unroll:8, strength, inline, unroll-partial:2");
  EXPECT_EQ(pm.size(), 6u);
}

TEST(PassManager, RejectsUnknownSpec) {
  auto m = parse_module("void f() { }");
  PassManager pm(*m);
  EXPECT_THROW(pm.add("vectorize"), Error);
  EXPECT_THROW(pm.add("unroll:0"), Error);
  EXPECT_THROW(pm.add("unroll:"), Error);
}

TEST(PassManager, RunToFixpointTerminates) {
  auto m = parse_module(
      "int f() { int a = 2; int b = a * 3; int c = b + 0; return c; }");
  PassManager pm(*m);
  pm.add_pipeline("fold,dce");
  pm.run_to_fixpoint(*m->find("f"));
  EXPECT_NE(to_source(*m->find("f")).find("return 6;"), std::string::npos);
}

TEST(PassManager, KnownSpecsAllConstructible) {
  auto m = parse_module("void f() { }");
  for (const auto& spec : PassManager::known_specs()) {
    PassManager pm(*m);
    EXPECT_NO_THROW(pm.add(spec)) << spec;
  }
}

// --------------------------------------------------------------------------
// Iterative compilation
// --------------------------------------------------------------------------

class IterativeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    module_ = parse_module(
        "int hot(int x) { int s = 0;"
        "  for (int i = 0; i < 16; i++) { s = s + pow(x, 2.0); }"
        "  return s; }");
    workload_.entry = "hot";
    workload_.make_args = [] {
      return std::vector<Value>{Value::from_int(3)};
    };
  }

  std::unique_ptr<cir::Module> module_;
  Workload workload_;
};

TEST_F(IterativeTest, ExhaustiveFindsImprovement) {
  IterativeCompiler ic({"fold", "dce", "unroll", "strength"});
  const IterativeResult r = ic.explore_exhaustive(*module_, workload_, 2);
  EXPECT_GT(r.evaluated.size(), 4u);
  EXPECT_LT(r.best_instructions, r.baseline_instructions);
  EXPECT_FALSE(r.best_pipeline.empty());
  EXPECT_GT(r.best_speedup(), 1.0);
}

TEST_F(IterativeTest, AllCandidatesPreserveSemantics) {
  IterativeCompiler ic;
  const IterativeResult r = ic.explore_exhaustive(*module_, workload_, 2);
  for (const auto& c : r.evaluated)
    EXPECT_TRUE(c.output_matches_baseline) << c.pipeline;
}

TEST_F(IterativeTest, PooledExplorationMatchesSerialExactly) {
  IterativeCompiler serial_ic({"fold", "dce", "unroll", "strength"});
  const IterativeResult serial =
      serial_ic.explore_exhaustive(*module_, workload_, 2);

  for (int threads : {1, 2, 8}) {
    exec::ThreadPool pool(threads);
    IterativeCompiler ic({"fold", "dce", "unroll", "strength"});
    ic.set_pool(&pool);

    const IterativeResult r = ic.explore_exhaustive(*module_, workload_, 2);
    EXPECT_EQ(r.best_pipeline, serial.best_pipeline) << "threads=" << threads;
    EXPECT_EQ(r.best_instructions, serial.best_instructions);
    ASSERT_EQ(r.evaluated.size(), serial.evaluated.size());
    for (std::size_t i = 0; i < r.evaluated.size(); ++i) {
      EXPECT_EQ(r.evaluated[i].pipeline, serial.evaluated[i].pipeline);
      EXPECT_EQ(r.evaluated[i].instructions, serial.evaluated[i].instructions);
    }
  }
}

TEST_F(IterativeTest, BaselineIsBestWhenNothingHelps) {
  auto m = parse_module("int id(int x) { return x; }");
  Workload w{"id", [] { return std::vector<Value>{Value::from_int(1)}; }};
  IterativeCompiler ic({"fold", "dce"});
  const IterativeResult r = ic.explore_exhaustive(*m, w, 1);
  EXPECT_EQ(r.best_pipeline, "");
  EXPECT_EQ(r.best_instructions, r.baseline_instructions);
}

}  // namespace
}  // namespace antarex::passes
