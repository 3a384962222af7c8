// Unit tests for the mini-C frontend: lexer, parser, printer round-trip,
// analyses (loop facts, call sites, substitution) and the semantic checker.
#include <gtest/gtest.h>

#include "cir/analysis.hpp"
#include "cir/ast.hpp"
#include "cir/lexer.hpp"
#include "cir/parser.hpp"
#include "cir/printer.hpp"
#include "program_gen.hpp"

namespace antarex::cir {
namespace {

// --------------------------------------------------------------------------
// Lexer
// --------------------------------------------------------------------------

TEST(Lexer, TokenizesArithmetic) {
  const auto toks = lex("a + 2 * 3.5");
  ASSERT_EQ(toks.size(), 6u);  // incl. End
  EXPECT_EQ(toks[0].kind, TokKind::Ident);
  EXPECT_EQ(toks[1].kind, TokKind::Plus);
  EXPECT_EQ(toks[2].kind, TokKind::IntLit);
  EXPECT_EQ(toks[2].int_value, 2);
  EXPECT_EQ(toks[3].kind, TokKind::Star);
  EXPECT_EQ(toks[4].kind, TokKind::FloatLit);
  EXPECT_DOUBLE_EQ(toks[4].float_value, 3.5);
}

TEST(Lexer, DistinguishesKeywordsFromIdents) {
  const auto toks = lex("for fortress int integer");
  EXPECT_EQ(toks[0].kind, TokKind::KwFor);
  EXPECT_EQ(toks[1].kind, TokKind::Ident);
  EXPECT_EQ(toks[2].kind, TokKind::KwInt);
  EXPECT_EQ(toks[3].kind, TokKind::Ident);
}

TEST(Lexer, TwoCharOperators) {
  const auto toks = lex("<= >= == != && || ++ -- += -=");
  EXPECT_EQ(toks[0].kind, TokKind::Le);
  EXPECT_EQ(toks[1].kind, TokKind::Ge);
  EXPECT_EQ(toks[2].kind, TokKind::EqEq);
  EXPECT_EQ(toks[3].kind, TokKind::Ne);
  EXPECT_EQ(toks[4].kind, TokKind::AmpAmp);
  EXPECT_EQ(toks[5].kind, TokKind::PipePipe);
  EXPECT_EQ(toks[6].kind, TokKind::PlusPlus);
  EXPECT_EQ(toks[7].kind, TokKind::MinusMinus);
  EXPECT_EQ(toks[8].kind, TokKind::PlusAssign);
  EXPECT_EQ(toks[9].kind, TokKind::MinusAssign);
}

TEST(Lexer, StringEscapes) {
  const auto toks = lex(R"("a\nb\"c")");
  ASSERT_EQ(toks[0].kind, TokKind::StrLit);
  EXPECT_EQ(toks[0].text, "a\nb\"c");
}

TEST(Lexer, SingleQuotedStrings) {
  // Woven code inherits single-quoted strings from LARA %{...}% templates.
  const auto toks = lex(R"('hello' 'it\'s')");
  ASSERT_EQ(toks[0].kind, TokKind::StrLit);
  EXPECT_EQ(toks[0].text, "hello");
  ASSERT_EQ(toks[1].kind, TokKind::StrLit);
  EXPECT_EQ(toks[1].text, "it's");
  EXPECT_THROW(lex("'open"), Error);
}

TEST(Lexer, SingleQuotedStringsRoundTripThroughPrinter) {
  auto m = parse_module("void f() { profile_args('tag', 'loc', 1); }");
  const std::string printed = to_source(*m);
  // The printer normalizes to double quotes; re-parsing must agree.
  EXPECT_NE(printed.find("\"tag\""), std::string::npos);
  auto m2 = parse_module(printed);
  EXPECT_EQ(printed, to_source(*m2));
}

TEST(Lexer, CommentsAreSkipped) {
  const auto toks = lex("a // line\n/* block\nstill */ b");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0].text, "a");
  EXPECT_EQ(toks[1].text, "b");
}

TEST(Lexer, TracksLineAndColumn) {
  const auto toks = lex("a\n  b");
  EXPECT_EQ(toks[0].loc.line, 1);
  EXPECT_EQ(toks[1].loc.line, 2);
  EXPECT_EQ(toks[1].loc.col, 3);
}

TEST(Lexer, ScientificNotation) {
  const auto toks = lex("1e3 2.5e-2");
  EXPECT_EQ(toks[0].kind, TokKind::FloatLit);
  EXPECT_DOUBLE_EQ(toks[0].float_value, 1000.0);
  EXPECT_DOUBLE_EQ(toks[1].float_value, 0.025);
  // One exponent per literal: "1e5e3" is 1e5 followed by the name e3.
  const auto twice = lex("1e5e3");
  EXPECT_EQ(twice[0].text, "1e5");
  EXPECT_EQ(twice[1].kind, TokKind::Ident);
}

TEST(Lexer, RejectsMalformedInput) {
  EXPECT_THROW(lex("\"unterminated"), Error);
  EXPECT_THROW(lex("a @ b"), Error);
  EXPECT_THROW(lex("a & b"), Error);
  EXPECT_THROW(lex("/* open"), Error);
}

TEST(Lexer, LiteralsMustFitTheirType) {
  const auto toks = lex("9223372036854775807 1e-999");
  ASSERT_EQ(toks[0].kind, TokKind::IntLit);
  EXPECT_EQ(toks[0].int_value, INT64_MAX);
  EXPECT_EQ(toks[1].float_value, 0.0);  // underflow rounds to zero
  EXPECT_THROW(lex("9223372036854775808"), Error);
  EXPECT_THROW(lex("1e999"), Error);
  EXPECT_THROW(lex(std::string(400, '9') + ".0"), Error);
}

// The token-stream pin: kind, text, both numeric values and line:col of
// every token, over the generated programs and one input per token kind,
// plus the prefix and position of every lex and parse error.
std::string dump_tokens(std::string_view src) {
  std::string out;
  for (const Token& t : lex(src))
    out += format("%s \"%s\" %lld %.17g %d:%d\n", tok_kind_name(t.kind),
                  t.text.c_str(), static_cast<long long>(t.int_value),
                  t.float_value, t.loc.line, t.loc.col);
  return out;
}

u64 fnv1a(std::string_view s, u64 h = 14695981039346656037ull) {
  for (const char c : s) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  return h;
}

TEST(TokenPin, GeneratedProgramsLexUnchanged) {
  u64 hash = fnv1a("");
  std::size_t tokens = 0;
  for (u64 seed = 1; seed <= 200; ++seed) {
    ProgramGen gen(seed);
    const std::string src = gen.generate();
    tokens += lex(src).size();
    hash = fnv1a(dump_tokens(src), hash);
  }
  EXPECT_EQ(tokens, 37847u);
  EXPECT_EQ(hash, 6703471441619153264ull);
}

TEST(TokenPin, EveryTokenKind) {
  const std::pair<const char*, const char*> cases[] = {
      {"x _y9 42 3.5 .5 1e3 2.5E-2 7. 1.2.3",
       "identifier \"x\" 0 0 1:1\n"
       "identifier \"_y9\" 0 0 1:3\n"
       "integer literal \"42\" 42 0 1:7\n"
       "float literal \"3.5\" 0 3.5 1:10\n"
       "float literal \".5\" 0 0.5 1:14\n"
       "float literal \"1e3\" 0 1000 1:17\n"
       "float literal \"2.5E-2\" 0 0.025000000000000001 1:21\n"
       "float literal \"7.\" 0 7 1:28\n"
       "float literal \"1.2\" 0 1.2 1:31\n"
       "float literal \".3\" 0 0.29999999999999999 1:34\n"
       "<eof> \"\" 0 0 1:36\n"},
      {"\"s\\n\\t\\\\\\\"\\'\" 'q\"' ''",
       "string literal \"s\n"
       "\t\\\"'\" 0 0 1:1\n"
       "string literal \"q\"\" 0 0 1:15\n"
       "string literal \"\" 0 0 1:20\n"
       "<eof> \"\" 0 0 1:22\n"},
      {"( ) { } [ ] , ; + - * / % = < <= > >= == != && || ! ++ -- += -= *= /=",
       "'(' \"\" 0 0 1:1\n"
       "')' \"\" 0 0 1:3\n"
       "'{' \"\" 0 0 1:5\n"
       "'}' \"\" 0 0 1:7\n"
       "'[' \"\" 0 0 1:9\n"
       "']' \"\" 0 0 1:11\n"
       "',' \"\" 0 0 1:13\n"
       "';' \"\" 0 0 1:15\n"
       "'+' \"\" 0 0 1:17\n"
       "'-' \"\" 0 0 1:19\n"
       "'*' \"\" 0 0 1:21\n"
       "'/' \"\" 0 0 1:23\n"
       "'%' \"\" 0 0 1:25\n"
       "'=' \"\" 0 0 1:27\n"
       "'<' \"\" 0 0 1:29\n"
       "'<=' \"\" 0 0 1:31\n"
       "'>' \"\" 0 0 1:34\n"
       "'>=' \"\" 0 0 1:36\n"
       "'==' \"\" 0 0 1:39\n"
       "'!=' \"\" 0 0 1:42\n"
       "'&&' \"\" 0 0 1:45\n"
       "'||' \"\" 0 0 1:48\n"
       "'!' \"\" 0 0 1:51\n"
       "'++' \"\" 0 0 1:53\n"
       "'--' \"\" 0 0 1:56\n"
       "'+=' \"\" 0 0 1:59\n"
       "'-=' \"\" 0 0 1:62\n"
       "'*=' \"\" 0 0 1:65\n"
       "'/=' \"\" 0 0 1:68\n"
       "<eof> \"\" 0 0 1:70\n"},
      {"int double float void const char if else for while return break continue",
       "'int' \"int\" 0 0 1:1\n"
       "'double' \"double\" 0 0 1:5\n"
       "'float' \"float\" 0 0 1:12\n"
       "'void' \"void\" 0 0 1:18\n"
       "'const' \"const\" 0 0 1:23\n"
       "'char' \"char\" 0 0 1:29\n"
       "'if' \"if\" 0 0 1:34\n"
       "'else' \"else\" 0 0 1:37\n"
       "'for' \"for\" 0 0 1:42\n"
       "'while' \"while\" 0 0 1:46\n"
       "'return' \"return\" 0 0 1:52\n"
       "'break' \"break\" 0 0 1:59\n"
       "'continue' \"continue\" 0 0 1:65\n"
       "<eof> \"\" 0 0 1:73\n"},
      {"a // c\n/* b\n */ b\n\n\t c",
       "identifier \"a\" 0 0 1:1\n"
       "identifier \"b\" 0 0 3:5\n"
       "identifier \"c\" 0 0 5:3\n"
       "<eof> \"\" 0 0 5:4\n"},
      {"1e 1e+ 2e-3x 0x10",
       "integer literal \"1\" 1 0 1:1\n"
       "identifier \"e\" 0 0 1:2\n"
       "integer literal \"1\" 1 0 1:4\n"
       "identifier \"e\" 0 0 1:5\n"
       "'+' \"\" 0 0 1:6\n"
       "float literal \"2e-3\" 0 0.002 1:8\n"
       "identifier \"x\" 0 0 1:12\n"
       "integer literal \"0\" 0 0 1:14\n"
       "identifier \"x10\" 0 0 1:15\n"
       "<eof> \"\" 0 0 1:18\n"},
      {"9223372036854775807",
       "integer literal \"9223372036854775807\" 9223372036854775807 0 1:1\n"
       "<eof> \"\" 0 0 1:20\n"},
      {"",
       "<eof> \"\" 0 0 1:1\n"},
  };
  for (const auto& [src, want] : cases) EXPECT_EQ(dump_tokens(src), want) << src;
}

TEST(TokenPin, ErrorPrefixAndPosition) {
  const std::pair<const char*, const char*> lex_cases[] = {
      {"\"unterminated", "lex error at 1:14:"},
      {"a @ b", "lex error at 1:4:"},
      {"a & b", "lex error at 1:4:"},
      {"a | b", "lex error at 1:4:"},
      {"/* open", "lex error at 1:8:"},
      {"x\n  /* open\n", "lex error at 3:1:"},
      {"'open", "lex error at 1:6:"},
      {"\"a\\qb\"", "lex error at 1:5:"},
      {"\"a\\", "lex error at 1:4:"},
      {"int #", "lex error at 1:6:"},
      {"\xff", "lex error at 1:2:"},
      {"99999999999999999999999", "lex error at 1:24:"},
      {"1e999", "lex error at 1:6:"},
  };
  for (const auto& [src, want] : lex_cases) {
    std::string got = "no error";
    try {
      lex(src);
    } catch (const Error& e) {
      const std::string what = e.what();
      got = what.substr(0, what.find(':', what.find(':') + 1) + 1);
    }
    EXPECT_EQ(got, want) << src;
  }
  const std::pair<const char*, const char*> parse_cases[] = {
      {"int f() { return 1 }",
       "parse error at 1:20:"},
      {"int f(",
       "parse error at 1:7:"},
      {"int f() {\n  x = ;\n}",
       "parse error at 2:7:"},
      {"int f() { for (int i = 0; i < 3; i++) { }",
       "parse error at 1:42:"},
      {"foo",
       "parse error at 1:1:"},
      {"int f() { 3 = x; }",
       "parse error at 1:15:"},
  };
  for (const auto& [src, want] : parse_cases) {
    std::string got = "no error";
    try {
      parse_module(src);
    } catch (const Error& e) {
      const std::string what = e.what();
      got = what.substr(0, what.find(':', what.find(':') + 1) + 1);
    }
    EXPECT_EQ(got, want) << src;
  }
}

// --------------------------------------------------------------------------
// Parser
// --------------------------------------------------------------------------

std::unique_ptr<Module> parse_ok(std::string_view src) {
  auto m = parse_module(src);
  const auto diags = check_module(*m);
  EXPECT_TRUE(diags.empty()) << (diags.empty() ? "" : diags[0].message);
  return m;
}

// The expression `src` as the parser builds it: the value of the
// one-statement function body `return src;`.
ExprPtr parse_return_value(const std::string& src) {
  auto m = parse_module("double f() { return " + src + "; }");
  return std::move(
      static_cast<ReturnStmt&>(*m->functions[0]->body->stmts[0]).value);
}

TEST(Parser, SimpleFunction) {
  auto m = parse_ok("int add(int a, int b) { return a + b; }");
  const Function* f = m->find("add");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->return_type, Type::Int);
  ASSERT_EQ(f->params.size(), 2u);
  EXPECT_EQ(f->params[0].name, "a");
  ASSERT_EQ(f->body->stmts.size(), 1u);
  EXPECT_EQ(f->body->stmts[0]->kind, StmtKind::Return);
}

TEST(Parser, PrecedenceMulOverAdd) {
  auto e = parse_return_value("1 + 2 * 3");
  ASSERT_EQ(e->kind, ExprKind::Binary);
  const auto& top = static_cast<const BinaryExpr&>(*e);
  EXPECT_EQ(top.op, BinOp::Add);
  EXPECT_EQ(top.rhs->kind, ExprKind::Binary);
  EXPECT_EQ(static_cast<const BinaryExpr&>(*top.rhs).op, BinOp::Mul);
}

TEST(Parser, PrecedenceComparisonUnderLogic) {
  auto e = parse_return_value("a < 3 && b > 4 || c == 5");
  ASSERT_EQ(e->kind, ExprKind::Binary);
  EXPECT_EQ(static_cast<const BinaryExpr&>(*e).op, BinOp::Or);
}

TEST(Parser, ParenthesesOverridePrecedence) {
  auto e = parse_return_value("(1 + 2) * 3");
  ASSERT_EQ(e->kind, ExprKind::Binary);
  EXPECT_EQ(static_cast<const BinaryExpr&>(*e).op, BinOp::Mul);
}

TEST(Parser, ForLoopDesugarsIncrement) {
  auto m = parse_ok(
      "int sum(int n) { int s = 0; for (int i = 0; i < n; i++) { s = s + i; } "
      "return s; }");
  auto loops = collect_for_loops(*m->find("sum"));
  ASSERT_EQ(loops.size(), 1u);
  ASSERT_NE(loops[0]->step, nullptr);
  EXPECT_EQ(loops[0]->step->kind, StmtKind::Assign);
}

TEST(Parser, CompoundAssignDesugars) {
  auto m = parse_ok("void f() { int x = 1; x += 2; x *= 3; }");
  int assigns = 0;
  walk_stmts(*m->find("f")->body, [&](Stmt& s) {
    if (s.kind == StmtKind::Assign) ++assigns;
  });
  EXPECT_EQ(assigns, 2);
}

TEST(Parser, IfElseNormalizesToBlocks) {
  auto m = parse_ok("int f(int x) { if (x > 0) return 1; else return 2; }");
  const auto& s = *m->find("f")->body->stmts[0];
  ASSERT_EQ(s.kind, StmtKind::If);
  const auto& i = static_cast<const IfStmt&>(s);
  EXPECT_EQ(i.then_block->stmts.size(), 1u);
  ASSERT_NE(i.else_block, nullptr);
}

TEST(Parser, ArrayParamsAndIndexing) {
  auto m = parse_ok(
      "double dot(double* a, double* b, int n) {"
      "  double s = 0.0;"
      "  for (int i = 0; i < n; i++) s = s + a[i] * b[i];"
      "  return s;"
      "}");
  const Function* f = m->find("dot");
  EXPECT_EQ(f->params[0].type, Type::FloatArr);
  EXPECT_EQ(f->params[2].type, Type::Int);
}

TEST(Parser, WhileBreakContinue) {
  auto m = parse_ok(
      "int f() { int i = 0; while (1) { i++; if (i > 10) break; "
      "if (i == 3) continue; } return i; }");
  EXPECT_NE(m->find("f"), nullptr);
}

TEST(Parser, StringArgumentInCall) {
  auto m = parse_module(
      "void f() { profile_args(\"kernel\", 3, 4); }");
  auto calls = collect_call_sites(*m->find("f"));
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].call->callee, "profile_args");
  ASSERT_EQ(calls[0].call->args.size(), 3u);
  EXPECT_EQ(calls[0].call->args[0]->kind, ExprKind::StrLit);
}

TEST(Parser, SyntaxErrorsCarryLocation) {
  try {
    parse_module("int f( { }");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("parse error at"), std::string::npos);
  }
}

TEST(Parser, RejectsAssignmentToRvalue) {
  EXPECT_THROW(parse_module("void f() { 3 = 4; }"), Error);
  EXPECT_THROW(parse_module("void f(int a) { (a + 1) = 4; }"), Error);
}

TEST(Parser, RejectsUnsupportedTypes) {
  EXPECT_THROW(parse_module("void* f() { }"), Error);
  EXPECT_THROW(parse_module("void f(void x) { }"), Error);
  EXPECT_THROW(parse_module("char f() { }"), Error);
}

TEST(Parser, DuplicateFunctionNameRejected) {
  EXPECT_THROW(parse_module("void f() { } void f() { }"), Error);
}

// --------------------------------------------------------------------------
// Printer round-trip
// --------------------------------------------------------------------------

class RoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTrip, ParsePrintParseIsStable) {
  auto m1 = parse_module(GetParam());
  const std::string src1 = to_source(*m1);
  auto m2 = parse_module(src1);
  const std::string src2 = to_source(*m2);
  EXPECT_EQ(src1, src2);
}

INSTANTIATE_TEST_SUITE_P(
    Programs, RoundTrip,
    ::testing::Values(
        "int add(int a, int b) { return a + b; }",
        "double norm(double* v, int n) { double s = 0.0; "
        "for (int i = 0; i < n; i++) s = s + v[i] * v[i]; return sqrt(s); }",
        "int f(int x) { if (x > 0) { return 1; } else { return 0 - 1; } }",
        "void g() { int i = 0; while (i < 10) { i = i + 1; if (i == 5) break; } }",
        "int h(int n) { int acc = 1; for (int i = 1; i <= n; i = i + 1) "
        "{ acc = acc * i; } return acc; }",
        "double prec(double x) { return fabs(x) + pow(x, 2.0) / 3.0; }",
        "int logic(int a, int b) { return a && b || !a; }",
        "void arr(int* xs, int n) { for (int i = 0; i < n; i++) xs[i] = i * 2; }"));

TEST(Printer, ParenthesizesNonAssociativeRhs) {
  // (a - b) - c parses as a-b-c; a - (b - c) must keep parens.
  auto e = parse_return_value("a - (b - c)");
  EXPECT_EQ(to_source(*e), "a - (b - c)");
  auto e2 = parse_return_value("a - b - c");
  EXPECT_EQ(to_source(*e2), "a - b - c");
}

TEST(Printer, FloatLiteralsStayFloat) {
  auto e = parse_return_value("1.0 + x");
  EXPECT_EQ(to_source(*e), "1.0 + x");
}

// --------------------------------------------------------------------------
// Clone
// --------------------------------------------------------------------------

TEST(Clone, DeepAndIdRefreshing) {
  auto m = parse_module("int f(int n) { int s = 0; for (int i = 0; i < n; i++) s = s + i; return s; }");
  auto c = m->clone();
  EXPECT_EQ(to_source(*m), to_source(*c));
  // ids differ (fresh nodes)
  EXPECT_NE(m->find("f")->id, c->find("f")->id);
  // Mutating the clone leaves the original untouched.
  c->find("f")->name = "g";
  EXPECT_NE(m->find("f"), nullptr);
  EXPECT_EQ(m->find("g"), nullptr);
}

// --------------------------------------------------------------------------
// Loop analysis
// --------------------------------------------------------------------------

ForStmt* first_loop(Module& m, const std::string& fn) {
  auto loops = collect_for_loops(*m.find(fn));
  EXPECT_FALSE(loops.empty());
  return loops.empty() ? nullptr : loops[0];
}

TEST(LoopFacts, CanonicalUpCountingLt) {
  auto m = parse_module("void f() { for (int i = 0; i < 10; i++) { } }");
  const LoopFacts facts = analyze_loop(*first_loop(*m, "f"));
  EXPECT_TRUE(facts.is_innermost);
  ASSERT_TRUE(facts.trip_count.has_value());
  EXPECT_EQ(*facts.trip_count, 10);
  EXPECT_EQ(facts.induction_var, "i");
  EXPECT_EQ(*facts.lower_bound, 0);
  EXPECT_EQ(*facts.step, 1);
}

TEST(LoopFacts, InclusiveBoundAndStride) {
  auto m = parse_module("void f() { for (int i = 2; i <= 11; i = i + 3) { } }");
  const LoopFacts facts = analyze_loop(*first_loop(*m, "f"));
  ASSERT_TRUE(facts.trip_count.has_value());
  EXPECT_EQ(*facts.trip_count, 4);  // 2,5,8,11
}

TEST(LoopFacts, DownCounting) {
  auto m = parse_module("void f() { for (int i = 10; i > 0; i = i - 2) { } }");
  const LoopFacts facts = analyze_loop(*first_loop(*m, "f"));
  ASSERT_TRUE(facts.trip_count.has_value());
  EXPECT_EQ(*facts.trip_count, 5);  // 10,8,6,4,2
}

TEST(LoopFacts, ZeroTripLoop) {
  auto m = parse_module("void f() { for (int i = 5; i < 5; i++) { } }");
  const LoopFacts facts = analyze_loop(*first_loop(*m, "f"));
  ASSERT_TRUE(facts.trip_count.has_value());
  EXPECT_EQ(*facts.trip_count, 0);
}

TEST(LoopFacts, NonConstantBoundNotCountable) {
  auto m = parse_module("void f(int n) { for (int i = 0; i < n; i++) { } }");
  const LoopFacts facts = analyze_loop(*first_loop(*m, "f"));
  EXPECT_FALSE(facts.trip_count.has_value());
  EXPECT_TRUE(facts.is_innermost);
}

TEST(LoopFacts, BodyModifyingInductionVarNotCountable) {
  auto m = parse_module("void f() { for (int i = 0; i < 10; i++) { i = i + 1; } }");
  EXPECT_FALSE(analyze_loop(*first_loop(*m, "f")).trip_count.has_value());
}

TEST(LoopFacts, BreakDisablesTripCount) {
  auto m = parse_module(
      "void f() { for (int i = 0; i < 10; i++) { if (i == 3) break; } }");
  EXPECT_FALSE(analyze_loop(*first_loop(*m, "f")).trip_count.has_value());
}

TEST(LoopFacts, WrongDirectionNotCountable) {
  auto m = parse_module("void f() { for (int i = 0; i > 10; i = i + 1) { } }");
  // i > 10 with positive step: direction mismatch -> zero iterations
  // statically, but we conservatively report countable only on matched
  // direction; here init(0) > bound(10) is false so the loop never runs —
  // direction_ok is false, so no trip count.
  EXPECT_FALSE(analyze_loop(*first_loop(*m, "f")).trip_count.has_value());
}

TEST(LoopFacts, InnermostDetection) {
  auto m = parse_module(
      "void f() { for (int i = 0; i < 4; i++) { for (int j = 0; j < 4; j++) { } } }");
  auto loops = collect_for_loops(*m->find("f"));
  ASSERT_EQ(loops.size(), 2u);
  EXPECT_FALSE(analyze_loop(*loops[0]).is_innermost);
  EXPECT_TRUE(analyze_loop(*loops[1]).is_innermost);
}

// --------------------------------------------------------------------------
// Call sites / substitution
// --------------------------------------------------------------------------

TEST(CallSites, AnchorsToContainingStatement) {
  auto m = parse_module(
      "int g(int x) { return x; }"
      "int f() { int a = g(1); if (a > 0) { a = g(2) + g(3); } return a; }");
  auto sites = collect_call_sites(*m->find("f"));
  ASSERT_EQ(sites.size(), 3u);
  EXPECT_EQ(sites[0].call->callee, "g");
  EXPECT_EQ(sites[0].stmt_index, 0u);
  // g(2) and g(3) anchor to the same statement inside the then-block.
  EXPECT_EQ(sites[1].block, sites[2].block);
  EXPECT_EQ(sites[1].stmt_index, sites[2].stmt_index);
}

TEST(Substitute, ReplacesOnlyReads) {
  auto m = parse_module("int f(int n) { int x = n + n; return x * n; }");
  Function* f = m->find("f");
  const IntLit four(4);
  const std::size_t count = substitute_var(*f->body, "n", four);
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(to_source(*f).find("n +"), std::string::npos);
}

TEST(Substitute, DoesNotTouchAssignTargets) {
  auto m = parse_module("void f() { int x = 0; x = x + 1; }");
  Function* f = m->find("f");
  const IntLit nine(9);
  substitute_var(*f->body, "x", nine);
  // Target `x =` must remain; the read became 9.
  const std::string src = to_source(*f);
  EXPECT_NE(src.find("x = 9 + 1"), std::string::npos);
}

TEST(Substitute, ArrayIndexIsRead) {
  auto m = parse_module("void f(int* a, int i) { a[i] = a[i] + 1; }");
  Function* f = m->find("f");
  const IntLit two(2);
  const std::size_t count = substitute_var(*f->body, "i", two);
  EXPECT_EQ(count, 2u);  // both index positions
}

// --------------------------------------------------------------------------
// Walker visit order, pinned on one function that uses every statement and
// expression kind. One statement per line, so `Kind@line` names each one.
// --------------------------------------------------------------------------

constexpr const char* kEveryKind = R"(int g(int x) { return x; }
int f(int* a, int n) {
  int i = -n;
  for (a[i] = g(1); i < g(n); a[i + 1] = g(i)) {
    for (int j = 0; j < 2; j = j + 1) {
      if (!(a[j] > i)) { continue; } else { break; }
    }
    while (i < n) { a[i] = i; i = i + 1; }
  }
  { monitor_begin("f"); print_float(1.5); }
  for (; i > 0; g(i)) { i = i - 1; }
  return a[i];
})";

std::string tag(const Stmt& s) {
  static const char* const kNames[] = {"Block", "ExprStmt", "VarDecl", "Assign",
                                       "If",    "For",      "While",   "Return",
                                       "Break", "Continue"};
  return std::string(kNames[static_cast<int>(s.kind)]) + "@" +
         std::to_string(s.loc.line);
}

std::string joined(const std::vector<std::string>& parts) {
  std::string out;
  for (const auto& p : parts) out += (out.empty() ? "" : " | ") + p;
  return out;
}

TEST(WalkerOrder, EveryWalkerOnEveryKind) {
  auto m = parse_module(kEveryKind);
  Function& f = *m->find("f");
  const Block& cbody = *f.body;

  std::vector<std::string> stmts, const_stmts;
  walk_stmts(*f.body, [&](Stmt& s) { stmts.push_back(tag(s)); });
  walk_stmts(cbody, [&](const Stmt& s) { const_stmts.push_back(tag(s)); });
  EXPECT_EQ(joined(stmts),
            "VarDecl@3 | For@4 | Assign@4 | Assign@4 | For@5 | VarDecl@5 | Assign@5 | "
            "If@6 | Continue@6 | Break@6 | While@8 | Assign@8 | Assign@8 | Block@10 | "
            "ExprStmt@10 | ExprStmt@10 | For@11 | ExprStmt@11 | Assign@11 | Return@12");
  EXPECT_EQ(const_stmts, stmts);

  // walk_exprs(Stmt&) on each statement walk_stmts reaches: a statement's own
  // expressions only, and of a for loop only its condition.
  std::vector<std::string> stmt_exprs, const_stmt_exprs;
  walk_stmts(*f.body, [&](Stmt& s) {
    walk_exprs(s, [&](Expr& e) { stmt_exprs.push_back(tag(s) + " " + to_source(e)); });
    walk_exprs(static_cast<const Stmt&>(s), [&](const Expr& e) {
      const_stmt_exprs.push_back(tag(s) + " " + to_source(e));
    });
  });
  EXPECT_EQ(joined(stmt_exprs),
            "VarDecl@3 -n | VarDecl@3 n | For@4 i < g(n) | For@4 i | For@4 g(n) | "
            "For@4 n | Assign@4 a[i] | Assign@4 a | Assign@4 i | Assign@4 g(1) | "
            "Assign@4 1 | Assign@4 a[i + 1] | Assign@4 a | Assign@4 i + 1 | Assign@4 i | "
            "Assign@4 1 | Assign@4 g(i) | Assign@4 i | For@5 j < 2 | For@5 j | For@5 2 | "
            "VarDecl@5 0 | Assign@5 j | Assign@5 j + 1 | Assign@5 j | Assign@5 1 | "
            "If@6 !((a[j] > i)) | If@6 a[j] > i | If@6 a[j] | If@6 a | If@6 j | If@6 i | "
            "While@8 i < n | While@8 i | While@8 n | Assign@8 a[i] | Assign@8 a | "
            "Assign@8 i | Assign@8 i | Assign@8 i | Assign@8 i + 1 | Assign@8 i | "
            "Assign@8 1 | ExprStmt@10 monitor_begin(\"f\") | ExprStmt@10 \"f\" | "
            "ExprStmt@10 print_float(1.5) | ExprStmt@10 1.5 | For@11 i > 0 | For@11 i | "
            "For@11 0 | ExprStmt@11 g(i) | ExprStmt@11 i | Assign@11 i | "
            "Assign@11 i - 1 | Assign@11 i | Assign@11 1 | Return@12 a[i] | "
            "Return@12 a | Return@12 i");
  EXPECT_EQ(const_stmt_exprs, stmt_exprs);

  // walk_exprs(Expr&): preorder over every operand, the index base included.
  auto& ret = static_cast<ReturnStmt&>(*f.body->stmts.back());
  auto& outer = static_cast<ForStmt&>(*f.body->stmts[1]);
  std::vector<std::string> exprs, const_exprs;
  for (Expr* root : {ret.value.get(), static_cast<AssignStmt&>(*outer.step).target.get(),
                     outer.cond.get()}) {
    walk_exprs(*root, [&](Expr& e) { exprs.push_back(to_source(e)); });
    walk_exprs(static_cast<const Expr&>(*root),
               [&](const Expr& e) { const_exprs.push_back(to_source(e)); });
  }
  EXPECT_EQ(joined(exprs),
            "a[i] | a | i | a[i + 1] | a | i + 1 | i | 1 | i < g(n) | i | g(n) | n");
  EXPECT_EQ(const_exprs, exprs);

  // for_each_expr_slot: every slot, for-header statements' slots included,
  // with the assignment targets flagged.
  std::vector<std::string> slots;
  for_each_expr_slot(*f.body, [&](ExprPtr& slot, bool is_store_target) {
    slots.push_back(to_source(*slot) + (is_store_target ? " [store]" : ""));
  });
  EXPECT_EQ(joined(slots),
            "-n | a[i] [store] | g(1) | i < g(n) | a[i + 1] [store] | g(i) | 0 | "
            "j < 2 | j [store] | j + 1 | !((a[j] > i)) | i < n | a[i] [store] | i | "
            "i [store] | i + 1 | monitor_begin(\"f\") | print_float(1.5) | i > 0 | "
            "g(i) | i [store] | i - 1 | a[i]");

  // collect_call_sites: the anchor is the statement in the innermost block
  // that holds the call; calls in a for-header anchor at the loop.
  std::vector<std::string> sites;
  for (const CallSite& site : collect_call_sites(f)) {
    EXPECT_EQ(site.func, &f);
    sites.push_back(to_source(*site.call) + " @ " +
                    tag(*site.block->stmts[site.stmt_index]) + "[" +
                    std::to_string(site.stmt_index) + "] of " +
                    (site.block == f.body.get() ? "body" : tag(*site.block)));
  }
  EXPECT_EQ(joined(sites),
            "g(n) @ For@4[1] of body | g(1) @ For@4[1] of body | "
            "g(i) @ For@4[1] of body | monitor_begin(\"f\") @ ExprStmt@10[0] of Block@10 | "
            "print_float(1.5) @ ExprStmt@10[1] of Block@10 | g(i) @ For@11[3] of body");

  std::vector<std::string> loops;
  for (const ForStmt* loop : collect_for_loops(f)) loops.push_back(tag(*loop));
  EXPECT_EQ(joined(loops), "For@4 | For@5 | For@11");

  EXPECT_TRUE(is_var_modified(*f.body, "i"));
  EXPECT_TRUE(is_var_modified(*f.body, "j"));
  EXPECT_FALSE(is_var_modified(*f.body, "n"));
  EXPECT_FALSE(is_var_modified(*f.body, "a"));

  // substitute_var rewrites reads, in a body and in a for-header alike: the
  // index of an array-store target is one, and so is an expression statement.
  // The base of an index read is rewritten too, but not a store target's.
  const IntLit seven(7);
  const VarRef b("b");
  EXPECT_EQ(substitute_var(*f.body, "i", seven), 13u);
  EXPECT_EQ(substitute_var(*f.body, "a", b), 2u);
  EXPECT_EQ(to_source(f), R"(int f(int* a, int n) {
  int i = -n;
  for (a[7] = g(1); 7 < g(n); a[7 + 1] = g(7)) {
    for (int j = 0; j < 2; j = j + 1) {
      if (!((b[j] > 7))) {
        continue;
      } else {
        break;
      }
    }
    while (7 < n) {
      a[7] = 7;
      i = 7 + 1;
    }
  }
  {
    monitor_begin("f");
    print_float(1.5);
  }
  for (; 7 > 0; g(7)) {
    i = 7 - 1;
  }
  return b[7];
}
)");
}

// --------------------------------------------------------------------------
// Semantic checker
// --------------------------------------------------------------------------

TEST(Checker, AcceptsValidProgram) {
  auto m = parse_module(
      "int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }");
  EXPECT_TRUE(check_module(*m).empty());
}

TEST(Checker, UndeclaredVariable) {
  auto m = parse_module("int f() { return y; }");
  const auto diags = check_module(*m);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("undeclared"), std::string::npos);
}

TEST(Checker, RedeclarationInSameScope) {
  auto m = parse_module("void f() { int x = 1; int x = 2; }");
  EXPECT_FALSE(check_module(*m).empty());
}

TEST(Checker, ShadowingInNestedScopeIsAllowed) {
  auto m = parse_module("void f() { int x = 1; { int x = 2; } }");
  EXPECT_TRUE(check_module(*m).empty());
}

TEST(Checker, ForInitScopeVisibleInBody) {
  auto m = parse_module("int f() { int s = 0; for (int i = 0; i < 3; i++) { s = s + i; } return s; }");
  EXPECT_TRUE(check_module(*m).empty());
}

TEST(Checker, CallArityMismatch) {
  auto m = parse_module("int g(int a) { return a; } int f() { return g(1, 2); }");
  const auto diags = check_module(*m);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("arguments"), std::string::npos);
}

TEST(Checker, UnknownCalleeUnlessBuiltin) {
  auto m = parse_module("double f(double x) { return sqrt(x) + mystery(x); }");
  const auto diags = check_module(*m);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("mystery"), std::string::npos);
}

TEST(Checker, NonVoidMustReturn) {
  auto m = parse_module("int f(int x) { if (x > 0) { return 1; } }");
  EXPECT_FALSE(check_module(*m).empty());
  auto ok = parse_module("int f(int x) { if (x > 0) { return 1; } return 0; }");
  EXPECT_TRUE(check_module(*ok).empty());
}

TEST(Checker, VoidMustNotReturnValue) {
  auto m = parse_module("void f() { return 3; }");
  EXPECT_FALSE(check_module(*m).empty());
}

TEST(Checker, RecursionIsAllowed) {
  auto m = parse_module("int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }");
  EXPECT_TRUE(check_module(*m).empty());
}

}  // namespace
}  // namespace antarex::cir
