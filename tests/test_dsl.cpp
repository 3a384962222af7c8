// Tests for the ANTAREX DSL: lexer/parser, join-point selection, expression
// evaluation, template splicing, and — most importantly — end-to-end weaving
// of the paper's three example aspects (Figures 2, 3 and 4).
#include <gtest/gtest.h>

#include <functional>

#include "cir/analysis.hpp"
#include "cir/parser.hpp"
#include "cir/printer.hpp"
#include "dsl/ast.hpp"
#include "dsl/joinpoint.hpp"
#include "dsl/lexer.hpp"
#include "dsl/runtime.hpp"
#include "dsl/weaver.hpp"
#include "support/strings.hpp"
#include "vm/engine.hpp"
#include "aspect_sources.hpp"

namespace antarex::dsl {
namespace {

using vm::Value;

// --------------------------------------------------------------------------
// Lexer / parser
// --------------------------------------------------------------------------

TEST(DslLexer, TokenizesDollarIdentsAndTemplates) {
  const auto toks = dsl_lex("$fCall %{ code [[x]] }% 'str' 3.5");
  ASSERT_GE(toks.size(), 5u);
  EXPECT_EQ(toks[0].kind, DTok::DollarIdent);
  EXPECT_EQ(toks[0].text, "$fCall");
  EXPECT_EQ(toks[1].kind, DTok::Template);
  EXPECT_EQ(toks[1].text, " code [[x]] ");
  EXPECT_EQ(toks[2].kind, DTok::Str);
  EXPECT_EQ(toks[2].text, "str");
  EXPECT_EQ(toks[3].kind, DTok::Num);
}

TEST(DslLexer, KeywordsVsIdentifiers) {
  const auto toks = dsl_lex("aspectdef apply applying end");
  EXPECT_EQ(toks[0].kind, DTok::KwAspectdef);
  EXPECT_EQ(toks[1].kind, DTok::KwApply);
  EXPECT_EQ(toks[2].kind, DTok::Ident);
  EXPECT_EQ(toks[3].kind, DTok::KwEnd);
}

TEST(DslLexer, RejectsMalformed) {
  EXPECT_THROW(dsl_lex("%{ open"), Error);
  EXPECT_THROW(dsl_lex("'open"), Error);
  EXPECT_THROW(dsl_lex("$"), Error);
  EXPECT_THROW(dsl_lex("a # b"), Error);
}

// The token-stream pin: kind, text, value and line:col of every token, over
// every aspect the benches, examples and samples weave and one input per
// token kind, plus the prefix and position of every lex and parse error.
std::string dump_tokens(std::string_view src) {
  std::string out;
  for (const DToken& t : dsl_lex(src))
    out += format("%s \"%s\" %.17g %d:%d\n", dtok_name(t.kind), t.text.c_str(),
                  t.num, t.line, t.col);
  return out;
}

std::string error_prefix(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    const std::string what = e.what();
    return what.substr(0, what.find(':', what.find(':') + 1) + 1);
  }
  return "no error";
}

TEST(DslTokenPin, WorkloadAspectsLexUnchanged) {
  const auto sources = workload_aspects();
  u64 hash = 14695981039346656037ull;
  std::size_t tokens = 0;
  for (const auto& s : sources) {
    tokens += dsl_lex(s.text).size();
    for (const char c : s.origin + "\n" + dump_tokens(s.text))
      hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  EXPECT_EQ(sources.size(), 11u);
  EXPECT_EQ(tokens, 596u);
  EXPECT_EQ(hash, 16642478135433659107ull);
}

TEST(DslTokenPin, EveryTokenKind) {
  const std::pair<const char*, const char*> cases[] = {
      {"x _y9 $fCall $_a1 42 3.5 .5 7. 1.2.3",
       "identifier \"x\" 0 1:1\n"
       "identifier \"_y9\" 0 1:3\n"
       "$-identifier \"$fCall\" 0 1:7\n"
       "$-identifier \"$_a1\" 0 1:14\n"
       "number \"42\" 42 1:19\n"
       "number \"3.5\" 3.5 1:22\n"
       "number \".5\" 0.5 1:26\n"
       "number \"7.\" 7 1:29\n"
       "number \"1.2\" 1.2 1:32\n"
       "number \".3\" 0.29999999999999999 1:35\n"
       "<eof> \"\" 0 1:37\n"},
      {"'s\\n\\t\\\\\\'\\\"' \"d'\" ''",
       "string \"s\n"
       "\t\\'\"\" 0 1:1\n"
       "string \"d'\" 0 1:15\n"
       "string \"\" 0 1:20\n"
       "<eof> \"\" 0 1:22\n"},
      {"%{ code [[x]]\n }% %{}%",
       "code template \" code [[x]]\n"
       " \" 0 1:1\n"
       "code template \"\" 0 2:5\n"
       "<eof> \"\" 0 2:9\n"},
      {"( ) { } . , ; : = == != < <= > >= && || ! + - * / %",
       "'(' \"(\" 0 1:1\n"
       "')' \")\" 0 1:3\n"
       "'{' \"{\" 0 1:5\n"
       "'}' \"}\" 0 1:7\n"
       "'.' \".\" 0 1:9\n"
       "',' \",\" 0 1:11\n"
       "';' \";\" 0 1:13\n"
       "':' \":\" 0 1:15\n"
       "'=' \"=\" 0 1:17\n"
       "'==' \"==\" 0 1:19\n"
       "'!=' \"!=\" 0 1:22\n"
       "'<' \"<\" 0 1:25\n"
       "'<=' \"<=\" 0 1:27\n"
       "'>' \">\" 0 1:30\n"
       "'>=' \">=\" 0 1:32\n"
       "'&&' \"&&\" 0 1:35\n"
       "'||' \"||\" 0 1:38\n"
       "'!' \"!\" 0 1:41\n"
       "'+' \"+\" 0 1:43\n"
       "'-' \"-\" 0 1:45\n"
       "'*' \"*\" 0 1:47\n"
       "'/' \"/\" 0 1:49\n"
       "'%' \"%\" 0 1:51\n"
       "<eof> \"\" 0 1:52\n"},
      {"aspectdef end input output select apply condition call do insert before "
       "after dynamic var true false null",
       "'aspectdef' \"aspectdef\" 0 1:1\n"
       "'end' \"end\" 0 1:11\n"
       "'input' \"input\" 0 1:15\n"
       "'output' \"output\" 0 1:21\n"
       "'select' \"select\" 0 1:28\n"
       "'apply' \"apply\" 0 1:35\n"
       "'condition' \"condition\" 0 1:41\n"
       "'call' \"call\" 0 1:51\n"
       "'do' \"do\" 0 1:56\n"
       "'insert' \"insert\" 0 1:59\n"
       "'before' \"before\" 0 1:66\n"
       "'after' \"after\" 0 1:73\n"
       "'dynamic' \"dynamic\" 0 1:79\n"
       "'var' \"var\" 0 1:87\n"
       "'true' \"true\" 0 1:91\n"
       "'false' \"false\" 0 1:96\n"
       "'null' \"null\" 0 1:102\n"
       "<eof> \"\" 0 1:106\n"},
      {"a // c\n/* b\n */ b\n\n\t c",
       "identifier \"a\" 0 1:1\n"
       "identifier \"b\" 0 3:5\n"
       "identifier \"c\" 0 5:3\n"
       "<eof> \"\" 0 5:4\n"},
      {"x == 1e5",
       "identifier \"x\" 0 1:1\n"
       "'==' \"==\" 0 1:3\n"
       "number \"1e5\" 100000 1:6\n"
       "<eof> \"\" 0 1:9\n"},
      {"2.5E-2 1e 1e+",
       "number \"2.5E-2\" 0.025000000000000001 1:1\n"
       "number \"1\" 1 1:8\n"
       "identifier \"e\" 0 1:9\n"
       "number \"1\" 1 1:11\n"
       "identifier \"e\" 0 1:12\n"
       "'+' \"+\" 0 1:13\n"
       "<eof> \"\" 0 1:14\n"},
      {"",
       "<eof> \"\" 0 1:1\n"},
  };
  for (const auto& [src, want] : cases) EXPECT_EQ(dump_tokens(src), want) << src;
}

TEST(DslTokenPin, ErrorPrefixAndPosition) {
  const std::pair<const char*, const char*> lex_cases[] = {
      {"'unterminated", "DSL lex error at 1:14:"},
      {"a @ b", "DSL lex error at 1:4:"},
      {"a & b", "DSL lex error at 1:4:"},
      {"a | b", "DSL lex error at 1:4:"},
      {"/* open", "DSL lex error at 1:8:"},
      {"x\n  /* open\n", "DSL lex error at 3:1:"},
      {"\"open", "DSL lex error at 1:6:"},
      {"'a\\qb'", "DSL lex error at 1:5:"},
      {"'a\\", "DSL lex error at 1:4:"},
      {"$", "DSL lex error at 1:2:"},
      {"$ 1", "DSL lex error at 1:2:"},
      {"%{ open", "DSL lex error at 1:8:"},
      {"x\n %{ a }", "DSL lex error at 2:8:"},
      {"\xff", "DSL lex error at 1:2:"},
      {"1e999", "DSL lex error at 1:6:"},
  };
  for (const auto& [src, want] : lex_cases)
    EXPECT_EQ(error_prefix([&] { dsl_lex(src); }), want) << src;
  const std::pair<const char*, const char*> parse_cases[] = {
      {"aspectdef A select end",
       "DSL parse error at 1:20:"},
      {"aspectdef",
       "DSL parse error at 1:10:"},
      {"aspectdef A\n  select fCall end\n  apply insert before 3; end\nend",
       "DSL parse error at 3:23:"},
      {"aspectdef A condition x == end end",
       "DSL parse error at 1:28:"},
      {"aspectdef A x = ; end",
       "DSL parse error at 1:17:"},
      {"foo",
       "DSL parse error at 1:1:"},
  };
  for (const auto& [src, want] : parse_cases)
    EXPECT_EQ(error_prefix([&] { parse_aspects(src); }), want) << src;
}

TEST(DslParser, NumbersTakeAnExponent) {
  const AspectLibrary lib =
      parse_aspects("aspectdef A select fCall end condition x == 1e5 end end");
  const Item& cond = lib.aspects.at(0).body.at(1);
  ASSERT_EQ(cond.kind, Item::Kind::Condition);
  ASSERT_EQ(cond.condition.expr->rhs->kind, DExprKind::Num);
  EXPECT_EQ(cond.condition.expr->rhs->num_value, 1e5);
  EXPECT_THROW(parse_aspects("aspectdef A condition x == 1e999 end end"), Error);
}

TEST(DslParser, ParsesFigure2Verbatim) {
  // The paper's Figure 2, character-for-character semantics.
  const char* src = R"(
    aspectdef ProfileArguments
      input funcName end
      select fCall end
      apply
        insert before %{profile_args('[[funcName]]',
                        '[[$fCall.location]]',
                        [[$fCall.argList]]);
        }%;
      end
      condition $fCall.name == funcName end
    end
  )";
  const AspectLibrary lib = parse_aspects(src);
  const AspectDef* def = lib.find("ProfileArguments");
  ASSERT_NE(def, nullptr);
  ASSERT_EQ(def->inputs.size(), 1u);
  EXPECT_EQ(def->inputs[0], "funcName");
  ASSERT_EQ(def->body.size(), 3u);
  EXPECT_EQ(def->body[0].kind, Item::Kind::Select);
  EXPECT_EQ(def->body[1].kind, Item::Kind::Apply);
  EXPECT_EQ(def->body[2].kind, Item::Kind::Condition);
  ASSERT_EQ(def->body[1].apply.actions.size(), 1u);
  EXPECT_EQ(def->body[1].apply.actions[0].kind, Action::Kind::Insert);
  EXPECT_TRUE(def->body[1].apply.actions[0].insert.before);
}

TEST(DslParser, ParsesFigure3Verbatim) {
  const char* src = R"(
    aspectdef UnrollInnermostLoops
      input $func, threshold end
      select $func.loop{type=='for'} end
      apply
        do LoopUnroll('full');
      end
      condition
        $loop.isInnermost && $loop.numIter <= threshold
      end
    end
  )";
  const AspectLibrary lib = parse_aspects(src);
  const AspectDef* def = lib.find("UnrollInnermostLoops");
  ASSERT_NE(def, nullptr);
  ASSERT_EQ(def->inputs.size(), 2u);
  EXPECT_EQ(def->inputs[0], "$func");
  const Item& sel = def->body[0];
  EXPECT_EQ(sel.select.root_var, "$func");
  ASSERT_EQ(sel.select.chain.size(), 1u);
  EXPECT_EQ(sel.select.chain[0].selector, "loop");
  EXPECT_NE(sel.select.chain[0].attr_filter, nullptr);
}

TEST(DslParser, ParsesFigure4Verbatim) {
  const char* src = R"(
    aspectdef SpecializeKernel
      input lowT, highT end

      call spCall: PrepareSpecialize('kernel','size');

      select fCall{'kernel'}.arg{'size'} end
      apply dynamic
        call spOut : Specialize($fCall, $arg.name,
                                $arg.runtimeValue);
        call UnrollInnermostLoops(spOut.$func,
                                  $arg.runtimeValue);
        call AddVersion(spCall, spOut.$func,
                        $arg.runtimeValue);
      end
      condition
        $arg.runtimeValue >= lowT &&
        $arg.runtimeValue <= highT
      end
    end
  )";
  const AspectLibrary lib = parse_aspects(src);
  const AspectDef* def = lib.find("SpecializeKernel");
  ASSERT_NE(def, nullptr);
  ASSERT_EQ(def->body.size(), 4u);  // call, select, apply, condition
  EXPECT_EQ(def->body[0].kind, Item::Kind::Call);
  EXPECT_EQ(def->body[0].call.label, "spCall");
  const Item& apply = def->body[2];
  EXPECT_TRUE(apply.apply.dynamic);
  EXPECT_EQ(apply.apply.actions.size(), 3u);
}

TEST(DslParser, RejectsBrokenAspects) {
  EXPECT_THROW(parse_aspects("aspectdef A select fCall end"), Error);  // unterminated
  EXPECT_THROW(parse_aspects("aspectdef A select end end"), Error);    // empty chain
  EXPECT_THROW(parse_aspects("aspectdef A condition end end"), Error); // empty cond
  EXPECT_THROW(parse_aspects("aspectdef A do X(); end"), Error);       // do outside apply
}

TEST(DslParser, RejectsDuplicateAspects) {
  EXPECT_THROW(parse_aspects("aspectdef A end aspectdef A end"), Error);
}

TEST(DslParser, EmptyApplyIsAccepted) {
  const AspectLibrary lib =
      parse_aspects("aspectdef A select fCall end apply end end");
  EXPECT_NE(lib.find("A"), nullptr);
}

// --------------------------------------------------------------------------
// Expression evaluation
// --------------------------------------------------------------------------

Val eval(const std::string& src, Env& env) {
  return eval_expr(*parse_dsl_expression(src), env);
}

TEST(DslEval, ArithmeticAndComparison) {
  Env env;
  EXPECT_EQ(eval("1 + 2 * 3", env).as_num(), 7.0);
  EXPECT_TRUE(eval("3 <= 3", env).as_bool());
  EXPECT_FALSE(eval("'a' == 'b'", env).as_bool());
  EXPECT_TRUE(eval("'a' != 'b'", env).as_bool());
  EXPECT_TRUE(eval("!false", env).as_bool());
}

TEST(DslEval, SetLocalShadowsWithoutLeaking) {
  Env outer;
  outer.set("x", Val::num(1));
  Env inner(&outer);
  inner.set_local("x", Val::num(2));
  EXPECT_EQ(eval("x", inner).as_num(), 2.0);
  EXPECT_EQ(eval("x", outer).as_num(), 1.0);
}

TEST(DslEval, SetAssignsThroughToTheBindingFrame) {
  // Assignment semantics: `set` on a child frame updates the existing outer
  // binding (this is what lets apply-block statements accumulate into
  // aspect-level variables); unbound names stay local.
  Env outer;
  outer.set("counter", Val::num(0));
  Env inner(&outer);
  inner.set("counter", Val::num(5));
  EXPECT_EQ(eval("counter", outer).as_num(), 5.0);
  inner.set("fresh", Val::num(9));
  EXPECT_EQ(outer.find("fresh"), nullptr);
  EXPECT_EQ(eval("fresh", inner).as_num(), 9.0);
}

TEST(DslEval, UnboundVariableThrows) {
  Env env;
  EXPECT_THROW(eval("nope", env), Error);
}

TEST(DslEval, NullComparisonsAreFalse) {
  Env env;
  env.set("n", Val::null());
  EXPECT_FALSE(eval("n <= 4", env).as_bool());
  EXPECT_FALSE(eval("n > 4", env).as_bool());
  EXPECT_TRUE(eval("n == null", env).as_bool());
}

TEST(DslEval, ShortCircuit) {
  Env env;
  env.set("n", Val::null());
  // n.as_num() would throw; && must not evaluate rhs.
  EXPECT_FALSE(eval("false && n + 1 > 0", env).as_bool());
  EXPECT_TRUE(eval("true || n + 1 > 0", env).as_bool());
}

TEST(DslEval, StringConcatenation) {
  Env env;
  env.set("name", Val::str("kernel"));
  EXPECT_EQ(eval("name + '_v' + 2", env).as_str(), "kernel_v2");
}

TEST(DslEval, RecordFieldAccess) {
  Env env;
  auto rec = std::make_shared<Record>();
  (*rec)["alpha"] = Val::num(42);
  env.set("r", Val::record(rec));
  EXPECT_EQ(eval("r.alpha", env).as_num(), 42.0);
  EXPECT_THROW(eval("r.beta", env), Error);
}

// --------------------------------------------------------------------------
// Join points & selection
// --------------------------------------------------------------------------

class SelectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    module_ = cir::parse_module(R"(
      int helper(int v) { return v * 2; }
      int kernel(int size, double* data) {
        int acc = 0;
        for (int i = 0; i < 8; i++) {
          for (int j = 0; j < 4; j++) {
            acc = acc + helper(j);
          }
        }
        return acc + size;
      }
      void driver(double* data) {
        kernel(128, data);
        kernel(256, data);
        helper(1);
      }
    )");
  }

  std::vector<SelectionBinding> select(const std::string& src) {
    AspectLibrary lib = parse_aspects("aspectdef T " + src + " apply end end");
    const Item& item = lib.find("T")->body[0];
    JoinPointPtr root;
    return run_select(*module_, root, item.select);
  }

  std::unique_ptr<cir::Module> module_;
};

TEST_F(SelectTest, SelectsAllFunctions) {
  EXPECT_EQ(select("select func end").size(), 3u);
}

TEST_F(SelectTest, NameFilterShorthand) {
  const auto r = select("select func{'kernel'} end");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].leaf()->func->name, "kernel");
}

TEST_F(SelectTest, SelectsAllCalls) {
  // helper(j) in kernel + kernel, kernel, helper in driver = 4.
  EXPECT_EQ(select("select fCall end").size(), 4u);
}

TEST_F(SelectTest, CallsFilteredByName) {
  EXPECT_EQ(select("select fCall{'kernel'} end").size(), 2u);
  EXPECT_EQ(select("select fCall{'helper'} end").size(), 2u);
}

TEST_F(SelectTest, NestedChainBindsBothVars) {
  const auto r = select("select func{'driver'}.fCall{'kernel'} end");
  ASSERT_EQ(r.size(), 2u);
  EXPECT_NE(r[0].find("$func"), nullptr);
  EXPECT_NE(r[0].find("$fCall"), nullptr);
  EXPECT_EQ((*r[0].find("$func"))->func->name, "driver");
}

TEST_F(SelectTest, LoopSelectionWithAttrFilter) {
  EXPECT_EQ(select("select loop{type=='for'} end").size(), 2u);
  EXPECT_EQ(select("select loop{type=='while'} end").size(), 0u);
}

TEST_F(SelectTest, ArgSelection) {
  const auto r = select("select fCall{'kernel'}.arg{'size'} end");
  ASSERT_EQ(r.size(), 2u);
  const JoinPointPtr& arg = r[0].leaf();
  EXPECT_EQ(arg->attribute("name").as_str(), "size");
  EXPECT_EQ(arg->attribute("index").as_num(), 0.0);
  EXPECT_EQ(arg->attribute("value").as_num(), 128.0);
}

TEST_F(SelectTest, JoinPointAttributes) {
  const auto r = select("select fCall{'helper'} end");
  const JoinPointPtr& jp = r[0].leaf();
  EXPECT_EQ(jp->attribute("name").as_str(), "helper");
  EXPECT_EQ(jp->attribute("numArgs").as_num(), 1.0);
  EXPECT_TRUE(jp->attribute("argList").is_code());
  EXPECT_THROW(jp->attribute("nonsense"), Error);
}

TEST_F(SelectTest, LoopAttributes) {
  const auto r = select("select func{'kernel'}.loop end");
  ASSERT_EQ(r.size(), 2u);
  const JoinPointPtr& outer = r[0].leaf();
  const JoinPointPtr& inner = r[1].leaf();
  EXPECT_FALSE(outer->attribute("isInnermost").as_bool());
  EXPECT_TRUE(inner->attribute("isInnermost").as_bool());
  EXPECT_EQ(outer->attribute("numIter").as_num(), 8.0);
  EXPECT_EQ(inner->attribute("numIter").as_num(), 4.0);
  EXPECT_EQ(inner->attribute("inductionVar").as_str(), "j");
}

// --------------------------------------------------------------------------
// Figure 2 end-to-end: ProfileArguments
// --------------------------------------------------------------------------

constexpr const char* kFig2 = R"(
  aspectdef ProfileArguments
    input funcName end
    select fCall end
    apply
      insert before %{profile_args('[[funcName]]', '[[$fCall.location]]', [[$fCall.argList]]);}%;
    end
    condition $fCall.name == funcName end
  end
)";

class Fig2Test : public ::testing::Test {
 protected:
  void SetUp() override {
    module_ = cir::parse_module(R"(
      int work(int a, int b) { return a * b; }
      int run(int n) {
        int total = 0;
        for (int i = 0; i < n; i++) {
          total = total + work(i, n);
        }
        total = total + work(7, 7);
        return total;
      }
    )");
  }

  std::unique_ptr<cir::Module> module_;
};

TEST_F(Fig2Test, InjectsProbeOnlyBeforeMatchingCalls) {
  Weaver weaver(*module_);
  weaver.load_source(kFig2);
  weaver.run("ProfileArguments", {Val::str("work")});

  EXPECT_EQ(weaver.stats().inserts, 2u);
  const std::string src = cir::to_source(*module_);
  // Both call sites of `work` got a probe naming the function.
  EXPECT_NE(src.find("profile_args(\"work\""), std::string::npos);
  // argList splices raw argument expressions.
  EXPECT_NE(src.find("i, n)"), std::string::npos);
  // The woven module still type-checks.
  EXPECT_TRUE(cir::check_module(*module_).empty());
}

TEST_F(Fig2Test, NonMatchingNameWeavesNothing) {
  Weaver weaver(*module_);
  weaver.load_source(kFig2);
  weaver.run("ProfileArguments", {Val::str("nothing_called_this")});
  EXPECT_EQ(weaver.stats().inserts, 0u);
  EXPECT_GT(weaver.stats().condition_rejects, 0u);
}

TEST_F(Fig2Test, WovenProgramProfilesArgumentValues) {
  Weaver weaver(*module_);
  weaver.load_source(kFig2);
  weaver.run("ProfileArguments", {Val::str("work")});

  vm::Engine engine;
  ProfileStore store;
  store.install(engine);
  engine.load_module(*module_);
  const i64 result = engine.call("run", {Value::from_int(5)}).as_int();

  // Semantics preserved: sum_{i<5} i*5 + 49 = 50 + 49.
  EXPECT_EQ(result, 99);
  ASSERT_TRUE(store.has("work"));
  const auto& prof = store.profile("work");
  EXPECT_EQ(prof.calls, 6u);  // 5 loop iterations + 1 straight call
  // Argument frequency histogram: arg1 saw value 5 five times, 7 once.
  EXPECT_EQ(prof.value_counts[1].at(5.0), 5u);
  EXPECT_EQ(prof.value_counts[1].at(7.0), 1u);
  EXPECT_EQ(store.hottest_value("work", 1), 5.0);
}

TEST_F(Fig2Test, ProbeOverheadIsObservable) {
  // The unwoven program executes fewer VM instructions than the woven one —
  // the cost the paper's autotuner weighs when deciding what to monitor.
  vm::Engine plain;
  plain.load_module(*module_);
  plain.call("run", {Value::from_int(20)});
  const u64 base = plain.executed_instructions();

  Weaver weaver(*module_);
  weaver.load_source(kFig2);
  weaver.run("ProfileArguments", {Val::str("work")});
  vm::Engine woven;
  ProfileStore store;
  store.install(woven);
  woven.load_module(*module_);
  woven.call("run", {Value::from_int(20)});
  EXPECT_GT(woven.executed_instructions(), base);
}

// --------------------------------------------------------------------------
// Figure 3 end-to-end: UnrollInnermostLoops
// --------------------------------------------------------------------------

constexpr const char* kFig3 = R"(
  aspectdef UnrollInnermostLoops
    input $func, threshold end
    select $func.loop{type=='for'} end
    apply
      do LoopUnroll('full');
    end
    condition
      $loop.isInnermost && $loop.numIter <= threshold
    end
  end
)";

class Fig3Test : public ::testing::Test {
 protected:
  void SetUp() override {
    module_ = cir::parse_module(R"(
      int stencil(int reps) {
        int acc = 0;
        for (int r = 0; r < reps; r++) {
          for (int k = 0; k < 6; k++) {
            acc = acc + k * k;
          }
        }
        return acc;
      }
    )");
  }

  JoinPointPtr func_jp() {
    auto jp = std::make_shared<JoinPoint>();
    jp->kind = JoinPoint::Kind::Function;
    jp->module = module_.get();
    jp->func = module_->find("stencil");
    return jp;
  }

  std::unique_ptr<cir::Module> module_;
};

TEST_F(Fig3Test, UnrollsOnlyInnermostSmallLoops) {
  Weaver weaver(*module_);
  weaver.load_source(kFig3);
  weaver.run("UnrollInnermostLoops",
             {Val::join_point(func_jp()), Val::num(16)});
  EXPECT_EQ(weaver.stats().unrolls, 1u);
  // The outer loop survives (not innermost; reps unknown anyway).
  EXPECT_EQ(cir::collect_for_loops(*module_->find("stencil")).size(), 1u);

  vm::Engine engine;
  engine.load_module(*module_);
  EXPECT_EQ(engine.call("stencil", {Value::from_int(3)}).as_int(), 165);
}

TEST_F(Fig3Test, ThresholdGatesUnrolling) {
  Weaver weaver(*module_);
  weaver.load_source(kFig3);
  weaver.run("UnrollInnermostLoops",
             {Val::join_point(func_jp()), Val::num(4)});  // 6 > 4
  EXPECT_EQ(weaver.stats().unrolls, 0u);
  EXPECT_EQ(weaver.stats().condition_rejects, 2u);  // inner (too big) + outer
}

TEST_F(Fig3Test, UnrollingReducesInstructions) {
  vm::Engine before;
  before.load_module(*module_);
  before.call("stencil", {Value::from_int(10)});
  const u64 base = before.executed_instructions();

  Weaver weaver(*module_);
  weaver.load_source(kFig3);
  weaver.run("UnrollInnermostLoops", {Val::join_point(func_jp()), Val::num(16)});

  vm::Engine after;
  after.load_module(*module_);
  after.call("stencil", {Value::from_int(10)});
  EXPECT_LT(after.executed_instructions(), base);
}

// --------------------------------------------------------------------------
// Figure 4 end-to-end: SpecializeKernel (dynamic weaving)
// --------------------------------------------------------------------------

constexpr const char* kFig4 = R"(
  aspectdef UnrollInnermostLoops
    input $func, threshold end
    select $func.loop{type=='for'} end
    apply
      do LoopUnroll('full');
    end
    condition
      $loop.isInnermost && $loop.numIter <= threshold
    end
  end

  aspectdef SpecializeKernel
    input lowT, highT end

    call spCall: PrepareSpecialize('kernel','size');

    select fCall{'kernel'}.arg{'size'} end
    apply dynamic
      call spOut : Specialize($fCall, $arg.name, $arg.runtimeValue);
      call UnrollInnermostLoops(spOut.$func, $arg.runtimeValue);
      call AddVersion(spCall, spOut.$func, $arg.runtimeValue);
    end
    condition
      $arg.runtimeValue >= lowT &&
      $arg.runtimeValue <= highT
    end
  end
)";

class Fig4Test : public ::testing::Test {
 protected:
  void SetUp() override {
    module_ = cir::parse_module(R"(
      int kernel(int size, int x) {
        int s = 0;
        for (int i = 0; i < size; i++) {
          s = s + x;
        }
        return s;
      }
      int caller(int size, int x) { return kernel(size, x); }
    )");
    engine_.load_module(*module_);
    weaver_ = std::make_unique<Weaver>(*module_, &engine_);
    weaver_->load_source(kFig4);
  }

  std::unique_ptr<cir::Module> module_;
  vm::Engine engine_;
  std::unique_ptr<Weaver> weaver_;
};

TEST_F(Fig4Test, RegistersDynamicAspect) {
  weaver_->run("SpecializeKernel", {Val::num(2), Val::num(64)});
  EXPECT_EQ(weaver_->stats().dynamic_registrations, 1u);
  EXPECT_EQ(engine_.version_count("kernel"), 0u);  // nothing triggered yet
}

TEST_F(Fig4Test, RuntimeValueInRangeTriggersSpecialization) {
  weaver_->run("SpecializeKernel", {Val::num(2), Val::num(64)});

  const i64 r = engine_.call("caller", {Value::from_int(8), Value::from_int(3)}).as_int();
  EXPECT_EQ(r, 24);
  EXPECT_EQ(weaver_->stats().dynamic_triggers, 1u);
  EXPECT_EQ(weaver_->stats().specializations, 1u);
  EXPECT_EQ(weaver_->stats().versions_added, 1u);
  EXPECT_EQ(engine_.version_count("kernel"), 1u);
  // The specialized clone exists in the module and its loop was unrolled.
  cir::Function* variant = module_->find("kernel__size_8");
  ASSERT_NE(variant, nullptr);
  EXPECT_TRUE(cir::collect_for_loops(*variant).empty());

  // Subsequent calls with size=8 dispatch to the installed version.
  engine_.call("caller", {Value::from_int(8), Value::from_int(5)});
  EXPECT_GE(engine_.dispatch_stats("kernel").specialized_hits, 1u);
}

TEST_F(Fig4Test, OutOfRangeValuesAreNotSpecialized) {
  weaver_->run("SpecializeKernel", {Val::num(2), Val::num(64)});
  engine_.call("caller", {Value::from_int(100), Value::from_int(3)});
  EXPECT_EQ(weaver_->stats().dynamic_triggers, 0u);
  EXPECT_EQ(engine_.version_count("kernel"), 0u);
  engine_.call("caller", {Value::from_int(1), Value::from_int(3)});
  EXPECT_EQ(engine_.version_count("kernel"), 0u);
}

TEST_F(Fig4Test, EachGuardValueSpecializedOnce) {
  weaver_->run("SpecializeKernel", {Val::num(2), Val::num(64)});
  for (int rep = 0; rep < 5; ++rep)
    engine_.call("caller", {Value::from_int(16), Value::from_int(rep)});
  EXPECT_EQ(weaver_->stats().specializations, 1u);
  EXPECT_EQ(engine_.version_count("kernel"), 1u);

  engine_.call("caller", {Value::from_int(32), Value::from_int(1)});
  EXPECT_EQ(engine_.version_count("kernel"), 2u);
}

TEST_F(Fig4Test, SpecializedVersionExecutesFewerInstructions) {
  weaver_->run("SpecializeKernel", {Val::num(2), Val::num(64)});
  // Trigger specialization for size=32.
  engine_.call("caller", {Value::from_int(32), Value::from_int(1)});

  engine_.reset_instruction_count();
  engine_.call("caller", {Value::from_int(32), Value::from_int(1)});
  const u64 specialized = engine_.executed_instructions();

  engine_.reset_instruction_count();
  engine_.call("caller", {Value::from_int(65), Value::from_int(1)});  // > highT
  const u64 generic = engine_.executed_instructions();

  EXPECT_LT(specialized, generic / 2);
  // And results agree (33 reps? no: 65 vs 32 — compare like-for-like):
  EXPECT_EQ(engine_.call("kernel", {Value::from_int(32), Value::from_int(2)}).as_int(),
            64);
}

TEST_F(Fig4Test, DynamicWeavingPreservesSemanticsAcrossSizes) {
  weaver_->run("SpecializeKernel", {Val::num(2), Val::num(64)});
  for (i64 size : {1, 2, 3, 8, 16, 33, 64, 65, 100}) {
    const i64 expected = size * 7;
    EXPECT_EQ(engine_.call("caller", {Value::from_int(size), Value::from_int(7)})
                  .as_int(),
              expected)
        << "size=" << size;
  }
}

// --------------------------------------------------------------------------
// SectionTimers (monitor_begin / monitor_end probes)
// --------------------------------------------------------------------------

class SectionTimersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    module_ = cir::parse_module(R"(
      int work(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }
      int run(int n) {
        monitor_begin("hot");
        int a = work(n);
        monitor_end("hot");
        monitor_begin("cold");
        int b = work(2);
        monitor_end("cold");
        return a + b;
      }
    )");
    timers_.install(engine_);
    engine_.load_module(*module_);
  }

  std::unique_ptr<cir::Module> module_;
  vm::Engine engine_;
  SectionTimers timers_;
};

TEST_F(SectionTimersTest, MeasuresSectionsInInstructions) {
  engine_.call("run", {Value::from_int(100)});
  ASSERT_TRUE(timers_.has("hot"));
  ASSERT_TRUE(timers_.has("cold"));
  EXPECT_EQ(timers_.section("hot").entries, 1u);
  EXPECT_EQ(timers_.section("hot").exits, 1u);
  // The hot section (n=100) costs far more than the cold one (n=2).
  EXPECT_GT(timers_.mean_instructions("hot"),
            10.0 * timers_.mean_instructions("cold"));
  EXPECT_EQ(timers_.open_sections(), 0u);
}

TEST_F(SectionTimersTest, AccumulatesAcrossCalls) {
  for (int i = 0; i < 5; ++i) engine_.call("run", {Value::from_int(10)});
  EXPECT_EQ(timers_.section("hot").entries, 5u);
  EXPECT_EQ(timers_.section("hot").min_instructions,
            timers_.section("hot").max_instructions);  // identical work
}

TEST_F(SectionTimersTest, WovenSectionProbes) {
  // The monitoring story end-to-end: an aspect weaves the probes.
  // Note: the anchor for insertion is the whole statement containing the
  // call; `insert after` on a call inside a `return` would land after the
  // return (woven but unreachable), so the timed call sits in its own
  // statement here.
  auto m = cir::parse_module(
      "int work(int n) { return n * n; }"
      "int run(int n) { int a = work(n); return a + 1; }");
  vm::Engine engine;
  SectionTimers timers;
  timers.install(engine);
  dsl::Weaver w(*m);
  w.load_source(R"(
    aspectdef TimeCalls
      select fCall{'work'} end
      apply
        insert before %{monitor_begin('work');}%;
        insert after %{monitor_end('work');}%;
      end
    end
  )");
  w.run("TimeCalls");
  engine.load_module(*m);
  engine.call("run", {Value::from_int(3)});
  EXPECT_EQ(timers.section("work").exits, 1u);
  EXPECT_GT(timers.mean_instructions("work"), 0.0);
}

TEST_F(SectionTimersTest, MismatchedEndsAreRejected) {
  auto m = cir::parse_module(
      "void bad1() { monitor_end(\"x\"); }"
      "void bad2() { monitor_begin(\"a\"); monitor_end(\"b\"); }");
  vm::Engine engine;
  SectionTimers timers;
  timers.install(engine);
  engine.load_module(*m);
  EXPECT_THROW(engine.call("bad1", {}), Error);
  EXPECT_THROW(engine.call("bad2", {}), Error);
}

TEST_F(SectionTimersTest, NestedSections) {
  auto m = cir::parse_module(R"(
    int f() {
      monitor_begin("outer");
      monitor_begin("inner");
      int x = 1 + 2;
      monitor_end("inner");
      monitor_end("outer");
      return x;
    }
  )");
  vm::Engine engine;
  SectionTimers timers;
  timers.install(engine);
  engine.load_module(*m);
  engine.call("f", {});
  EXPECT_GE(timers.mean_instructions("outer"), timers.mean_instructions("inner"));
}

// --------------------------------------------------------------------------
// Weaver misc
// --------------------------------------------------------------------------

TEST(Weaver, UnknownAspectThrows) {
  auto m = cir::parse_module("void f() { }");
  Weaver w(*m);
  EXPECT_THROW(w.run("Nope"), Error);
}

TEST(Weaver, TooManyInputsThrow) {
  auto m = cir::parse_module("void f() { }");
  Weaver w(*m);
  w.load_source("aspectdef A input x end end");
  EXPECT_THROW(w.run("A", {Val::num(1), Val::num(2)}), Error);
}

TEST(Weaver, MissingInputsDefaultToNull) {
  auto m = cir::parse_module("void f() { }");
  Weaver w(*m);
  w.load_source("aspectdef A input x end output y end y = x == null; end");
  const Record out = w.run("A");
  EXPECT_TRUE(out.at("y").as_bool());
}

TEST(Weaver, ApplyBlockAccumulatesIntoAspectVariables) {
  auto m = cir::parse_module(
      "int g(int x) { return x; }"
      "int f() { return g(1) + g(2) + g(3); }");
  Weaver w(*m);
  w.load_source(R"(
    aspectdef CountCalls
      output n end
      var c = 0;
      select fCall{'g'} end
      apply
        c = c + 1;
      end
      n = c;
    end
  )");
  const Record out = w.run("CountCalls");
  EXPECT_EQ(out.at("n").as_num(), 3.0);
}

TEST(Weaver, CallingUserAspectReturnsOutputs) {
  auto m = cir::parse_module("void f() { }");
  Weaver w(*m);
  w.load_source(R"(
    aspectdef Inner
      input a end
      output doubled end
      doubled = a * 2;
    end
    aspectdef Outer
      output result end
      call r: Inner(21);
      result = r.doubled;
    end
  )");
  const Record out = w.run("Outer");
  EXPECT_EQ(out.at("result").as_num(), 42.0);
}

TEST(Weaver, DynamicApplyRequiresEngine) {
  auto m = cir::parse_module("int kernel(int size) { return size; } ");
  Weaver w(*m);  // no engine
  w.load_source(R"(
    aspectdef D
      select fCall{'kernel'}.arg{'size'} end
      apply dynamic
      end
    end
  )");
  EXPECT_THROW(w.run("D"), Error);
}

TEST(Weaver, TemplateSpliceQuotingRules) {
  auto m = cir::parse_module(
      "int work(int a) { return a; } int run() { return work(3); }");
  Weaver w(*m);
  w.load_source(R"(
    aspectdef P
      input tag end
      select fCall{'work'} end
      apply
        insert before %{profile_args('[[tag]]', '[[$fCall.location]]', [[$fCall.numArgs]]);}%;
      end
    end
  )");
  w.run("P", {Val::str("mytag")});
  const std::string src = cir::to_source(*m);
  EXPECT_NE(src.find("\"mytag\""), std::string::npos);   // string spliced quoted
  EXPECT_NE(src.find(", 1)"), std::string::npos);        // number spliced raw
}

TEST(Weaver, InsertAfterPlacesProbeAfterStatement) {
  auto m = cir::parse_module(
      "int work(int a) { return a; } void run() { int x = work(3); x = x + 1; }");
  Weaver w(*m);
  w.load_source(R"(
    aspectdef P
      select fCall{'work'} end
      apply
        insert after %{monitor_end(0);}%;
      end
    end
  )");
  w.run("P");
  const cir::Function* run_fn = m->find("run");
  // Statement order: decl(x=work(3)), monitor_end, x=x+1.
  ASSERT_EQ(run_fn->body->stmts.size(), 3u);
  EXPECT_EQ(run_fn->body->stmts[0]->kind, cir::StmtKind::VarDecl);
  EXPECT_EQ(run_fn->body->stmts[1]->kind, cir::StmtKind::ExprStmt);
}

}  // namespace
}  // namespace antarex::dsl
