// Unit tests for the VM: bytecode compilation, interpretation semantics,
// host functions, arrays, the instruction counter, and the JIT manager's
// multiversion dispatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "cir/parser.hpp"
#include "dsl/runtime.hpp"
#include "dsl/weaver.hpp"
#include "passes/const_fold.hpp"
#include "passes/dce.hpp"
#include "passes/pass_manager.hpp"
#include "passes/specialize.hpp"
#include "passes/unroll.hpp"
#include "program_gen.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "vm/compiler.hpp"
#include "vm/engine.hpp"

namespace antarex::vm {
namespace {

Value run(const std::string& src, const std::string& fn, std::vector<Value> args) {
  auto m = cir::parse_module(src);
  Engine engine;
  engine.load_module(*m);
  return engine.call(fn, std::move(args));
}

i64 run_int(const std::string& src, const std::string& fn,
            std::vector<Value> args = {}) {
  return run(src, fn, std::move(args)).as_int();
}

double run_float(const std::string& src, const std::string& fn,
                 std::vector<Value> args = {}) {
  return run(src, fn, std::move(args)).as_float();
}

// --------------------------------------------------------------------------
// Arithmetic & control flow semantics
// --------------------------------------------------------------------------

TEST(Vm, IntegerArithmetic) {
  EXPECT_EQ(run_int("int f() { return 2 + 3 * 4 - 1; }", "f"), 13);
  EXPECT_EQ(run_int("int f() { return 7 / 2; }", "f"), 3);
  EXPECT_EQ(run_int("int f() { return 7 % 3; }", "f"), 1);
  EXPECT_EQ(run_int("int f() { return -5 + 2; }", "f"), -3);
}

TEST(Vm, FloatArithmeticAndPromotion) {
  EXPECT_DOUBLE_EQ(run_float("double f() { return 1.5 * 4.0; }", "f"), 6.0);
  EXPECT_DOUBLE_EQ(run_float("double f() { return 7 / 2.0; }", "f"), 3.5);
}

TEST(Vm, Comparisons) {
  EXPECT_EQ(run_int("int f() { return 3 < 4; }", "f"), 1);
  EXPECT_EQ(run_int("int f() { return 3 >= 4; }", "f"), 0);
  EXPECT_EQ(run_int("int f() { return 2.5 == 2.5; }", "f"), 1);
}

TEST(Vm, ShortCircuitAndOr) {
  // Division by zero on the rhs must not execute when lhs decides.
  EXPECT_EQ(run_int("int f() { return 0 && 1 / 0; }", "f"), 0);
  EXPECT_EQ(run_int("int f() { return 1 || 1 / 0; }", "f"), 1);
  EXPECT_EQ(run_int("int f() { return 1 && 2; }", "f"), 1);  // normalized to 0/1
}

TEST(Vm, DivisionByZeroThrows) {
  EXPECT_THROW(run_int("int f() { return 1 / 0; }", "f"), Error);
  EXPECT_THROW(run_int("int f() { return 1 % 0; }", "f"), Error);
}

TEST(Vm, IfElse) {
  const std::string src = "int sign(int x) { if (x > 0) { return 1; } else { "
                          "if (x < 0) { return -1; } } return 0; }";
  EXPECT_EQ(run_int(src, "sign", {Value::from_int(5)}), 1);
  EXPECT_EQ(run_int(src, "sign", {Value::from_int(-5)}), -1);
  EXPECT_EQ(run_int(src, "sign", {Value::from_int(0)}), 0);
}

TEST(Vm, ForLoopSum) {
  EXPECT_EQ(run_int("int f(int n) { int s = 0; for (int i = 1; i <= n; i++) s += i; "
                    "return s; }",
                    "f", {Value::from_int(100)}),
            5050);
}

TEST(Vm, WhileWithBreakContinue) {
  const std::string src =
      "int f() { int s = 0; int i = 0;"
      "  while (1) { i++; if (i > 10) break; if (i % 2 == 0) continue; s += i; }"
      "  return s; }";
  EXPECT_EQ(run_int(src, "f"), 25);  // 1+3+5+7+9
}

TEST(Vm, NestedLoops) {
  const std::string src =
      "int f(int n) { int c = 0;"
      "  for (int i = 0; i < n; i++) for (int j = 0; j < n; j++) c++;"
      "  return c; }";
  EXPECT_EQ(run_int(src, "f", {Value::from_int(13)}), 169);
}

TEST(Vm, BreakInnerLoopOnly) {
  const std::string src =
      "int f() { int c = 0;"
      "  for (int i = 0; i < 3; i++) { for (int j = 0; j < 100; j++) { "
      "if (j == 2) break; c++; } }"
      "  return c; }";
  EXPECT_EQ(run_int(src, "f"), 6);
}

TEST(Vm, Recursion) {
  EXPECT_EQ(run_int("int fib(int n) { if (n < 2) { return n; } "
                    "return fib(n - 1) + fib(n - 2); }",
                    "fib", {Value::from_int(15)}),
            610);
}

TEST(Vm, RecursionDepthLimited) {
  EXPECT_THROW(run_int("int f(int n) { return f(n + 1); }", "f", {Value::from_int(0)}),
               Error);
}

TEST(Vm, ScopeShadowing) {
  const std::string src =
      "int f() { int x = 1; { int x = 10; x = x + 5; } return x; }";
  EXPECT_EQ(run_int(src, "f"), 1);
}

TEST(Vm, CallBetweenFunctions) {
  const std::string src =
      "int square(int x) { return x * x; }"
      "int f(int n) { return square(n) + square(n + 1); }";
  EXPECT_EQ(run_int(src, "f", {Value::from_int(3)}), 25);
}

// --------------------------------------------------------------------------
// Arrays & host functions
// --------------------------------------------------------------------------

TEST(Vm, FloatArrayReadWrite) {
  auto buf = std::make_shared<std::vector<double>>(std::vector<double>{1, 2, 3, 4});
  const std::string src =
      "double sum(double* a, int n) { double s = 0.0; "
      "for (int i = 0; i < n; i++) s = s + a[i]; return s; }";
  EXPECT_DOUBLE_EQ(run_float(src, "sum",
                             {Value::from_float_array(buf), Value::from_int(4)}),
                   10.0);
}

TEST(Vm, ArrayMutationVisibleToHost) {
  auto buf = std::make_shared<std::vector<i64>>(std::vector<i64>{0, 0, 0});
  run("void fill(int* a, int n) { for (int i = 0; i < n; i++) a[i] = i * i; }",
      "fill", {Value::from_int_array(buf), Value::from_int(3)});
  EXPECT_EQ((*buf)[0], 0);
  EXPECT_EQ((*buf)[1], 1);
  EXPECT_EQ((*buf)[2], 4);
}

TEST(Vm, ArrayBoundsChecked) {
  auto buf = std::make_shared<std::vector<i64>>(std::vector<i64>{1});
  EXPECT_THROW(run("int f(int* a) { return a[5]; }", "f",
                   {Value::from_int_array(buf)}),
               Error);
  EXPECT_THROW(run("int f(int* a) { return a[-1]; }", "f",
                   {Value::from_int_array(buf)}),
               Error);
}

TEST(Vm, MathBuiltins) {
  EXPECT_DOUBLE_EQ(run_float("double f() { return sqrt(16.0); }", "f"), 4.0);
  EXPECT_DOUBLE_EQ(run_float("double f() { return fabs(-2.5); }", "f"), 2.5);
  EXPECT_DOUBLE_EQ(run_float("double f() { return pow(2.0, 10.0); }", "f"), 1024.0);
  EXPECT_EQ(run_int("int f() { return min(3, 7) + max(3, 7); }", "f"), 10);
}

TEST(Vm, CustomHostFunction) {
  auto m = cir::parse_module("int f(int x) { return hook(x) * 2; }");
  Engine engine;
  engine.load_module(*m);
  int called = 0;
  engine.register_host("hook", [&called](std::span<const Value> args) {
    ++called;
    return Value::from_int(args[0].as_int() + 1);
  });
  EXPECT_EQ(engine.call("f", {Value::from_int(10)}).as_int(), 22);
  EXPECT_EQ(called, 1);
}

TEST(Vm, UnknownFunctionThrows) {
  Engine engine;
  EXPECT_THROW(engine.call("nope", {}), Error);
}

TEST(Vm, WrongArityThrows) {
  auto m = cir::parse_module("int f(int x) { return x; }");
  Engine engine;
  engine.load_module(*m);
  EXPECT_THROW(engine.call("f", {}), Error);
}

TEST(Vm, StringLiteralArgumentsReachHost) {
  auto m = cir::parse_module("void f() { probe(\"hello\", 3); }");
  Engine engine;
  engine.load_module(*m);
  std::string seen;
  engine.register_host("probe", [&seen](std::span<const Value> args) {
    seen = args[0].as_str();
    return Value::from_int(0);
  });
  engine.call("f", {});
  EXPECT_EQ(seen, "hello");
}

// --------------------------------------------------------------------------
// Instruction counting (the deterministic performance metric)
// --------------------------------------------------------------------------

TEST(Vm, InstructionCountIsDeterministic) {
  auto m = cir::parse_module(
      "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }");
  Engine e1, e2;
  e1.load_module(*m);
  e2.load_module(*m);
  e1.call("f", {Value::from_int(50)});
  e2.call("f", {Value::from_int(50)});
  EXPECT_EQ(e1.executed_instructions(), e2.executed_instructions());
  EXPECT_GT(e1.executed_instructions(), 0u);
}

TEST(Vm, InstructionCountScalesWithWork) {
  auto m = cir::parse_module(
      "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }");
  Engine engine;
  engine.load_module(*m);
  engine.call("f", {Value::from_int(10)});
  const u64 small = engine.executed_instructions();
  engine.reset_instruction_count();
  engine.call("f", {Value::from_int(1000)});
  const u64 large = engine.executed_instructions();
  EXPECT_GT(large, small * 50);
}

TEST(Vm, PerFunctionAttributionIsFlat) {
  auto m = cir::parse_module(
      "int leaf(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }"
      "int root(int n) { return leaf(n) + leaf(n); }");
  Engine engine;
  engine.load_module(*m);
  engine.call("root", {Value::from_int(200)});
  const u64 leaf_instr = engine.function_instructions("leaf");
  const u64 root_instr = engine.function_instructions("root");
  // The loop work is attributed to leaf, not to its caller.
  EXPECT_GT(leaf_instr, 20 * root_instr);
  // Everything adds up to the global counter.
  EXPECT_EQ(leaf_instr + root_instr, engine.executed_instructions());
  // Unknown names report zero; reset clears the profile.
  EXPECT_EQ(engine.function_instructions("nope"), 0u);
  engine.reset_instruction_count();
  EXPECT_EQ(engine.function_instructions("leaf"), 0u);
}

TEST(Vm, InstructionLimitStopsRunaway) {
  auto m = cir::parse_module("void f() { while (1) { } }");
  Engine engine;
  engine.load_module(*m);
  engine.set_instruction_limit(10000);
  EXPECT_THROW(engine.call("f", {}), Error);
}

TEST(Vm, InstructionLimitTripsAtLimitPlusOne) {
  auto m = cir::parse_module("void spin() { while (1) { } } int f() { spin(); return 1; }");
  Engine engine;
  engine.load_module(*m);
  engine.set_instruction_limit(10000);
  EXPECT_THROW(engine.call("f", {}), Error);
  EXPECT_EQ(engine.executed_instructions(), 10001u);
  EXPECT_EQ(engine.function_instructions("f") + engine.function_instructions("spin"),
            10001u);
}

// --------------------------------------------------------------------------
// The frame stack: errors, depth, re-entry
// --------------------------------------------------------------------------

TEST(VmFrames, LoadRejectsBytecodeTheFrameCannotHold) {
  const auto function = [](std::vector<Instr> code) {
    CompiledFunction f;
    f.name = "bad";
    f.num_slots = 1;
    f.code = std::move(code);
    return f;
  };
  Engine engine;
  // Pops an empty operand stack.
  EXPECT_THROW(engine.load_function(function({Instr{Op::Pop}, Instr{Op::RetVoid}})),
               Error);
  // Reads a slot the frame does not have.
  EXPECT_THROW(engine.load_function(function({Instr{Op::Load, 3}, Instr{Op::Ret}})),
               Error);
  // Reaches one instruction at depths 0 and 1.
  EXPECT_THROW(engine.load_function(function({Instr{Op::PushInt}, Instr{Op::JumpIfTrue, 3},
                                              Instr{Op::PushInt}, Instr{Op::RetVoid}})),
               Error);
  EXPECT_THROW(engine.call("bad", {}), Error);  // nothing was loaded
  // Jumping past the end is a return, as at run time.
  engine.load_function(function({Instr{Op::Jump, 99}}));
  EXPECT_EQ(engine.call("bad", {}).as_int(), 0);
}

TEST(VmFrames, ErrorThreeFramesDeepLeavesEngineReusable) {
  auto m = cir::parse_module(
      "int leaf(int* a, int i, int d) { return a[i] / d; }"
      "int mid(int* a, int i, int d) { int t = 1; return t + leaf(a, i, d); }"
      "int top(int* a, int i, int d) { int u = 2; return u * mid(a, i, d); }");
  auto buf = std::make_shared<std::vector<i64>>(std::vector<i64>{10, 20, 30});
  const auto args = [&buf](i64 i, i64 d) {
    return std::vector<Value>{Value::from_int_array(buf), Value::from_int(i),
                              Value::from_int(d)};
  };
  Engine engine;
  engine.load_module(*m);
  EXPECT_THROW(engine.call("top", args(1, 0)), Error);  // division by zero
  EXPECT_THROW(engine.call("top", args(7, 1)), Error);  // index out of bounds
  // Frames that threw still attribute what they ran.
  EXPECT_EQ(engine.function_instructions("top") + engine.function_instructions("mid") +
                engine.function_instructions("leaf"),
            engine.executed_instructions());

  engine.reset_instruction_count();
  Engine fresh;
  fresh.load_module(*m);
  EXPECT_EQ(engine.call("top", args(2, 3)).as_int(), 22);
  EXPECT_EQ(fresh.call("top", args(2, 3)).as_int(), 22);
  EXPECT_EQ(engine.executed_instructions(), fresh.executed_instructions());
  for (const char* name : {"top", "mid", "leaf"})
    EXPECT_EQ(engine.function_instructions(name), fresh.function_instructions(name));
}

TEST(VmFrames, RecursionToExactlyTheDepthLimit) {
  auto m = cir::parse_module(
      "int down(int n) { if (n == 0) { return 0; } return 1 + down(n - 1); }");
  Engine engine;
  engine.load_module(*m);
  // down(255) .. down(0) are 256 frames: exactly the limit.
  EXPECT_EQ(engine.call("down", {Value::from_int(255)}).as_int(), 255);
  EXPECT_THROW(engine.call("down", {Value::from_int(256)}), Error);
  // The failed call unwound every frame: the next one runs as on a fresh engine.
  engine.reset_instruction_count();
  Engine fresh;
  fresh.load_module(*m);
  EXPECT_EQ(engine.call("down", {Value::from_int(255)}).as_int(), 255);
  fresh.call("down", {Value::from_int(255)});
  EXPECT_EQ(engine.executed_instructions(), fresh.executed_instructions());
}

TEST(VmFrames, StringConstantIsUnchangedAcrossCalls) {
  auto m = cir::parse_module(
      "void f(int n) { for (int i = 0; i < n; i++) probe(\"hello\", i); }");
  Engine engine;
  engine.load_module(*m);
  std::vector<Value> kept;
  engine.register_host("probe", [&kept](std::span<const Value> args) {
    kept.push_back(args[0]);
    return Value::from_int(0);
  });
  engine.call("f", {Value::from_int(3)});
  engine.call("f", {Value::from_int(3)});
  ASSERT_EQ(kept.size(), 6u);
  for (const Value& v : kept) EXPECT_EQ(v.as_str(), "hello");
}

TEST(VmFrames, HostFunctionCanCallBackIntoTheEngine) {
  auto m = cir::parse_module(
      "int sq(int x) { return x * x; }"
      "int deep(int n) { if (n == 0) { return 0; } return 1 + deep(n - 1); }"
      "int f(int a, int b) { return relay(a, b) + 1; }");
  Engine engine;
  engine.load_module(*m);
  engine.register_host("relay", [&engine](std::span<const Value> args) {
    // A deep nested call grows a stack well past the caller's frames; the
    // caller's argument span must stay readable afterwards.
    const i64 depth = engine.call("deep", {Value::from_int(200)}).as_int();
    const i64 square = engine.call("sq", {args[1]}).as_int();
    return Value::from_int(args[0].as_int() + square + depth);
  });
  EXPECT_EQ(engine.call("f", {Value::from_int(2), Value::from_int(3)}).as_int(),
            2 + 9 + 200 + 1);
}

// --------------------------------------------------------------------------
// Value semantics
// --------------------------------------------------------------------------

TEST(ValueTest, KindsAndCoercions) {
  EXPECT_EQ(Value::from_int(3).as_float(), 3.0);
  EXPECT_EQ(Value::from_float(3.9).as_int(), 3);  // C-style truncation
  EXPECT_THROW(Value::from_str("x").as_int(), Error);
  EXPECT_THROW(Value::from_int(1).as_str(), Error);
  auto arr = std::make_shared<std::vector<double>>(2, 1.0);
  const Value v = Value::from_float_array(arr);
  EXPECT_TRUE(v.is_array());
  EXPECT_THROW(v.int_array(), Error);
}

TEST(ValueTest, Truthiness) {
  EXPECT_FALSE(Value::from_int(0).truthy());
  EXPECT_TRUE(Value::from_int(-1).truthy());
  EXPECT_FALSE(Value::from_float(0.0).truthy());
  EXPECT_TRUE(Value::from_str("").truthy());  // strings are always true
  auto arr = std::make_shared<std::vector<i64>>();
  EXPECT_TRUE(Value::from_int_array(arr).truthy());
}

TEST(ValueTest, ArraysShareBuffers) {
  auto buf = std::make_shared<std::vector<i64>>(std::vector<i64>{1, 2});
  const Value a = Value::from_int_array(buf);
  const Value b = a;  // copy shares the buffer
  b.int_array()[0] = 99;
  EXPECT_EQ(a.int_array()[0], 99);
  EXPECT_EQ((*buf)[0], 99);
}

// --------------------------------------------------------------------------
// Call hook (the dynamic-weaving entry point)
// --------------------------------------------------------------------------

TEST(CallHook, FiresForBytecodeCallsOnly) {
  auto m = cir::parse_module(
      "double inner(double x) { return sqrt(x); }"
      "double outer(double x) { return inner(x) + 1.0; }");
  Engine engine;
  engine.load_module(*m);
  std::vector<std::string> seen;
  engine.set_call_hook(
      [&](const std::string& name, const std::vector<Value>&) {
        seen.push_back(name);
      });
  engine.call("outer", {Value::from_float(4.0)});
  // outer + inner observed; sqrt is a host function, not hooked.
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "outer");
  EXPECT_EQ(seen[1], "inner");
}

TEST(CallHook, SeesRuntimeArgumentValues) {
  auto m = cir::parse_module("int f(int a, int b) { return a + b; }");
  Engine engine;
  engine.load_module(*m);
  i64 seen_a = 0, seen_b = 0;
  engine.set_call_hook([&](const std::string&, const std::vector<Value>& args) {
    seen_a = args[0].as_int();
    seen_b = args[1].as_int();
  });
  engine.call("f", {Value::from_int(7), Value::from_int(9)});
  EXPECT_EQ(seen_a, 7);
  EXPECT_EQ(seen_b, 9);
}

TEST(CallHook, ClearingDisablesIt) {
  auto m = cir::parse_module("int f() { return 1; }");
  Engine engine;
  engine.load_module(*m);
  int fired = 0;
  engine.set_call_hook(
      [&](const std::string&, const std::vector<Value>&) { ++fired; });
  engine.call("f", {});
  engine.set_call_hook(nullptr);
  engine.call("f", {});
  EXPECT_EQ(fired, 1);
}

TEST(CallHook, HookExceptionPropagatesAndEngineStaysUsable) {
  auto m = cir::parse_module("int f() { return 1; }");
  Engine engine;
  engine.load_module(*m);
  engine.set_call_hook([](const std::string&, const std::vector<Value>&) {
    throw Error("hook failure");
  });
  EXPECT_THROW(engine.call("f", {}), Error);
  engine.set_call_hook(nullptr);
  EXPECT_EQ(engine.call("f", {}).as_int(), 1);
}

TEST(CallHook, DefaultProbesAreNoOps) {
  // Woven code can run on a bare engine: the instrumentation probes default
  // to no-ops until a store overrides them.
  auto m = cir::parse_module(
      "int f() { profile_args(\"f\", \"here\", 1); monitor_begin(\"s\"); "
      "monitor_end(\"s\"); return 2; }");
  Engine engine;
  engine.load_module(*m);
  EXPECT_EQ(engine.call("f", {}).as_int(), 2);
}

// --------------------------------------------------------------------------
// Disassembly
// --------------------------------------------------------------------------

TEST(Vm, DisassemblyMentionsOpsAndCallees) {
  auto m = cir::parse_module("int f(int x) { return sqrt(x * 1.0) > 2.0; }");
  const CompiledFunction cf = compile_function(*m->find("f"));
  const std::string dis = cf.disassemble();
  EXPECT_NE(dis.find("call"), std::string::npos);
  EXPECT_NE(dis.find("sqrt"), std::string::npos);
  EXPECT_NE(dis.find("gt"), std::string::npos);
}

// --------------------------------------------------------------------------
// JIT manager: multiversioning (the paper's Figure 4 machinery)
// --------------------------------------------------------------------------

class JitManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    module_ = cir::parse_module(
        "int kernel(int size, int x) { int s = 0;"
        "  for (int i = 0; i < size; i++) s = s + x;"
        "  return s; }"
        // A hand-written "specialized" version for size == 4.
        "int kernel_s4(int x) { return x + x + x + x; }");
    engine_.load_module(*module_);
  }

  std::unique_ptr<cir::Module> module_;
  Engine engine_;
};

TEST_F(JitManagerTest, GenericDispatchByDefault) {
  EXPECT_EQ(engine_.call("kernel", {Value::from_int(4), Value::from_int(5)}).as_int(),
            20);
  EXPECT_EQ(engine_.dispatch_stats("kernel").specialized_hits, 0u);
}

TEST_F(JitManagerTest, SpecializedVariantServesGuardedCalls) {
  engine_.prepare_specialize("kernel", 0);
  engine_.add_version("kernel", 4, compile_function(*module_->find("kernel_s4")));

  // Guarded value -> specialized variant (1 fewer parameter).
  EXPECT_EQ(engine_.call("kernel", {Value::from_int(4), Value::from_int(5)}).as_int(),
            20);
  EXPECT_EQ(engine_.dispatch_stats("kernel").specialized_hits, 1u);

  // Unguarded value -> generic.
  EXPECT_EQ(engine_.call("kernel", {Value::from_int(3), Value::from_int(5)}).as_int(),
            15);
  EXPECT_EQ(engine_.dispatch_stats("kernel").specialized_hits, 1u);
  EXPECT_EQ(engine_.dispatch_stats("kernel").calls, 2u);
}

TEST_F(JitManagerTest, SpecializedVariantIsFaster) {
  engine_.prepare_specialize("kernel", 0);
  engine_.add_version("kernel", 4, compile_function(*module_->find("kernel_s4")));

  engine_.reset_instruction_count();
  engine_.call("kernel", {Value::from_int(4), Value::from_int(5)});
  const u64 specialized = engine_.executed_instructions();

  engine_.reset_instruction_count();
  engine_.call("kernel", {Value::from_int(5), Value::from_int(5)});
  const u64 generic = engine_.executed_instructions();

  EXPECT_LT(specialized, generic);
}

TEST_F(JitManagerTest, SpecializationWithCallHookStillErasesGuardedArgument) {
  engine_.prepare_specialize("kernel", 0);
  engine_.add_version("kernel", 4, compile_function(*module_->find("kernel_s4")));
  std::vector<std::size_t> seen_args;
  engine_.set_call_hook([&](const std::string&, const std::vector<Value>& args) {
    seen_args.push_back(args.size());
  });
  // kernel_s4 takes one parameter: without the erasure this is an arity error.
  EXPECT_EQ(engine_.call("kernel", {Value::from_int(4), Value::from_int(5)}).as_int(),
            20);
  EXPECT_EQ(engine_.dispatch_stats("kernel").specialized_hits, 1u);
  // The hook sees the call before the guarded argument is dropped.
  EXPECT_EQ(seen_args, std::vector<std::size_t>{2});
}

TEST_F(JitManagerTest, AddVersionReplacesSameGuard) {
  engine_.prepare_specialize("kernel", 0);
  engine_.add_version("kernel", 4, compile_function(*module_->find("kernel_s4")));
  engine_.add_version("kernel", 4, compile_function(*module_->find("kernel_s4")));
  EXPECT_EQ(engine_.version_count("kernel"), 1u);
}

TEST_F(JitManagerTest, PrepareSpecializeValidatesArguments) {
  EXPECT_THROW(engine_.prepare_specialize("nope", 0), Error);
  EXPECT_THROW(engine_.prepare_specialize("kernel", 7), Error);
  EXPECT_THROW(engine_.add_version("kernel_s4", 1,
                                   compile_function(*module_->find("kernel_s4"))),
               Error);
}

TEST_F(JitManagerTest, ReloadDropsSpecializations) {
  engine_.prepare_specialize("kernel", 0);
  engine_.add_version("kernel", 4, compile_function(*module_->find("kernel_s4")));
  engine_.load_module(*module_);
  EXPECT_EQ(engine_.version_count("kernel"), 0u);
  // Unprepared again: a new variant needs another prepare_specialize.
  EXPECT_THROW(engine_.add_version("kernel", 4,
                                   compile_function(*module_->find("kernel_s4"))),
               Error);
}

// --------------------------------------------------------------------------
// Golden fixture: return values, output arrays and instruction counts of
// generated programs, a toolflow-shaped app and a hooked specialized
// dispatch. The file was generated by the interpreter this fixture guards
// (regen with ANTAREX_UPDATE_GOLDEN=1).
// --------------------------------------------------------------------------

/// One fixture line: return value, output array, total instructions, and
/// the flat per-function counts of every function in the module, by name.
std::string golden_line(const std::string& label, const Engine& engine,
                        const cir::Module& m, const Value& ret,
                        const std::vector<i64>& out) {
  std::string line = label + " ret=" + ret.to_string() + " out=";
  for (std::size_t i = 0; i < out.size(); ++i)
    line += format(i == 0 ? "%lld" : ",%lld", static_cast<long long>(out[i]));
  line += format(" instr=%llu",
                 static_cast<unsigned long long>(engine.executed_instructions()));
  std::vector<std::string> names;
  for (const auto& f : m.functions) names.push_back(f->name);
  std::sort(names.begin(), names.end());
  for (const std::string& name : names)
    line += format(" %s=%llu", name.c_str(),
                   static_cast<unsigned long long>(engine.function_instructions(name)));
  return line + "\n";
}

/// The 48 fuzz-generator seeds, each run as generated and after the
/// longest pipeline test_fuzz checks.
std::string fuzz_golden() {
  std::string doc;
  for (u64 seed = 1000; seed < 1048; ++seed) {
    const std::string src = ProgramGen(seed).generate();
    for (const std::string pipeline : {"", "fold,dce,unroll:16,fold,dce,strength,inline"}) {
      auto m = cir::parse_module(src);
      if (!pipeline.empty()) {
        passes::PassManager pm(*m);
        pm.add_pipeline(pipeline);
        pm.run_to_fixpoint(*m->find("f"), 4);
      }
      Engine engine;
      engine.set_instruction_limit(20'000'000);
      engine.load_module(*m);
      auto out = std::make_shared<std::vector<i64>>(ProgramGen::kArr, 0);
      const Value ret =
          engine.call("f", {Value::from_int(3), Value::from_int_array(out)});
      doc += golden_line(format("fuzz %llu %s", static_cast<unsigned long long>(seed),
                                pipeline.empty() ? "plain" : "opt"),
                         engine, *m, ret, *out);
    }
  }
  return doc;
}

/// A toolflow-shaped app: six loop kernels with foldable constants, dead
/// stores, power-of-two multiplies and unrollable trip counts, a helper the
/// inliner can take, and an entry calling every kernel `reps` times. Calls
/// to one kernel get a woven profile_args probe.
std::string app_golden() {
  constexpr i64 kArray = 16;
  const char* const pipelines[] = {
      "",         "fold",          "dce",
      "fold,dce", "strength,fold", "unroll:16,fold,dce",
      "inline,fold,dce", "fold,dce,unroll:16,fold,dce,strength,inline"};
  const char* const aspect = R"(
    aspectdef ProfileArguments
      input funcName end
      select fCall end
      apply
        insert before %{profile_args('[[funcName]]', '[[$fCall.location]]', [[$fCall.argList]]);}%;
      end
      condition $fCall.name == funcName end
    end
  )";
  std::string doc;
  for (const u64 seed : {u64{1}, u64{7}}) {
    Rng rng(seed);
    std::string src;
    for (int k = 0; k < 6; ++k) {
      const i64 init = rng.uniform_int(1, 9);
      const i64 trip = rng.uniform_int(8, 16);
      const i64 offset = rng.uniform_int(0, kArray - 1);
      const i64 mul = i64{1} << rng.uniform_int(1, 3);
      const i64 c1 = rng.uniform_int(1, 9);
      const i64 c2 = rng.uniform_int(1, 9);
      const i64 mod = rng.uniform_int(1000, 9999);
      src += format(
          "int k%d(int* a, int n) {\n  int acc = %lld;\n"
          "  for (int i = 0; i < %lld; i++) {\n"
          "    int t = a[(i + %lld) %% n] * %lld + (%lld * %lld);\n"
          "    int unused = t * 3;\n    acc = (acc + t) %% %lld;\n  }\n"
          "  return acc;\n}\n",
          k, static_cast<long long>(init), static_cast<long long>(trip),
          static_cast<long long>(offset), static_cast<long long>(mul),
          static_cast<long long>(c1), static_cast<long long>(c2),
          static_cast<long long>(mod));
    }
    src += "int mix(int x, int y) { return (x * 31 + y) % 1000003; }\n";
    src += "int app(int* a, int n, int reps) {\n  int s = 0;\n"
           "  for (int r = 0; r < reps; r++) {\n";
    for (int k = 0; k < 6; ++k) src += format("    s = mix(s, k%d(a, n));\n", k);
    src += "    a[r % n] = s % 97;\n  }\n  return s;\n}\n";
    const std::string probed = format("k%d", static_cast<int>(rng.uniform_int(0, 5)));
    std::vector<i64> input;
    for (i64 i = 0; i < kArray; ++i) input.push_back(rng.uniform_int(0, 96));

    for (const char* pipeline : pipelines) {
      auto m = cir::parse_module(src);
      dsl::Weaver weaver(*m);
      weaver.load_source(aspect);
      weaver.run("ProfileArguments", {dsl::Val::str(probed)});
      passes::PassManager pm(*m);
      pm.add_pipeline(pipeline);
      pm.run_all();
      Engine engine;
      dsl::ProfileStore store;
      store.install(engine);
      engine.load_module(*m);
      auto a = std::make_shared<std::vector<i64>>(input);
      const Value ret = engine.call(
          "app", {Value::from_int_array(a), Value::from_int(kArray), Value::from_int(6)});
      doc += golden_line(format("app %llu '%s' probes=%llu",
                                static_cast<unsigned long long>(seed), pipeline,
                                static_cast<unsigned long long>(store.total_calls())),
                         engine, *m, ret, *a);
    }
  }
  return doc;
}

/// Bytecode calls through a call hook into a function with a specialized
/// version: the hook log records call order and the arguments it saw.
std::string dispatch_golden() {
  auto m = cir::parse_module(
      "int kernel(int size, int x) { int s = 0;"
      "  for (int i = 0; i < size; i++) s = s + x; return s; }"
      "int drive(int n) { int t = 0;"
      "  for (int j = 0; j < n; j++) t = t + kernel(j % 3 + 3, j); return t; }");
  cir::Function* v4 = passes::specialize_function(*m, "kernel", "size", 4);
  passes::ConstantFoldPass fold;
  passes::FullUnrollPass unroll(16);
  passes::DeadCodeEliminationPass dce;
  fold.run(*v4);
  unroll.run(*v4);
  fold.run(*v4);
  dce.run(*v4);
  Engine engine;
  engine.load_module(*m);
  engine.prepare_specialize("kernel", 0);
  engine.add_version("kernel", 4, compile_function(*v4));
  std::string hooked;
  engine.set_call_hook([&](const std::string& name, const std::vector<Value>& args) {
    hooked += " " + name + "(";
    for (std::size_t i = 0; i < args.size(); ++i)
      hooked += (i == 0 ? "" : ",") + args[i].to_string();
    hooked += ")";
  });
  const Value ret = engine.call("drive", {Value::from_int(7)});
  std::string line = golden_line(
      format("dispatch hits=%llu calls=%llu",
             static_cast<unsigned long long>(engine.dispatch_stats("kernel").specialized_hits),
             static_cast<unsigned long long>(engine.dispatch_stats("kernel").calls)),
      engine, *m, ret, {});
  line.pop_back();
  return line + " hook=" + hooked + "\n";
}

TEST(VmGolden, ResultsAndCountsMatchFixture) {
  const std::string doc = fuzz_golden() + app_golden() + dispatch_golden();
  const std::string path = std::string(ANTAREX_GOLDEN_DIR) + "/vm_counts.txt";
  if (const char* update = std::getenv("ANTAREX_UPDATE_GOLDEN");
      update && update[0] == '1') {
    std::ofstream out(path, std::ios::binary);
    out << doc;
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream fixture;
  fixture << in.rdbuf();
  ASSERT_FALSE(fixture.str().empty())
      << "missing fixture " << path << " (run with ANTAREX_UPDATE_GOLDEN=1)";
  EXPECT_EQ(doc, fixture.str());
}

}  // namespace
}  // namespace antarex::vm
