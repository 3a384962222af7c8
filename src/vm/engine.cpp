#include "vm/engine.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "cir/analysis.hpp"
#include "support/strings.hpp"
#include "telemetry/telemetry.hpp"
#include "vm/compiler.hpp"

namespace antarex::vm {

namespace {

/// A binary op with at least one float operand: it promotes (C semantics).
/// Int op Int never gets here; the interpreter does it in place.
Value numeric_binop(Op op, const Value& a, const Value& b) {
  const double x = a.as_float();
  const double y = b.as_float();
  switch (op) {
    case Op::Add: return Value::from_float(x + y);
    case Op::Sub: return Value::from_float(x - y);
    case Op::Mul: return Value::from_float(x * y);
    case Op::Div: return Value::from_float(x / y);
    case Op::Mod: return Value::from_float(std::fmod(x, y));
    case Op::Lt: return Value::from_int(x < y);
    case Op::Le: return Value::from_int(x <= y);
    case Op::Gt: return Value::from_int(x > y);
    case Op::Ge: return Value::from_int(x >= y);
    case Op::Eq: return Value::from_int(x == y);
    case Op::Ne: return Value::from_int(x != y);
    default: break;
  }
  ANTAREX_CHECK(false, "numeric_binop: unreachable op");
  return {};
}

/// Host functions every engine has, exactly cir::kBuiltinCallees: math
/// builtins, print helpers, and instrumentation probes that default to no-ops
/// so woven code runs on any engine (dsl::ProfileStore::install and friends
/// override them with real collectors through Engine::register_host).
const std::unordered_map<std::string, HostFunction>& builtins() {
  static const std::unordered_map<std::string, HostFunction> table = [] {
    std::unordered_map<std::string, HostFunction> t;
    const auto unary_math = [&t](const std::string& name, double (*fn)(double)) {
      t[name] = [fn, name](std::span<const Value> args) {
        ANTAREX_REQUIRE(args.size() == 1, "host " + name + ": expected 1 argument");
        return Value::from_float(fn(args[0].as_float()));
      };
    };
    unary_math("sqrt", std::sqrt);
    unary_math("fabs", std::fabs);
    unary_math("exp", std::exp);
    unary_math("log", std::log);
    unary_math("sin", std::sin);
    unary_math("cos", std::cos);
    unary_math("floor", std::floor);
    t["pow"] = [](std::span<const Value> args) {
      ANTAREX_REQUIRE(args.size() == 2, "host pow: expected 2 arguments");
      return Value::from_float(std::pow(args[0].as_float(), args[1].as_float()));
    };
    t["min"] = [](std::span<const Value> args) {
      ANTAREX_REQUIRE(args.size() == 2, "host min: expected 2 arguments");
      if (args[0].is_int() && args[1].is_int())
        return Value::from_int(std::min(args[0].as_int(), args[1].as_int()));
      return Value::from_float(std::min(args[0].as_float(), args[1].as_float()));
    };
    t["max"] = [](std::span<const Value> args) {
      ANTAREX_REQUIRE(args.size() == 2, "host max: expected 2 arguments");
      if (args[0].is_int() && args[1].is_int())
        return Value::from_int(std::max(args[0].as_int(), args[1].as_int()));
      return Value::from_float(std::max(args[0].as_float(), args[1].as_float()));
    };
    t["print_int"] = [](std::span<const Value> args) {
      ANTAREX_REQUIRE(args.size() == 1, "host print_int: expected 1 argument");
      std::printf("%lld\n", static_cast<long long>(args[0].as_int()));
      return Value::from_int(0);
    };
    t["print_float"] = [](std::span<const Value> args) {
      ANTAREX_REQUIRE(args.size() == 1, "host print_float: expected 1 argument");
      std::printf("%g\n", args[0].as_float());
      return Value::from_int(0);
    };
    for (const char* probe :
         {"profile_args", "monitor_begin", "monitor_end", "antarex_probe"})
      t[probe] = [](std::span<const Value>) { return Value::from_int(0); };
    ANTAREX_CHECK(t.size() == std::size(cir::kBuiltinCallees) &&
                      std::ranges::all_of(cir::kBuiltinCallees,
                                          [&t](const cir::BuiltinCallee& b) {
                                            return t.contains(std::string(b.name));
                                          }),
                  "vm: host builtins differ from cir::kBuiltinCallees");
    return t;
  }();
  return table;
}

/// The deepest the operand stack of `f` gets on any path. It also rejects
/// bytecode the interpreter could not run unchecked: an operand stack
/// underflow, an instruction reached at two different depths, or a slot or
/// pool index that does not exist.
u32 max_operand_depth(const CompiledFunction& f) {
  const std::size_t n = f.code.size();
  std::vector<i64> depth_at(n, -1);
  std::vector<std::size_t> work;
  const auto reach = [&](std::size_t pc, i64 depth) {
    if (pc >= n) return;  // leaving the code returns int 0, like RetVoid
    if (depth_at[pc] < 0) {
      depth_at[pc] = depth;
      work.push_back(pc);
      return;
    }
    ANTAREX_REQUIRE(depth_at[pc] == depth,
                    format("vm: '%s': operand stack depth differs at %zu",
                           f.name.c_str(), pc));
  };
  const auto require_index = [&](i32 index, std::size_t size, const char* what) {
    ANTAREX_REQUIRE(index >= 0 && static_cast<std::size_t>(index) < size,
                    format("vm: '%s': %s index %d out of range", f.name.c_str(), what,
                           index));
  };

  i64 deepest = 0;
  reach(0, 0);
  while (!work.empty()) {
    const std::size_t pc = work.back();
    work.pop_back();
    const Instr& in = f.code[pc];
    i64 pops = 0, pushes = 0;
    bool jumps = false, falls_through = true;
    switch (in.op) {
      case Op::PushInt:
      case Op::PushFloat: pushes = 1; break;
      case Op::PushStr:
        require_index(in.a, f.strings.size(), "string");
        pushes = 1;
        break;
      case Op::Load:
        require_index(in.a, f.num_slots, "slot");
        pushes = 1;
        break;
      case Op::Store:
        require_index(in.a, f.num_slots, "slot");
        pops = 1;
        break;
      case Op::LoadIndex: pops = 2; pushes = 1; break;
      case Op::StoreIndex: pops = 3; break;
      case Op::Add:
      case Op::Sub:
      case Op::Mul:
      case Op::Div:
      case Op::Mod:
      case Op::Lt:
      case Op::Le:
      case Op::Gt:
      case Op::Ge:
      case Op::Eq:
      case Op::Ne: pops = 2; pushes = 1; break;
      case Op::Neg:
      case Op::Not: pops = 1; pushes = 1; break;
      case Op::Jump: jumps = true; falls_through = false; break;
      case Op::JumpIfFalse:
      case Op::JumpIfTrue: pops = 1; jumps = true; break;
      case Op::Dup: pops = 1; pushes = 2; break;
      case Op::Pop: pops = 1; break;
      case Op::Call:
        require_index(in.a, f.names.size(), "callee");
        ANTAREX_REQUIRE(in.b >= 0, "vm: '" + f.name + "': negative argument count");
        pops = in.b;
        pushes = 1;
        break;
      case Op::Ret: pops = 1; falls_through = false; break;
      case Op::RetVoid: falls_through = false; break;
    }
    ANTAREX_REQUIRE(depth_at[pc] >= pops,
                    "vm: operand stack underflow in '" + f.name + "'");
    const i64 after = depth_at[pc] - pops + pushes;
    deepest = std::max(deepest, after);
    if (jumps) reach(static_cast<std::size_t>(in.a), after);
    if (falls_through) reach(pc + 1, after);
  }
  return static_cast<u32>(deepest);
}

}  // namespace

Engine::Version Engine::prepare(CompiledFunction f) {
  ANTAREX_REQUIRE(f.num_params <= f.num_slots,
                  "vm: '" + f.name + "' has fewer slots than parameters");
  Version v;
  v.frame_size = f.num_slots + max_operand_depth(f);
  for (const std::string& s : f.strings) v.strings.push_back(Value::from_str(s));
  v.instructions = &per_function_[f.name];
  v.fn = std::move(f);
  return v;
}

void Engine::load_module(const cir::Module& m) {
  for (const auto& f : m.functions) load_function(compile_function(*f));
}

void Engine::load_function(CompiledFunction f) {
  Entry e;
  e.generic = prepare(std::move(f));
  functions_[e.generic.fn.name] = std::move(e);
}

void Engine::register_host(const std::string& name, HostFunction fn) {
  host_[name] = std::move(fn);
}

const HostFunction* Engine::find_host(const std::string& name) const {
  if (auto it = host_.find(name); it != host_.end()) return &it->second;
  const auto& table = builtins();
  auto it = table.find(name);
  return it == table.end() ? nullptr : &it->second;
}

void Engine::prepare_specialize(const std::string& func, int param_index) {
  auto it = functions_.find(func);
  ANTAREX_REQUIRE(it != functions_.end(),
                  "prepare_specialize: unknown function '" + func + "'");
  ANTAREX_REQUIRE(param_index >= 0 &&
                      param_index < static_cast<int>(it->second.generic.fn.num_params),
                  "prepare_specialize: parameter index out of range");
  it->second.specialize_param = param_index;
  it->second.variants.clear();
}

void Engine::add_version(const std::string& func, i64 guard_value,
                         CompiledFunction variant) {
  auto it = functions_.find(func);
  ANTAREX_REQUIRE(it != functions_.end(), "add_version: unknown function '" + func + "'");
  ANTAREX_REQUIRE(it->second.specialize_param >= 0,
                  "add_version: call prepare_specialize first for '" + func + "'");
  // Replace an existing variant with the same guard.
  for (auto& [guard, version] : it->second.variants) {
    if (guard == guard_value) {
      version = prepare(std::move(variant));
      return;
    }
  }
  it->second.variants.emplace_back(guard_value, prepare(std::move(variant)));
}

std::size_t Engine::version_count(const std::string& func) const {
  auto it = functions_.find(func);
  return it == functions_.end() ? 0 : it->second.variants.size();
}

DispatchStats Engine::dispatch_stats(const std::string& func) const {
  auto it = functions_.find(func);
  return it == functions_.end() ? DispatchStats{} : it->second.stats;
}

void Engine::reset_instruction_count() {
  executed_ = 0;
  for (auto& [name, count] : per_function_) count = 0;
}

Value Engine::call(const std::string& func, std::vector<Value> args) {
  // One span per external entry; internal recursion stays span-free so hot
  // bytecode loops do not flood the trace buffer.
  TELEMETRY_SPAN("vm.call");
  // A host function or call hook that calls back in runs while the caller's
  // frames are live, and a host function holds a span over them: the nested
  // call gets a stack of its own, so those frames never move.
  std::vector<Value> caller_frames;
  if (!stack_.empty()) caller_frames.swap(stack_);
  try {
    stack_.assign(std::make_move_iterator(args.begin()),
                  std::make_move_iterator(args.end()));
    Value result = invoke(func, 0, args.size());
    if (!caller_frames.empty()) caller_frames.swap(stack_);
    return result;
  } catch (...) {
    stack_.clear();
    if (!caller_frames.empty()) caller_frames.swap(stack_);
    throw;
  }
}

/// Calls `name` on the `argc` values at stack_[base..] and returns with the
/// stack truncated to `base` (on an error, the calling frame truncates).
Value Engine::invoke(const std::string& name, std::size_t base, std::size_t argc) {
  auto it = functions_.find(name);
  if (it == functions_.end()) {
    const HostFunction* host = find_host(name);
    if (host == nullptr) throw Error("vm: call to unknown function '" + name + "'");
    TELEMETRY_COUNT("vm.host_calls", 1);
    Value result = (*host)(std::span<const Value>(stack_.data() + base, argc));
    stack_.resize(base);
    return result;
  }
  TELEMETRY_COUNT("vm.calls", 1);
  Entry& e = it->second;
  if ((call_hook_ && !in_hook_) || e.specialize_param >= 0) {
    const auto first = stack_.begin() + static_cast<std::ptrdiff_t>(base);
    std::vector<Value> args(std::make_move_iterator(first),
                            std::make_move_iterator(first + static_cast<std::ptrdiff_t>(argc)));
    stack_.resize(base);
    return dispatch(name, args);
  }
  ++e.stats.calls;
  return execute(e.generic, base, argc);
}

/// The bytecode call path that needs the arguments as a vector: the call
/// hook observes them, and a specialized version may drop the guarded one.
Value Engine::dispatch(const std::string& name, std::vector<Value>& args) {
  if (call_hook_ && !in_hook_) {
    // Guard against re-entrancy: actions triggered by the hook (e.g. probe
    // evaluation) must not re-trigger dynamic weaving.
    in_hook_ = true;
    try {
      call_hook_(name, args);
    } catch (...) {
      in_hook_ = false;
      throw;
    }
    in_hook_ = false;
  }
  // The hook may have replaced the entry table (e.g. installed versions);
  // find the entry only now.
  auto it = functions_.find(name);
  ANTAREX_CHECK(it != functions_.end(), "vm: function vanished during call hook");
  Entry& e = it->second;
  ++e.stats.calls;
  const Version* target = &e.generic;
  if (e.specialize_param >= 0 &&
      static_cast<std::size_t>(e.specialize_param) < args.size() &&
      args[static_cast<std::size_t>(e.specialize_param)].is_int()) {
    const i64 v = args[static_cast<std::size_t>(e.specialize_param)].as_int();
    for (const auto& [guard, variant] : e.variants) {
      if (guard == v) {
        target = &variant;
        ++e.stats.specialized_hits;
        TELEMETRY_COUNT("vm.specialized_hits", 1);
        // Specialized variants produced by passes::specialize_function have
        // the guarded parameter bound and removed from the signature.
        if (variant.fn.num_params + 1 == args.size())
          args.erase(args.begin() + e.specialize_param);
        break;
      }
    }
  }
  const std::size_t base = stack_.size();
  stack_.insert(stack_.end(), std::make_move_iterator(args.begin()),
                std::make_move_iterator(args.end()));
  return execute(*target, base, args.size());
}

/// Runs `v` on the frame at stack_[base..], whose first `argc` values are
/// the arguments, and truncates the stack to `base` on every exit.
Value Engine::execute(const Version& v, std::size_t base, std::size_t argc) {
  const CompiledFunction& f = v.fn;
  if (argc != f.num_params || call_depth_ >= kMaxCallDepth) {
    stack_.resize(base);
    ANTAREX_REQUIRE(argc == f.num_params,
                    format("vm: '%s' called with %zu args, expected %u",
                           f.name.c_str(), argc, f.num_params));
    throw Error("vm: call depth limit exceeded (possible infinite recursion)");
  }
  ++call_depth_;

  // The other slots and every operand cell start as int 0. Cells above the
  // operand top are dead: they may hold a stale value until overwritten or
  // the frame exits.
  stack_.resize(base + argc);
  stack_.resize(base + v.frame_size);
  Value* slots = stack_.data() + base;
  Value* sp = slots + f.num_slots;  // next free operand cell
  const Instr* const code = f.code.data();
  const std::size_t n = f.code.size();
  std::size_t pc = 0;
  Value result;  // int 0 unless the function returns a value
  u64 own = 0;   // flat count, attributed on exit
  // The global count and the limit stay in locals between calls; they are
  // written back before a callee or host function can observe them.
  u64 executed = executed_;
  u64 limit = instruction_limit_;
  bool in_call = false;

  // Int op Int stays integral (C semantics) and runs in place.
  const auto binop = [&sp](Op op, auto int_op) {
    Value& a = sp[-2];
    const Value& b = sp[-1];
    if (a.kind_ == Value::Kind::Int && b.kind_ == Value::Kind::Int)
      a.i_ = int_op(a.i_, b.i_);
    else
      a = numeric_binop(op, a, b);
    --sp;
  };
  try {
    while (pc < n) {
      ++own;
      if (++executed > limit) {
        executed_ = executed;
        throw Error("vm: instruction limit exceeded in '" + f.name + "'");
      }
      const Instr& in = code[pc];
      ++pc;
      switch (in.op) {
        case Op::PushInt: *sp++ = Value::from_int(in.imm_i); break;
        case Op::PushFloat: *sp++ = Value::from_float(in.imm_f); break;
        case Op::PushStr: *sp++ = v.strings[static_cast<std::size_t>(in.a)]; break;
        case Op::Load: *sp++ = slots[in.a]; break;
        case Op::Store: slots[in.a] = std::move(*--sp); break;
        case Op::LoadIndex: {
          Value& arr = sp[-2];
          const i64 i = sp[-1].as_int();
          if (arr.kind() == Value::Kind::IntArr) {
            const auto& vec = arr.int_array();
            ANTAREX_REQUIRE(i >= 0 && static_cast<std::size_t>(i) < vec.size(),
                            "vm: int array index out of bounds");
            arr = Value::from_int(vec[static_cast<std::size_t>(i)]);
          } else if (arr.kind() == Value::Kind::FloatArr) {
            const auto& vec = arr.float_array();
            ANTAREX_REQUIRE(i >= 0 && static_cast<std::size_t>(i) < vec.size(),
                            "vm: float array index out of bounds");
            arr = Value::from_float(vec[static_cast<std::size_t>(i)]);
          } else {
            throw Error("vm: subscript applied to non-array value");
          }
          --sp;
          break;
        }
        case Op::StoreIndex: {
          const Value& val = sp[-1];
          const i64 i = sp[-2].as_int();
          const Value& arr = sp[-3];
          if (arr.kind() == Value::Kind::IntArr) {
            auto& vec = arr.int_array();
            ANTAREX_REQUIRE(i >= 0 && static_cast<std::size_t>(i) < vec.size(),
                            "vm: int array index out of bounds");
            vec[static_cast<std::size_t>(i)] = val.as_int();
          } else if (arr.kind() == Value::Kind::FloatArr) {
            auto& vec = arr.float_array();
            ANTAREX_REQUIRE(i >= 0 && static_cast<std::size_t>(i) < vec.size(),
                            "vm: float array index out of bounds");
            vec[static_cast<std::size_t>(i)] = val.as_float();
          } else {
            throw Error("vm: subscript applied to non-array value");
          }
          sp -= 3;
          break;
        }
        case Op::Add: binop(in.op, [](i64 x, i64 y) { return x + y; }); break;
        case Op::Sub: binop(in.op, [](i64 x, i64 y) { return x - y; }); break;
        case Op::Mul: binop(in.op, [](i64 x, i64 y) { return x * y; }); break;
        case Op::Div:
          binop(in.op, [](i64 x, i64 y) {
            if (y == 0) throw Error("vm: integer division by zero");
            return x / y;
          });
          break;
        case Op::Mod:
          binop(in.op, [](i64 x, i64 y) {
            if (y == 0) throw Error("vm: integer modulo by zero");
            return x % y;
          });
          break;
        case Op::Lt: binop(in.op, [](i64 x, i64 y) -> i64 { return x < y; }); break;
        case Op::Le: binop(in.op, [](i64 x, i64 y) -> i64 { return x <= y; }); break;
        case Op::Gt: binop(in.op, [](i64 x, i64 y) -> i64 { return x > y; }); break;
        case Op::Ge: binop(in.op, [](i64 x, i64 y) -> i64 { return x >= y; }); break;
        case Op::Eq: binop(in.op, [](i64 x, i64 y) -> i64 { return x == y; }); break;
        case Op::Ne: binop(in.op, [](i64 x, i64 y) -> i64 { return x != y; }); break;
        case Op::Neg: {
          Value& a = sp[-1];
          if (a.kind_ == Value::Kind::Int)
            a.i_ = -a.i_;
          else
            a = Value::from_float(-a.as_float());
          break;
        }
        case Op::Not: sp[-1] = Value::from_int(sp[-1].truthy() ? 0 : 1); break;
        case Op::Jump: pc = static_cast<std::size_t>(in.a); break;
        case Op::JumpIfFalse:
          if (!(--sp)->truthy()) pc = static_cast<std::size_t>(in.a);
          break;
        case Op::JumpIfTrue:
          if ((--sp)->truthy()) pc = static_cast<std::size_t>(in.a);
          break;
        case Op::Dup:
          *sp = sp[-1];
          ++sp;
          break;
        case Op::Pop: --sp; break;
        case Op::Call: {
          // The arguments stay where they are: they become the callee's
          // first slots, or the host function's span.
          const auto call_argc = static_cast<std::size_t>(in.b);
          const std::size_t callee_base =
              static_cast<std::size_t>(sp - stack_.data()) - call_argc;
          executed_ = executed;
          in_call = true;
          Value r = invoke(f.names[static_cast<std::size_t>(in.a)], callee_base,
                           call_argc);
          in_call = false;
          executed = executed_;
          limit = instruction_limit_;
          // The callee may have grown (and moved) the stack, and truncated
          // it to its base.
          stack_.resize(base + v.frame_size);
          slots = stack_.data() + base;
          sp = stack_.data() + callee_base;
          *sp++ = std::move(r);
          break;
        }
        case Op::Ret:
          result = std::move(sp[-1]);
          pc = n;
          break;
        case Op::RetVoid: pc = n; break;
      }
    }
  } catch (...) {
    // A callee's error has already written its count back.
    if (!in_call) executed_ = executed;
    *v.instructions += own;
    --call_depth_;
    stack_.resize(base);
    throw;
  }
  executed_ = executed;
  *v.instructions += own;
  --call_depth_;
  stack_.resize(base);
  TELEMETRY_COUNT("vm.instructions", own);
  return result;
}

u64 Engine::function_instructions(const std::string& name) const {
  auto it = per_function_.find(name);
  return it == per_function_.end() ? 0 : it->second;
}

}  // namespace antarex::vm
