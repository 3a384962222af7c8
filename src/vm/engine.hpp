// Execution engine + JIT manager for the ANTAREX VM.
//
// The engine owns, per function name, a *versioned* entry: the generic
// bytecode plus any number of runtime-specialized variants guarded by the
// value of one argument. This is the mechanism behind the paper's Figure 4
// (`PrepareSpecialize` / `Specialize` / `AddVersion`): the DSL engine calls
// into this API when weaving dynamic aspects.
#pragma once

#include <functional>
#include <list>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cir/ast.hpp"
#include "vm/bytecode.hpp"
#include "vm/value.hpp"

namespace antarex::vm {

using HostFunction = std::function<Value(std::span<const Value>)>;

/// Observer invoked at dispatch time for every call to a *bytecode* function,
/// before version selection. Dynamic aspects (paper Figure 4) hang off this:
/// the DSL runtime inspects the runtime argument values and may install new
/// specialized versions before the call proceeds.
using CallHook = std::function<void(const std::string& name,
                                    const std::vector<Value>& args)>;

/// Dispatch statistics per function (exposed to monitors and benches).
struct DispatchStats {
  u64 calls = 0;            ///< total calls through this entry
  u64 specialized_hits = 0; ///< calls served by a specialized variant
};

/// Execution model: every frame lives in one engine-owned value stack,
/// addressed by base index — the frame's slots (arguments first, left in
/// place by the caller) and then its operand cells, sized at load time from
/// the deepest operand stack the bytecode can reach. Each original bytecode
/// op counts as one instruction.
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;  // versions point into per_function_
  Engine& operator=(const Engine&) = delete;

  // --- program loading ------------------------------------------------------

  /// Compile and register every function of a module (replaces same-named
  /// entries, dropping their specializations).
  void load_module(const cir::Module& m);

  /// Register a single compiled function (generic version). Throws if the
  /// bytecode could underflow its operand stack, reaches one instruction at
  /// two stack depths, or names a slot or pool entry that does not exist.
  void load_function(CompiledFunction f);

  /// Register a native host function. Math builtins and no-op
  /// instrumentation probes are always available; a registered function of
  /// the same name overrides them (the DSL runtime installs real
  /// `profile_args` collectors this way).
  void register_host(const std::string& name, HostFunction fn);

  // --- JIT manager: function multiversioning --------------------------------

  /// Declare that `func` may be specialized on parameter `param_index`.
  /// Subsequent calls consult the variant table before the generic version.
  void prepare_specialize(const std::string& func, int param_index);

  /// Register a specialized variant valid when argument `prepare_specialize`d
  /// parameter equals `guard_value`.
  void add_version(const std::string& func, i64 guard_value, CompiledFunction variant);

  /// Number of installed variants for a function (0 if none / unknown).
  std::size_t version_count(const std::string& func) const;
  DispatchStats dispatch_stats(const std::string& func) const;

  // --- execution ------------------------------------------------------------

  /// Call a function (bytecode or host) by name.
  Value call(const std::string& func, std::vector<Value> args);

  /// Instructions executed since construction / last reset. This is the
  /// engine's deterministic "cycle" counter: the performance metric used by
  /// iterative compilation and the autotuner when wall time would be noisy.
  u64 executed_instructions() const { return executed_; }
  void reset_instruction_count();

  /// Guard against runaway programs (default: 2^40 instructions).
  void set_instruction_limit(u64 limit) { instruction_limit_ = limit; }

  /// Instructions attributed to one function's own body (callees excluded —
  /// a flat, not cumulative, profile). The monitoring layer uses this for
  /// hot-function detection without source instrumentation.
  u64 function_instructions(const std::string& name) const;

  /// Install (or clear, with nullptr) the dynamic-weaving call hook.
  void set_call_hook(CallHook hook) { call_hook_ = std::move(hook); }

 private:
  /// One loaded body: the bytecode plus what the interpreter derives from
  /// it once, at load time.
  struct Version {
    CompiledFunction fn;
    std::vector<Value> strings;   ///< the string pool as ready-made values
    u32 frame_size = 0;           ///< slots + deepest operand stack
    u64* instructions = nullptr;  ///< this name's flat count in per_function_
  };
  struct Entry {
    Version generic;
    int specialize_param = -1;
    /// A list, so installing a variant from a call hook never moves one
    /// that is running further up the stack.
    std::list<std::pair<i64, Version>> variants;
    DispatchStats stats;
  };

  Version prepare(CompiledFunction f);
  const HostFunction* find_host(const std::string& name) const;
  Value invoke(const std::string& name, std::size_t base, std::size_t argc);
  Value dispatch(const std::string& name, std::vector<Value>& args);
  Value execute(const Version& v, std::size_t base, std::size_t argc);

  std::unordered_map<std::string, Entry> functions_;
  std::unordered_map<std::string, HostFunction> host_;  ///< overrides builtins
  std::unordered_map<std::string, u64> per_function_;   ///< node-stable
  std::vector<Value> stack_;  ///< every live frame, slots then operands
  CallHook call_hook_;
  bool in_hook_ = false;
  u64 executed_ = 0;
  u64 instruction_limit_ = u64{1} << 40;
  int call_depth_ = 0;
  static constexpr int kMaxCallDepth = 256;
};

}  // namespace antarex::vm
