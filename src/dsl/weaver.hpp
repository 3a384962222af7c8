// The ANTAREX DSL weaver.
//
// Executes aspect definitions over a mini-C module: resolves select chains to
// join points, evaluates conditions, and performs actions — code insertion
// (Fig. 2), loop transformations (Fig. 3), and runtime specialization via
// dynamic weaving against the VM's JIT manager (Fig. 4).
//
// Builtin actions available to aspects:
//   insert before/after %{...}%   - splice mini-C statements around the
//                                   *statement containing* the selected call.
//                                   Caveat: `insert after` a call that sits
//                                   inside a `return` lands after the return
//                                   and never executes — hoist the call into
//                                   its own statement when pairing
//                                   begin/end probes.
//   do LoopUnroll('full')          - fully unroll the selected $loop
//   do LoopUnroll(N)               - partially unroll by factor N
//   call PrepareSpecialize(f, p)   - arm multiversion dispatch on f's param p
//   call Specialize(fc, p, v)      - clone+bind+optimize, returns {$func,name}
//   call AddVersion(sp, $func, v)  - compile & install variant in the VM
//   call <UserAspect>(args...)     - invoke another aspectdef; returns its
//                                    outputs as a record
#pragma once

#include <string>
#include <vector>

#include "cir/ast.hpp"
#include "dsl/ast.hpp"
#include "dsl/joinpoint.hpp"
#include "vm/engine.hpp"

namespace antarex::dsl {

/// Counters describing what a weaving session did (reported by benches and
/// asserted by tests).
struct WeaveStats {
  std::size_t selections = 0;        ///< join points matched by selects
  std::size_t condition_rejects = 0; ///< matches filtered out by conditions
  std::size_t inserts = 0;
  std::size_t unrolls = 0;
  std::size_t specializations = 0;
  std::size_t versions_added = 0;
  std::size_t dynamic_registrations = 0;
  std::size_t dynamic_triggers = 0;  ///< dynamic apply bodies executed
};

class Weaver {
 public:
  /// `engine` may be null for purely static weaving; dynamic aspects and the
  /// specialization builtins that install code versions require it.
  Weaver(cir::Module& module, vm::Engine* engine = nullptr);

  /// Load (move in) a parsed aspect library.
  void load(AspectLibrary lib);
  /// Convenience: parse and load DSL source.
  void load_source(std::string_view dsl_source);

  /// Run an aspect with positional input values. Returns the aspect's outputs
  /// (declared via `output`) as a record.
  Record run(const std::string& aspect_name, std::vector<Val> inputs = {});

  const WeaveStats& stats() const { return stats_; }
  cir::Module& module() { return module_; }

 private:
  struct DynamicRegistration {
    std::string callee;                 ///< watched function name
    int arg_index = -1;                 ///< argument bound to $arg
    const ApplyStmt* apply = nullptr;   ///< actions to run on trigger
    const DExpr* condition = nullptr;   ///< may be null
    std::shared_ptr<Env> closure;       ///< captured aspect inputs
    std::vector<i64> handled_values;    ///< memoized guard values
    /// The synthesized $fCall of each triggered call, kept for the join
    /// points its actions may hold.
    std::vector<std::unique_ptr<cir::CallExpr>> calls;
  };

  void exec_aspect(const AspectDef& def, Env& env);
  void exec_apply(const ApplyStmt& apply, const SelectStmt& sel,
                  const DExpr* condition, Env& env);
  void exec_action(const Action& a, Env& env);
  Val exec_call(const CallStmt& call, Env& env);
  void do_insert(const InsertAction& ins, Env& env);
  void do_loop_unroll(const DoAction& act, Env& env);
  void register_dynamic(const ApplyStmt& apply, const SelectStmt& sel,
                        const DExpr* condition, const Env& env);
  void on_vm_call(const std::string& name, const std::vector<vm::Value>& args);

  /// Expand a %{...}% template: resolves [[expr]] splices against env.
  std::string splice_template(const std::string& tmpl, Env& env) const;

  // Builtin actions.
  Val builtin_prepare_specialize(const std::vector<Val>& args);
  Val builtin_specialize(const std::vector<Val>& args);
  Val builtin_add_version(const std::vector<Val>& args);

  cir::Module& module_;
  vm::Engine* engine_;
  AspectLibrary library_;
  WeaveStats stats_;
  std::vector<DynamicRegistration> dynamic_;
  bool hook_installed_ = false;
  int call_depth_ = 0;
};

}  // namespace antarex::dsl
