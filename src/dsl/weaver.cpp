#include "dsl/weaver.hpp"

#include <algorithm>

#include "cir/analysis.hpp"
#include "cir/parser.hpp"
#include "cir/printer.hpp"
#include "passes/const_fold.hpp"
#include "passes/specialize.hpp"
#include "passes/unroll.hpp"
#include "support/strings.hpp"
#include "vm/compiler.hpp"

namespace antarex::dsl {

Weaver::Weaver(cir::Module& module, vm::Engine* engine)
    : module_(module), engine_(engine) {}

void Weaver::load(AspectLibrary lib) {
  for (auto& a : lib.aspects) {
    ANTAREX_REQUIRE(library_.find(a.name) == nullptr,
                    "Weaver: aspect '" + a.name + "' already loaded");
    library_.aspects.push_back(std::move(a));
  }
}

void Weaver::load_source(std::string_view dsl_source) {
  load(parse_aspects(dsl_source));
}

Record Weaver::run(const std::string& aspect_name, std::vector<Val> inputs) {
  const AspectDef* def = library_.find(aspect_name);
  ANTAREX_REQUIRE(def != nullptr, "Weaver: unknown aspect '" + aspect_name + "'");
  ANTAREX_REQUIRE(inputs.size() <= def->inputs.size(),
                  format("Weaver: aspect '%s' takes %zu inputs, got %zu",
                         aspect_name.c_str(), def->inputs.size(), inputs.size()));
  Env env;
  for (std::size_t i = 0; i < def->inputs.size(); ++i)
    env.set(def->inputs[i], i < inputs.size() ? std::move(inputs[i]) : Val::null());
  for (const auto& out : def->outputs) env.set(out, Val::null());

  exec_aspect(*def, env);

  Record outputs;
  for (const auto& out : def->outputs) {
    const Val* v = env.find(out);
    outputs[out] = v ? *v : Val::null();
  }
  return outputs;
}

void Weaver::exec_aspect(const AspectDef& def, Env& env) {
  ANTAREX_REQUIRE(++call_depth_ <= 32,
                  "Weaver: aspect call depth exceeded (recursive aspects?)");
  const SelectStmt* current_select = nullptr;
  const DExpr* pending_condition = nullptr;

  for (std::size_t i = 0; i < def.body.size(); ++i) {
    const Item& item = def.body[i];
    switch (item.kind) {
      case Item::Kind::Select:
        current_select = &item.select;
        pending_condition = nullptr;
        break;
      case Item::Kind::Condition:
        // A condition *before* an apply: stash it. (Figure layout puts the
        // condition after the apply; both orders are accepted.)
        pending_condition = item.condition.expr.get();
        break;
      case Item::Kind::Apply: {
        ANTAREX_REQUIRE(current_select != nullptr,
                        "Weaver: 'apply' without a preceding 'select' in aspect '" +
                            def.name + "'");
        const DExpr* condition = pending_condition;
        if (!condition && i + 1 < def.body.size() &&
            def.body[i + 1].kind == Item::Kind::Condition) {
          condition = def.body[i + 1].condition.expr.get();
          ++i;  // consume the trailing condition
        }
        pending_condition = nullptr;
        exec_apply(item.apply, *current_select, condition, env);
        break;
      }
      case Item::Kind::Call: {
        const Val result = exec_call(item.call, env);
        if (!item.call.label.empty()) env.set(item.call.label, result);
        break;
      }
      case Item::Kind::Assign:
        env.set(item.assign.name, eval_expr(*item.assign.value, env));
        break;
    }
  }
  --call_depth_;
}

void Weaver::exec_apply(const ApplyStmt& apply, const SelectStmt& sel,
                        const DExpr* condition, Env& env) {
  if (apply.dynamic) {
    register_dynamic(apply, sel, condition, env);
    return;
  }

  JoinPointPtr root;
  if (!sel.root_var.empty()) {
    const Val* v = env.find(sel.root_var);
    ANTAREX_REQUIRE(v != nullptr && v->is_join_point(),
                    "Weaver: select root '" + sel.root_var +
                        "' is not a bound join point");
    root = v->as_join_point();
  }

  const auto bindings = run_select(module_, root, sel);
  stats_.selections += bindings.size();

  for (const SelectionBinding& b : bindings) {
    Env scope(&env);
    for (const auto& [var, jp] : b.bound)
      scope.set_local(var, Val::join_point(jp));
    if (condition && !eval_expr(*condition, scope).as_bool()) {
      ++stats_.condition_rejects;
      continue;
    }
    for (const Action& a : apply.actions) exec_action(a, scope);
  }
}

void Weaver::exec_action(const Action& a, Env& env) {
  switch (a.kind) {
    case Action::Kind::Insert:
      do_insert(a.insert, env);
      break;
    case Action::Kind::Do:
      if (a.do_action.action == "LoopUnroll") {
        do_loop_unroll(a.do_action, env);
      } else {
        throw Error("Weaver: unknown do-action '" + a.do_action.action + "'");
      }
      break;
    case Action::Kind::Call: {
      const Val result = exec_call(a.call, env);
      if (!a.call.label.empty()) env.set(a.call.label, result);
      break;
    }
    case Action::Kind::Assign:
      env.set(a.assign.name, eval_expr(*a.assign.value, env));
      break;
  }
}

Val Weaver::exec_call(const CallStmt& call, Env& env) {
  std::vector<Val> args;
  args.reserve(call.args.size());
  for (const auto& a : call.args) args.push_back(eval_expr(*a, env));

  if (call.callee == "PrepareSpecialize") return builtin_prepare_specialize(args);
  if (call.callee == "Specialize") return builtin_specialize(args);
  if (call.callee == "AddVersion") return builtin_add_version(args);

  // User aspect invocation.
  const AspectDef* def = library_.find(call.callee);
  if (!def)
    throw Error("Weaver: call to unknown aspect or action '" + call.callee + "'");
  Record rec = run(call.callee, std::move(args));
  return Val::record(std::make_shared<Record>(std::move(rec)));
}

// ---------------------------------------------------------------------------
// insert
// ---------------------------------------------------------------------------

std::string Weaver::splice_template(const std::string& tmpl, Env& env) const {
  // Paper-style templates wrap string splices in single quotes:
  //   '[[funcName]]'  — normalize so the value's own quoting applies.
  std::string t = replace_all(tmpl, "'[[", "[[");
  t = replace_all(t, "]]'", "]]");

  std::string out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t open = t.find("[[", pos);
    if (open == std::string::npos) {
      out += t.substr(pos);
      break;
    }
    out += t.substr(pos, open - pos);
    const std::size_t close = t.find("]]", open + 2);
    ANTAREX_REQUIRE(close != std::string::npos,
                    "Weaver: unterminated [[...]] splice in template");
    const std::string expr_src = t.substr(open + 2, close - open - 2);
    DExprPtr expr = parse_dsl_expression(expr_src);
    out += eval_expr(*expr, env).to_splice();
    pos = close + 2;
  }
  return out;
}

void Weaver::do_insert(const InsertAction& ins, Env& env) {
  const Val* v = env.find("$fCall");
  ANTAREX_REQUIRE(v != nullptr && v->is_join_point(),
                  "Weaver: 'insert' requires a selected $fCall join point");
  const JoinPointPtr jp = v->as_join_point();
  ANTAREX_REQUIRE(jp->kind == JoinPoint::Kind::Call,
                  "Weaver: 'insert' target must be a call join point");

  const std::string source = splice_template(ins.code_template, env);
  auto snippet = cir::parse_snippet(source);

  cir::Block& block = *jp->anchor_block;
  const auto it = std::find_if(
      block.stmts.begin(), block.stmts.end(),
      [&](const cir::StmtPtr& s) { return s.get() == jp->anchor_stmt; });
  ANTAREX_REQUIRE(it != block.stmts.end(),
                  "Weaver: insertion anchor no longer exists (conflicting "
                  "transformations?)");
  const auto insert_at = ins.before ? it : std::next(it);
  block.stmts.insert(insert_at,
                     std::make_move_iterator(snippet->stmts.begin()),
                     std::make_move_iterator(snippet->stmts.end()));
  ++stats_.inserts;
}

// ---------------------------------------------------------------------------
// LoopUnroll
// ---------------------------------------------------------------------------

void Weaver::do_loop_unroll(const DoAction& act, Env& env) {
  const Val* v = env.find("$loop");
  ANTAREX_REQUIRE(v != nullptr && v->is_join_point(),
                  "Weaver: LoopUnroll requires a selected $loop join point");
  const JoinPointPtr jp = v->as_join_point();
  ANTAREX_REQUIRE(jp->kind == JoinPoint::Kind::Loop,
                  "Weaver: LoopUnroll target must be a loop join point");
  ANTAREX_REQUIRE(act.args.size() == 1, "Weaver: LoopUnroll takes one argument");

  const Val mode = eval_expr(*act.args[0], env);
  bool done = false;
  if (mode.is_str() && mode.as_str() == "full") {
    // The condition (numIter <= threshold) already guarded eligibility; use a
    // generous internal cap as a safety net against degenerate aspects.
    done = passes::unroll_loop_full(*jp->func, jp->loop, 4096);
  } else if (mode.is_num()) {
    done = passes::unroll_loop_partial(*jp->func, jp->loop,
                                       static_cast<i64>(mode.as_num()));
  } else {
    throw Error("Weaver: LoopUnroll argument must be 'full' or a factor");
  }
  if (done) ++stats_.unrolls;
}

// ---------------------------------------------------------------------------
// Specialization builtins (Figure 4)
// ---------------------------------------------------------------------------

Val Weaver::builtin_prepare_specialize(const std::vector<Val>& args) {
  ANTAREX_REQUIRE(args.size() == 2,
                  "PrepareSpecialize(funcName, paramName) takes 2 arguments");
  ANTAREX_REQUIRE(engine_ != nullptr,
                  "PrepareSpecialize requires a VM engine attached to the weaver");
  const std::string func = args[0].as_str();
  const std::string param = args[1].as_str();
  const cir::Function* f = module_.find(func);
  ANTAREX_REQUIRE(f != nullptr, "PrepareSpecialize: unknown function '" + func + "'");
  const int idx = f->param_index(param);
  ANTAREX_REQUIRE(idx >= 0,
                  "PrepareSpecialize: no parameter '" + param + "' in " + func);
  engine_->prepare_specialize(func, idx);

  auto rec = std::make_shared<Record>();
  (*rec)["func"] = Val::str(func);
  (*rec)["param"] = Val::str(param);
  (*rec)["index"] = Val::num(idx);
  return Val::record(rec);
}

Val Weaver::builtin_specialize(const std::vector<Val>& args) {
  ANTAREX_REQUIRE(args.size() == 3,
                  "Specialize($fCall|name, paramName, value) takes 3 arguments");
  std::string func;
  if (args[0].is_join_point()) {
    const auto jp = args[0].as_join_point();
    ANTAREX_REQUIRE(jp->kind == JoinPoint::Kind::Call || jp->kind == JoinPoint::Kind::Arg,
                    "Specialize: join point must be a call (or its arg)");
    func = jp->call->callee;
  } else {
    func = args[0].as_str();
  }
  const std::string param = args[1].as_str();
  const i64 value = static_cast<i64>(args[2].as_num());

  cir::Function* variant = passes::specialize_function(module_, func, param, value);
  // Fold so downstream analyses (numIter) see the bound constant.
  passes::ConstantFoldPass fold;
  fold.run(*variant);
  ++stats_.specializations;

  auto jp = std::make_shared<JoinPoint>();
  jp->kind = JoinPoint::Kind::Function;
  jp->module = &module_;
  jp->func = variant;

  auto rec = std::make_shared<Record>();
  (*rec)["$func"] = Val::join_point(jp);
  (*rec)["name"] = Val::str(variant->name);
  (*rec)["origin"] = Val::str(func);
  return Val::record(rec);
}

Val Weaver::builtin_add_version(const std::vector<Val>& args) {
  ANTAREX_REQUIRE(args.size() == 3,
                  "AddVersion(spCall, $func, value) takes 3 arguments");
  ANTAREX_REQUIRE(engine_ != nullptr,
                  "AddVersion requires a VM engine attached to the weaver");
  const auto prep = args[0].as_record();
  const std::string target = prep->at("func").as_str();
  ANTAREX_REQUIRE(args[1].is_join_point(), "AddVersion: second argument must be $func");
  const cir::Function* variant = args[1].as_join_point()->func;
  const i64 value = static_cast<i64>(args[2].as_num());

  engine_->add_version(target, value, vm::compile_function(*variant));
  ++stats_.versions_added;
  return Val::null();
}

// ---------------------------------------------------------------------------
// Dynamic weaving (Figure 4's `apply dynamic`)
// ---------------------------------------------------------------------------

void Weaver::register_dynamic(const ApplyStmt& apply, const SelectStmt& sel,
                              const DExpr* condition, const Env& env) {
  ANTAREX_REQUIRE(engine_ != nullptr,
                  "Weaver: dynamic apply requires a VM engine");
  // Dynamic selection must be a concrete fCall{'name'}.arg{'param'} chain:
  // the runtime hook keys on the callee name and argument index.
  ANTAREX_REQUIRE(sel.chain.size() == 2 && sel.chain[0].selector == "fCall" &&
                      sel.chain[1].selector == "arg",
                  "Weaver: dynamic apply requires `select fCall{'f'}.arg{'p'}`");
  ANTAREX_REQUIRE(sel.chain[0].name_filter && sel.chain[1].name_filter,
                  "Weaver: dynamic select needs name filters on fCall and arg");

  const std::string callee = *sel.chain[0].name_filter;
  const std::string param = *sel.chain[1].name_filter;
  const cir::Function* f = module_.find(callee);
  ANTAREX_REQUIRE(f != nullptr, "Weaver: dynamic select on unknown function '" +
                                    callee + "'");
  const int idx = f->param_index(param);
  ANTAREX_REQUIRE(idx >= 0, "Weaver: function '" + callee +
                                "' has no parameter '" + param + "'");

  DynamicRegistration reg;
  reg.callee = callee;
  reg.arg_index = idx;
  reg.apply = &apply;
  reg.condition = condition;
  // Capture the aspect's current environment by value (flattened).
  auto closure = std::make_shared<Env>();
  // There is no iteration interface on Env; capture the input names we know
  // about by copying the whole chain lazily instead: we keep a child Env
  // whose parent is a heap copy of the caller's bindings.
  *closure = env.snapshot();
  reg.closure = std::move(closure);
  dynamic_.push_back(std::move(reg));
  ++stats_.dynamic_registrations;

  if (!hook_installed_) {
    engine_->set_call_hook([this](const std::string& name,
                                  const std::vector<vm::Value>& args) {
      on_vm_call(name, args);
    });
    hook_installed_ = true;
  }
}

void Weaver::on_vm_call(const std::string& name,
                        const std::vector<vm::Value>& args) {
  for (auto& reg : dynamic_) {
    if (reg.callee != name) continue;
    if (reg.arg_index < 0 || static_cast<std::size_t>(reg.arg_index) >= args.size())
      continue;
    const vm::Value& guard = args[static_cast<std::size_t>(reg.arg_index)];
    if (!guard.is_int()) continue;
    const i64 value = guard.as_int();
    if (std::find(reg.handled_values.begin(), reg.handled_values.end(), value) !=
        reg.handled_values.end())
      continue;

    // Build the runtime join points: $fCall bound to (any) static call site of
    // the callee, $arg carrying the observed runtime value.
    cir::Function* callee_fn = module_.find(name);
    if (!callee_fn) continue;

    // Synthesize a call expression describing the dynamic call: argument
    // literals from runtime values (enough for attribute queries). This
    // attempt owns it; the registration keeps it once the actions run.
    std::vector<cir::ExprPtr> lit_args;
    for (const auto& a : args) {
      if (a.is_int()) lit_args.push_back(cir::make_int(a.as_int()));
      else if (a.is_float()) lit_args.push_back(cir::make_float(a.as_float()));
      else lit_args.push_back(cir::make_str("<opaque>"));
    }
    auto call = std::make_unique<cir::CallExpr>(name, std::move(lit_args));

    auto call_jp = std::make_shared<JoinPoint>();
    call_jp->kind = JoinPoint::Kind::Call;
    call_jp->module = &module_;
    call_jp->func = callee_fn;
    call_jp->call = call.get();

    auto arg_jp = std::make_shared<JoinPoint>(*call_jp);
    arg_jp->kind = JoinPoint::Kind::Arg;
    arg_jp->arg_index = reg.arg_index;
    arg_jp->runtime_value = value;

    Env scope(reg.closure.get());
    scope.set_local("$fCall", Val::join_point(call_jp));
    scope.set_local("$arg", Val::join_point(arg_jp));

    if (reg.condition && !eval_expr(*reg.condition, scope).as_bool()) {
      ++stats_.condition_rejects;
      continue;
    }

    reg.handled_values.push_back(value);
    reg.calls.push_back(std::move(call));
    ++stats_.dynamic_triggers;
    for (const Action& a : reg.apply->actions) exec_action(a, scope);
  }
}

}  // namespace antarex::dsl
