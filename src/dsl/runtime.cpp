#include "dsl/runtime.hpp"

#include <algorithm>
#include <cmath>

#include "passes/const_fold.hpp"
#include "passes/dce.hpp"
#include "passes/specialize.hpp"
#include "passes/unroll.hpp"
#include "vm/compiler.hpp"

namespace antarex::dsl {

void ProfileStore::install(vm::Engine& engine) {
  engine.register_host(
      "profile_args", [this](std::span<const vm::Value> args) {
        ANTAREX_REQUIRE(args.size() >= 2,
                        "profile_args: expected (name, location, values...)");
        std::vector<double> values;
        for (std::size_t i = 2; i < args.size(); ++i) {
          // Keep argument positions aligned with the call site: numeric args
          // record their value, buffers record their length (a useful
          // profile in its own right), strings record 0.
          if (args[i].is_numeric()) {
            values.push_back(args[i].as_float());
          } else if (args[i].kind() == vm::Value::Kind::FloatArr) {
            values.push_back(static_cast<double>(args[i].float_array().size()));
          } else if (args[i].kind() == vm::Value::Kind::IntArr) {
            values.push_back(static_cast<double>(args[i].int_array().size()));
          } else {
            values.push_back(0.0);
          }
        }
        record(args[0].as_str(), args[1].as_str(), values);
        return vm::Value::from_int(0);
      });
}

void ProfileStore::record(const std::string& func, const std::string& location,
                          const std::vector<double>& args) {
  FunctionProfile& p = profiles_[func];
  if (p.calls == 0) p.location = location;
  ++p.calls;
  if (p.value_counts.size() < args.size()) p.value_counts.resize(args.size());
  for (std::size_t i = 0; i < args.size(); ++i) ++p.value_counts[i][args[i]];
}

bool ProfileStore::has(const std::string& func) const {
  return profiles_.contains(func);
}

const ProfileStore::FunctionProfile& ProfileStore::profile(
    const std::string& func) const {
  auto it = profiles_.find(func);
  ANTAREX_REQUIRE(it != profiles_.end(),
                  "ProfileStore: no profile for '" + func + "'");
  return it->second;
}

u64 ProfileStore::total_calls() const {
  u64 n = 0;
  for (const auto& [name, p] : profiles_) n += p.calls;
  return n;
}

double ProfileStore::hottest_value(const std::string& func,
                                   std::size_t arg_index) const {
  const FunctionProfile& p = profile(func);
  ANTAREX_REQUIRE(arg_index < p.value_counts.size(),
                  "ProfileStore: argument index never observed");
  const auto& counts = p.value_counts[arg_index];
  ANTAREX_REQUIRE(!counts.empty(), "ProfileStore: no numeric observations");
  double best = 0.0;
  u64 best_count = 0;
  for (const auto& [value, count] : counts) {
    if (count > best_count) {
      best_count = count;
      best = value;
    }
  }
  return best;
}

void SectionTimers::install(vm::Engine& engine) {
  engine_ = &engine;
  engine.register_host("monitor_begin", [this](std::span<const vm::Value> args) {
    ANTAREX_REQUIRE(args.size() == 1, "monitor_begin: expected (id)");
    begin(args[0].is_str() ? args[0].as_str() : args[0].to_string());
    return vm::Value::from_int(0);
  });
  engine.register_host("monitor_end", [this](std::span<const vm::Value> args) {
    ANTAREX_REQUIRE(args.size() == 1, "monitor_end: expected (id)");
    end(args[0].is_str() ? args[0].as_str() : args[0].to_string());
    return vm::Value::from_int(0);
  });
}

void SectionTimers::begin(const std::string& id) {
  ANTAREX_CHECK(engine_ != nullptr, "SectionTimers: not installed");
  ++sections_[id].entries;
  stack_.emplace_back(id, engine_->executed_instructions());
}

void SectionTimers::end(const std::string& id) {
  ANTAREX_REQUIRE(!stack_.empty(),
                  "monitor_end('" + id + "') without matching monitor_begin");
  ANTAREX_REQUIRE(stack_.back().first == id,
                  "monitor_end('" + id + "') does not match open section '" +
                      stack_.back().first + "'");
  const u64 elapsed = engine_->executed_instructions() - stack_.back().second;
  stack_.pop_back();
  Section& s = sections_[id];
  if (s.exits == 0) {
    s.min_instructions = s.max_instructions = elapsed;
  } else {
    s.min_instructions = std::min(s.min_instructions, elapsed);
    s.max_instructions = std::max(s.max_instructions, elapsed);
  }
  ++s.exits;
  s.total_instructions += elapsed;
}

bool SectionTimers::has(const std::string& id) const {
  return sections_.contains(id);
}

const SectionTimers::Section& SectionTimers::section(const std::string& id) const {
  auto it = sections_.find(id);
  ANTAREX_REQUIRE(it != sections_.end(),
                  "SectionTimers: no section '" + id + "'");
  return it->second;
}

double SectionTimers::mean_instructions(const std::string& id) const {
  const Section& s = section(id);
  ANTAREX_REQUIRE(s.exits > 0, "SectionTimers: section '" + id + "' never exited");
  return static_cast<double>(s.total_instructions) / static_cast<double>(s.exits);
}

std::size_t SectionTimers::open_sections() const { return stack_.size(); }

void SectionTimers::clear() {
  sections_.clear();
  stack_.clear();
}

AutoSpecializer::AutoSpecializer(cir::Module& module, vm::Engine& engine,
                                 Options opts)
    : module_(module), engine_(engine), opts_(opts) {
  ANTAREX_REQUIRE(opts_.min_calls > 0 && opts_.min_share > 0.0 &&
                      opts_.min_share <= 1.0,
                  "AutoSpecializer: invalid options");
}

std::size_t AutoSpecializer::step(const ProfileStore& profile) {
  std::size_t added = 0;

  // Snapshot names first: installing a specialization appends to
  // module_.functions, which would invalidate direct iteration.
  std::vector<std::string> names;
  names.reserve(module_.functions.size());
  for (const auto& fn : module_.functions) names.push_back(fn->name);

  for (const std::string& name : names) {
    cir::Function* fn = module_.find(name);
    if (!fn || !profile.has(name)) continue;
    const ProfileStore::FunctionProfile& p = profile.profile(name);
    if (p.calls < opts_.min_calls) continue;
    if (done_[name].size() >= opts_.max_versions) continue;

    // Pick the parameter to specialize on: the integer parameter whose
    // hottest observed value has the highest share (decided once per
    // function — the VM guards a single argument index).
    int param = chosen_param_.count(name) ? chosen_param_[name] : -1;
    if (param < 0) {
      double best_share = 0.0;
      for (std::size_t i = 0; i < fn->params.size() && i < p.value_counts.size();
           ++i) {
        if (fn->params[i].type != cir::Type::Int) continue;
        if (p.value_counts[i].empty()) continue;
        u64 top = 0;
        for (const auto& [value, count] : p.value_counts[i])
          top = std::max(top, count);
        const double share = static_cast<double>(top) /
                             static_cast<double>(p.calls);
        if (share > best_share) {
          best_share = share;
          param = static_cast<int>(i);
        }
      }
      if (param < 0 || best_share < opts_.min_share) continue;
      chosen_param_[name] = param;
      engine_.prepare_specialize(name, param);
    }

    // Hottest value for the chosen parameter.
    if (static_cast<std::size_t>(param) >= p.value_counts.size()) continue;
    const auto& counts = p.value_counts[static_cast<std::size_t>(param)];
    if (counts.empty()) continue;
    double best_value = 0.0;
    u64 best_count = 0;
    for (const auto& [value, count] : counts) {
      if (count > best_count) {
        best_count = count;
        best_value = value;
      }
    }
    const double share =
        static_cast<double>(best_count) / static_cast<double>(p.calls);
    if (share < opts_.min_share) continue;
    if (std::floor(best_value) != best_value) continue;  // non-integral
    const i64 value = static_cast<i64>(best_value);
    auto& handled = done_[name];
    if (std::find(handled.begin(), handled.end(), value) != handled.end())
      continue;

    // Specialize + optimize + install.
    const std::string& pname =
        fn->params[static_cast<std::size_t>(param)].name;
    cir::Function* variant =
        passes::specialize_function(module_, name, pname, value);
    passes::ConstantFoldPass fold;
    passes::FullUnrollPass unroll(opts_.unroll_threshold);
    passes::DeadCodeEliminationPass dce;
    fold.run(*variant);
    unroll.run(*variant);
    fold.run(*variant);
    dce.run(*variant);
    engine_.add_version(name, value, vm::compile_function(*variant));

    handled.push_back(value);
    ++installed_;
    ++added;
  }
  return added;
}

}  // namespace antarex::dsl
