// Seeded generator of random well-formed mini-C programs, shared by the
// fuzz properties (test_fuzz) and the VM golden fixture (test_vm).
#pragma once

#include <string>
#include <vector>

#include "support/rng.hpp"
#include "support/strings.hpp"

namespace antarex {

/// Generates a random well-formed mini-C function operating on an int
/// parameter `p`, an output array `out` (size kArr) and local ints.
/// All loops are bounded; all array indices are taken modulo kArr, so the
/// program cannot fault regardless of the random structure.
class ProgramGen {
 public:
  static constexpr i64 kArr = 16;

  explicit ProgramGen(u64 seed) : rng_(seed) {}

  std::string generate() {
    locals_ = {"p"};
    std::string body;
    body += "  int acc = p;\n";
    locals_.push_back("acc");
    const int stmts = static_cast<int>(rng_.uniform_int(3, 7));
    for (int i = 0; i < stmts; ++i) body += statement(2, 1);
    body += "  out[0] = acc;\n";
    body += "  return acc;\n";
    return "int f(int p, int* out) {\n" + body + "}\n";
  }

 private:
  std::string indent(int depth) { return std::string(depth * 2, ' '); }

  std::string fresh_local() {
    const std::string name = format("v%d", next_local_++);
    locals_.push_back(name);
    return name;
  }

  std::string expr(int depth) {
    if (depth <= 0 || rng_.bernoulli(0.35)) {
      // Leaf: literal or variable.
      if (rng_.bernoulli(0.5))
        return format("%lld", static_cast<long long>(rng_.uniform_int(-9, 9)));
      return locals_[rng_.index(locals_.size())];
    }
    switch (rng_.uniform_int(0, 5)) {
      case 0: return "(" + expr(depth - 1) + " + " + expr(depth - 1) + ")";
      case 1: return "(" + expr(depth - 1) + " - " + expr(depth - 1) + ")";
      case 2: return "(" + expr(depth - 1) + " * " + expr(depth - 1) + ")";
      case 3:
        // Division guarded against zero: (e / (|e| % 7 + 1)).
        return "(" + expr(depth - 1) + " / ((" + expr(depth - 1) +
               ") * 0 + " + format("%lld", static_cast<long long>(
                                        rng_.uniform_int(1, 5))) + "))";
      case 4: return "(" + expr(depth - 1) + " < " + expr(depth - 1) + ")";
      default:
        return "out[" + index_expr(depth - 1) + "]";
    }
  }

  /// Expression guaranteed in [0, kArr): ((e % kArr) + kArr) % kArr.
  std::string index_expr(int depth) {
    return format("(((%s) %% %lld + %lld) %% %lld)", expr(depth).c_str(),
                  static_cast<long long>(kArr), static_cast<long long>(kArr),
                  static_cast<long long>(kArr));
  }

  std::string statement(int depth, int indent_depth) {
    const std::string pad = indent(indent_depth);
    switch (rng_.uniform_int(0, 5)) {
      case 0: {  // declaration (initializer generated before the name is
                 // registered, so it cannot self-reference)
        const std::string init = expr(depth);
        const std::string name = fresh_local();
        return pad + "int " + name + " = " + init + ";\n";
      }
      case 1: {  // assignment to acc or a local (never to the parameter or a
                 // loop induction variable — that could make loops unbounded)
        const std::string& target = locals_[rng_.index(locals_.size())];
        if (target == "p" || target[0] == 'i') return pad + "acc = acc + 1;\n";
        return pad + target + " = " + expr(depth) + ";\n";
      }
      case 2:  // array store
        return pad + "out[" + index_expr(1) + "] = " + expr(depth) + ";\n";
      case 3: {  // bounded for loop (literal trip count)
        const i64 trip = rng_.uniform_int(1, 6);
        const std::string iv = format("i%d", next_local_++);
        std::string s = pad + "for (int " + iv + " = 0; " + iv + " < " +
                        format("%lld", static_cast<long long>(trip)) + "; " +
                        iv + "++) {\n";
        const std::size_t scope_mark = locals_.size();
        locals_.push_back(iv);
        s += statement(depth - 1, indent_depth + 1);
        if (rng_.bernoulli(0.5)) s += statement(depth - 1, indent_depth + 1);
        locals_.resize(scope_mark);  // iv and body locals go out of scope
        s += pad + "}\n";
        return s;
      }
      case 4: {  // if / if-else (branch-local declarations stay in-branch)
        std::string s = pad + "if (" + expr(depth) + ") {\n";
        const std::size_t scope_mark = locals_.size();
        s += statement(depth - 1, indent_depth + 1);
        locals_.resize(scope_mark);
        s += pad + "}";
        if (rng_.bernoulli(0.5)) {
          s += " else {\n";
          s += statement(depth - 1, indent_depth + 1);
          locals_.resize(scope_mark);
          s += pad + "}";
        }
        s += "\n";
        return s;
      }
      default:  // acc update
        return pad + "acc = acc + " + expr(depth) + ";\n";
    }
  }

  Rng rng_;
  std::vector<std::string> locals_;
  int next_local_ = 0;
};

}  // namespace antarex
