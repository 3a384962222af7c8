// The token walk shared by the mini-C parser (cir/parser.cpp) and the LARA
// aspect parser (dsl/parser.cpp).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "support/common.hpp"

namespace antarex::scan {

/// A parser's view of its tokens; kName names a token kind in messages.
/// Errors throw antarex::Error as "<prefix> at L:C: <message>", at the next
/// token's position: its `loc` (mini-C) or its `line` and `col` (LARA).
template <class Tok, const char* (*kName)(decltype(Tok::kind))>
class TokenStream {
 public:
  using Kind = decltype(Tok::kind);

  TokenStream(std::vector<Tok> toks, const char* error_prefix)
      : toks_(std::move(toks)), prefix_(error_prefix) {}

  const Tok& peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  bool at(Kind k) const { return peek().kind == k; }
  const Tok& advance() { return toks_[pos_++]; }
  bool match(Kind k) {
    if (!at(k)) return false;
    ++pos_;
    return true;
  }
  const Tok& expect(Kind k, const char* what) {
    if (!at(k))
      fail(std::string("expected ") + kName(k) + " (" + what + "), got " +
           kName(peek().kind));
    return advance();
  }
  [[noreturn]] void fail(const std::string& msg) const {
    const Tok& t = peek();
    int line = 0, col = 0;
    if constexpr (requires { t.loc; }) {
      line = t.loc.line;
      col = t.loc.col;
    } else {
      line = t.line;
      col = t.col;
    }
    throw Error(std::string(prefix_) + " at " + std::to_string(line) + ":" +
                std::to_string(col) + ": " + msg);
  }

 private:
  std::vector<Tok> toks_;
  std::size_t pos_ = 0;
  const char* prefix_;
};

}  // namespace antarex::scan
