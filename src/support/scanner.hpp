// Scanning rules shared by the two front ends of Figure 1, the mini-C lexer
// (cir/lexer.cpp) and the LARA aspect lexer (dsl/lexer.cpp): one cursor, and
// one SpellingTable per language for its keywords and operators.
#pragma once

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "support/common.hpp"

namespace antarex::scan {

inline bool is_digit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }
inline bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

/// A byte cursor over a source text that tracks line:col (both 1-based).
/// Errors throw antarex::Error as "<prefix> at L:C: <message>", at the
/// cursor's position when they are raised.
class Cursor {
 public:
  Cursor(std::string_view src, const char* error_prefix)
      : src_(src), prefix_(error_prefix) {}

  bool done() const { return pos_ >= src_.size(); }
  char peek(std::size_t ahead = 0) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }
  std::string_view rest() const { return src_.substr(pos_); }
  int line() const { return line_; }
  int col() const { return col_; }
  char advance() {
    const char c = src_[pos_++];
    col_ = c == '\n' ? 1 : col_ + 1;
    line_ += c == '\n';
    return c;
  }
  void skip(std::size_t n) {
    while (n-- > 0) advance();
  }
  [[noreturn]] void fail(const std::string& msg) const {
    throw Error(std::string(prefix_) + " at " + std::to_string(line_) + ":" +
                std::to_string(col_) + ": " + msg);
  }

  /// The text up to `close`, which the cursor then passes; fails with
  /// "unterminated <what>" at the end of the source when `close` is missing.
  std::string_view until(std::string_view close, const char* what) {
    const std::size_t end = rest().find(close);
    if (end == std::string_view::npos) {
      skip(rest().size());
      fail(std::string("unterminated ") + what);
    }
    const std::string_view body = rest().substr(0, end);
    skip(end + close.size());
    return body;
  }

  /// Skips whitespace, `// ...` and `/* ... */`; stops at a token or the end.
  void skip_blank() {
    for (char c = peek(); !done(); c = peek()) {
      if (std::isspace(static_cast<unsigned char>(c))) {
        advance();
      } else if (c == '/' && peek(1) == '/') {
        while (!done() && peek() != '\n') advance();
      } else if (c == '/' && peek(1) == '*') {
        skip(2);
        until("*/", "block comment");
      } else {
        return;
      }
    }
  }

  /// [A-Za-z_][A-Za-z0-9_]*, at a byte where is_ident_start holds.
  std::string_view ident() {
    const std::size_t start = pos_;
    while (is_ident_start(peek()) || is_digit(peek())) advance();
    return src_.substr(start, pos_ - start);
  }

  /// A '...' or "..." string with the escapes \n \t \\ \' \", unescaped.
  std::string quoted() {
    const char quote = advance();
    std::string s;
    while (!done() && peek() != quote) {
      char d = advance();
      if (d == '\\' && !done()) {
        const char esc = advance();
        const std::size_t i = std::string_view("nt\\'\"").find(esc);
        if (i == std::string_view::npos)
          fail(std::string("unknown escape '\\") + esc + "'");
        d = "\n\t\\'\""[i];
      }
      s.push_back(d);
    }
    if (done()) fail("unterminated string literal");
    advance();  // closing quote
    return s;
  }

  bool at_number() const {
    return is_digit(peek()) || (peek() == '.' && is_digit(peek(1)));
  }
  /// Digits with at most one '.' and an optional exponent (e or E, an
  /// optional sign, then digits), at a byte where at_number() holds.
  /// `is_float` tells whether it has a '.' or an exponent.
  std::string number(bool& is_float) {
    const std::size_t start = pos_;
    bool dot = false, exp = false;
    for (char d = peek(); !done(); d = peek()) {
      const bool sign = peek(1) == '+' || peek(1) == '-';
      if (is_digit(d) || (d == '.' && !dot && !exp)) {
        dot = dot || d == '.';
        advance();
      } else if ((d == 'e' || d == 'E') && !exp &&
                 (is_digit(peek(1)) || (sign && is_digit(peek(2))))) {
        exp = true;
        skip(sign ? 2 : 1);
      } else {
        break;
      }
    }
    is_float = dot || exp;
    return std::string(src_.substr(start, pos_ - start));
  }
  /// A number's value; one that overflows its type (i64, double) fails.
  double to_double(const std::string& text) const {
    const double v = std::strtod(text.c_str(), nullptr);
    if (std::isinf(v)) fail("number '" + text + "' is out of range");
    return v;
  }
  i64 to_int(const std::string& text) const {
    i64 v = 0;
    if (std::from_chars(text.data(), text.data() + text.size(), v).ec != std::errc())
      fail("integer literal '" + text + "' is out of range");
    return v;
  }

 private:
  std::string_view src_;
  const char* prefix_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

/// One language's keywords and operators, each spelled once. Entries are
/// bucketed by first byte, longest first, so a lookup reads only the entries
/// that share the token's first byte.
template <class Kind>
class SpellingTable {
 public:
  struct Entry {
    std::string_view text;
    Kind kind;
  };

  SpellingTable(std::initializer_list<Entry> entries) {
    for (const Entry& e : entries) {
      buckets_[byte(e.text[0])].push_back(e);
      const auto k = static_cast<std::size_t>(e.kind);
      if (quoted_.size() <= k) quoted_.resize(k + 1);
      quoted_[k] = "'" + std::string(e.text) + "'";
    }
    for (auto& b : buckets_)
      std::stable_sort(b.begin(), b.end(), [](const Entry& x, const Entry& y) {
        return x.text.size() > y.text.size();
      });
  }

  /// The keyword spelled `w`, or `fallback` when `w` is not one.
  Kind word(std::string_view w, Kind fallback) const {
    for (const Entry& e : buckets_[byte(w[0])])
      if (e.text == w) return e.kind;
    return fallback;
  }

  /// Reads the longest operator at the cursor; fails if none starts there.
  const Entry& scan(Cursor& cur) const {
    const std::string_view rest = cur.rest();
    for (const Entry& e : buckets_[byte(rest[0])])
      if (rest.starts_with(e.text)) {
        cur.skip(e.text.size());
        return e;
      }
    cur.advance();
    cur.fail(std::string("unexpected character '") + rest[0] + "'");
  }

  /// "'<spelling>'" for a kind in the table.
  const char* quoted(Kind k) const {
    return quoted_[static_cast<std::size_t>(k)].c_str();
  }

 private:
  static unsigned char byte(char c) { return static_cast<unsigned char>(c); }

  std::array<std::vector<Entry>, 256> buckets_;
  std::vector<std::string> quoted_;
};

}  // namespace antarex::scan
