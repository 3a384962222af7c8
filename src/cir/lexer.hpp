// Lexer for the ANTAREX mini-C language.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "cir/ast.hpp"

namespace antarex::cir {

enum class TokKind {
  End, Ident, IntLit, FloatLit, StrLit,
  // punctuation / operators
  LParen, RParen, LBrace, RBrace, LBracket, RBracket,
  Comma, Semi,
  Plus, Minus, Star, Slash, Percent,
  Assign,          // =
  Lt, Le, Gt, Ge, EqEq, Ne,
  AmpAmp, PipePipe, Bang,
  PlusPlus, MinusMinus,
  PlusAssign, MinusAssign, StarAssign, SlashAssign,
  // keywords
  KwInt, KwDouble, KwFloat, KwVoid, KwConst, KwChar,
  KwIf, KwElse, KwFor, KwWhile, KwReturn, KwBreak, KwContinue,
};

const char* tok_kind_name(TokKind k);

struct Token {
  TokKind kind = TokKind::End;
  std::string text;   // identifier name / literal spelling (strings: unescaped)
  i64 int_value = 0;
  double float_value = 0.0;
  SourceLoc loc;
};

/// Tokenizes a full source string. Throws antarex::Error with line:col on
/// malformed input. Supports // and /* */ comments.
std::vector<Token> lex(std::string_view source);

}  // namespace antarex::cir
