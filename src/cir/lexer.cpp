#include "cir/lexer.hpp"

#include "support/scanner.hpp"

namespace antarex::cir {

namespace {

const scan::SpellingTable<TokKind>& spellings() {
  using enum TokKind;
  static const scan::SpellingTable<TokKind> table = {
      {"(", LParen},        {")", RParen},         {"{", LBrace},
      {"}", RBrace},        {"[", LBracket},       {"]", RBracket},
      {",", Comma},         {";", Semi},           {"+", Plus},
      {"-", Minus},         {"*", Star},           {"/", Slash},
      {"%", Percent},       {"=", Assign},         {"<", Lt},
      {"<=", Le},           {">", Gt},             {">=", Ge},
      {"==", EqEq},         {"!=", Ne},            {"&&", AmpAmp},
      {"||", PipePipe},     {"!", Bang},           {"++", PlusPlus},
      {"--", MinusMinus},   {"+=", PlusAssign},    {"-=", MinusAssign},
      {"*=", StarAssign},   {"/=", SlashAssign},   {"int", KwInt},
      {"double", KwDouble}, {"float", KwFloat},    {"void", KwVoid},
      {"const", KwConst},   {"char", KwChar},      {"if", KwIf},
      {"else", KwElse},     {"for", KwFor},        {"while", KwWhile},
      {"return", KwReturn}, {"break", KwBreak},    {"continue", KwContinue},
  };
  return table;
}

}  // namespace

const char* tok_kind_name(TokKind k) {
  static const char* const kForms[] = {"<eof>", "identifier", "integer literal",
                                       "float literal", "string literal"};
  return k < TokKind::LParen ? kForms[static_cast<int>(k)] : spellings().quoted(k);
}

std::vector<Token> lex(std::string_view source) {
  std::vector<Token> out;
  scan::Cursor cur(source, "lex error");
  for (cur.skip_blank(); !cur.done(); cur.skip_blank()) {
    Token t;
    t.loc = {cur.line(), cur.col()};
    const char c = cur.peek();
    if (scan::is_ident_start(c)) {
      t.text = cur.ident();
      t.kind = spellings().word(t.text, TokKind::Ident);
    } else if (cur.at_number()) {
      bool is_float = false;
      t.text = cur.number(is_float);
      if (is_float) {
        t.kind = TokKind::FloatLit;
        t.float_value = cur.to_double(t.text);
      } else {
        t.kind = TokKind::IntLit;
        t.int_value = cur.to_int(t.text);
      }
    } else if (c == '"' || c == '\'') {
      // Both quote styles: woven code inherits single-quoted strings from
      // LARA-style %{...}% templates (paper Fig. 2).
      t.kind = TokKind::StrLit;
      t.text = cur.quoted();
    } else {
      t.kind = spellings().scan(cur).kind;
    }
    out.push_back(std::move(t));
  }
  out.push_back(Token{TokKind::End, {}, 0, 0.0, {cur.line(), cur.col()}});
  return out;
}

}  // namespace antarex::cir
