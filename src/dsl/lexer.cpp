#include "dsl/lexer.hpp"

#include "support/scanner.hpp"

namespace antarex::dsl {

namespace {

const scan::SpellingTable<DTok>& spellings() {
  using enum DTok;
  static const scan::SpellingTable<DTok> table = {
      {"(", LParen},         {")", RParen},          {"{", LBrace},
      {"}", RBrace},         {".", Dot},             {",", Comma},
      {";", Semi},           {":", Colon},           {"=", Assign},
      {"==", Eq},            {"!=", Ne},             {"<", Lt},
      {"<=", Le},            {">", Gt},              {">=", Ge},
      {"&&", AndAnd},        {"||", OrOr},           {"!", Not},
      {"+", Plus},           {"-", Minus},           {"*", Star},
      {"/", Slash},          {"%", Percent},         {"aspectdef", KwAspectdef},
      {"end", KwEnd},        {"input", KwInput},     {"output", KwOutput},
      {"select", KwSelect},  {"apply", KwApply},     {"condition", KwCondition},
      {"call", KwCall},      {"do", KwDo},           {"insert", KwInsert},
      {"before", KwBefore},  {"after", KwAfter},     {"dynamic", KwDynamic},
      {"var", KwVar},        {"true", KwTrue},       {"false", KwFalse},
      {"null", KwNull},
  };
  return table;
}

}  // namespace

const char* dtok_name(DTok t) {
  static const char* const kForms[] = {"<eof>",  "identifier", "$-identifier",
                                       "number", "string",     "code template"};
  return t < DTok::LParen ? kForms[static_cast<int>(t)] : spellings().quoted(t);
}

std::vector<DToken> dsl_lex(std::string_view src) {
  std::vector<DToken> out;
  scan::Cursor cur(src, "DSL lex error");
  for (cur.skip_blank(); !cur.done(); cur.skip_blank()) {
    DToken t;
    t.line = cur.line();
    t.col = cur.col();
    const char c = cur.peek();
    if (c == '%' && cur.peek(1) == '{') {  // %{ ... }% code template
      cur.skip(2);
      t.kind = DTok::Template;
      t.text = cur.until("}%", "%{ template");
    } else if (scan::is_ident_start(c)) {
      t.text = cur.ident();
      t.kind = spellings().word(t.text, DTok::Ident);
    } else if (c == '$') {
      cur.advance();
      if (!scan::is_ident_start(cur.peek())) cur.fail("expected identifier after '$'");
      t.kind = DTok::DollarIdent;
      t.text = "$" + std::string(cur.ident());
    } else if (cur.at_number()) {
      bool is_float = false;
      t.kind = DTok::Num;
      t.text = cur.number(is_float);
      t.num = cur.to_double(t.text);
    } else if (c == '\'' || c == '"') {
      t.kind = DTok::Str;
      t.text = cur.quoted();
    } else {
      const auto& op = spellings().scan(cur);
      t.kind = op.kind;
      t.text = op.text;
    }
    out.push_back(std::move(t));
  }
  out.push_back(DToken{DTok::End, {}, 0.0, cur.line(), cur.col()});
  return out;
}

}  // namespace antarex::dsl
