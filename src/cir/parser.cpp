#include "cir/parser.hpp"

#include <optional>

#include "cir/lexer.hpp"
#include "support/strings.hpp"
#include "support/token_stream.hpp"

namespace antarex::cir {

namespace {

class Parser : scan::TokenStream<Token, tok_kind_name> {
 public:
  explicit Parser(std::string_view source) : TokenStream(lex(source), "parse error") {}

  std::unique_ptr<Module> module() {
    auto m = std::make_unique<Module>();
    while (!at(TokKind::End)) m->add(function());
    return m;
  }

  std::unique_ptr<Block> snippet() {
    auto b = std::make_unique<Block>();
    while (!at(TokKind::End)) b->stmts.push_back(statement());
    return b;
  }

 private:
  bool at_type() const {
    switch (peek().kind) {
      case TokKind::KwInt:
      case TokKind::KwDouble:
      case TokKind::KwFloat:
      case TokKind::KwVoid:
      case TokKind::KwConst:
      case TokKind::KwChar:
        return true;
      default:
        return false;
    }
  }

  Type type() {
    const bool is_const = match(TokKind::KwConst);
    Type base;
    switch (peek().kind) {
      case TokKind::KwInt: advance(); base = Type::Int; break;
      case TokKind::KwDouble:
      case TokKind::KwFloat: advance(); base = Type::Float; break;
      case TokKind::KwVoid: advance(); base = Type::Void; break;
      case TokKind::KwChar: advance(); base = Type::Str; break;
      default: fail("expected a type name");
    }
    const bool ptr = match(TokKind::Star);
    if (base == Type::Str) {
      if (!ptr) fail("bare 'char' is not supported; use 'const char*'");
      return Type::Str;
    }
    (void)is_const;
    if (ptr) {
      if (base == Type::Int) return Type::IntArr;
      if (base == Type::Float) return Type::FloatArr;
      fail("'void*' is not supported in mini-C");
    }
    return base;
  }

  std::unique_ptr<Function> function() {
    auto f = std::make_unique<Function>();
    f->loc = peek().loc;
    f->return_type = type();
    f->name = expect(TokKind::Ident, "function name").text;
    expect(TokKind::LParen, "parameter list");
    if (!at(TokKind::RParen)) {
      do {
        Param p;
        p.type = type();
        if (p.type == Type::Void) fail("'void' parameter is not allowed");
        p.name = expect(TokKind::Ident, "parameter name").text;
        f->params.push_back(std::move(p));
      } while (match(TokKind::Comma));
    }
    expect(TokKind::RParen, "end of parameter list");
    f->body = block();
    return f;
  }

  std::unique_ptr<Block> block() {
    const SourceLoc loc = peek().loc;
    expect(TokKind::LBrace, "block");
    auto b = std::make_unique<Block>();
    b->loc = loc;
    while (!at(TokKind::RBrace)) {
      if (at(TokKind::End)) fail("unterminated block");
      b->stmts.push_back(statement());
    }
    expect(TokKind::RBrace, "end of block");
    return b;
  }

  /// Wraps a non-block statement in a Block (normalizes if/for/while bodies).
  std::unique_ptr<Block> block_or_stmt() {
    if (at(TokKind::LBrace)) return block();
    auto b = std::make_unique<Block>();
    b->loc = peek().loc;
    b->stmts.push_back(statement());
    return b;
  }

  StmtPtr statement() {
    const SourceLoc loc = peek().loc;
    switch (peek().kind) {
      case TokKind::LBrace:
        return block();
      case TokKind::KwIf: {
        advance();
        expect(TokKind::LParen, "if condition");
        ExprPtr cond = expression();
        expect(TokKind::RParen, "end of if condition");
        auto then_b = block_or_stmt();
        std::unique_ptr<Block> else_b;
        if (match(TokKind::KwElse)) else_b = block_or_stmt();
        auto s = std::make_unique<IfStmt>(std::move(cond), std::move(then_b),
                                          std::move(else_b));
        s->loc = loc;
        return s;
      }
      case TokKind::KwWhile: {
        advance();
        expect(TokKind::LParen, "while condition");
        ExprPtr cond = expression();
        expect(TokKind::RParen, "end of while condition");
        auto s = std::make_unique<WhileStmt>(std::move(cond), block_or_stmt());
        s->loc = loc;
        return s;
      }
      case TokKind::KwFor: {
        advance();
        expect(TokKind::LParen, "for header");
        StmtPtr init;
        if (!at(TokKind::Semi)) {
          init = at_type() ? declaration() : assign_statement();
        }
        expect(TokKind::Semi, "';' after for-init");
        ExprPtr cond;
        if (!at(TokKind::Semi)) cond = expression();
        expect(TokKind::Semi, "';' after for-condition");
        StmtPtr step;
        if (!at(TokKind::RParen)) step = assign_statement();
        expect(TokKind::RParen, "end of for header");
        auto s = std::make_unique<ForStmt>(std::move(init), std::move(cond),
                                           std::move(step), block_or_stmt());
        s->loc = loc;
        return s;
      }
      case TokKind::KwReturn: {
        advance();
        ExprPtr v;
        if (!at(TokKind::Semi)) v = expression();
        expect(TokKind::Semi, "';' after return");
        auto s = std::make_unique<ReturnStmt>(std::move(v));
        s->loc = loc;
        return s;
      }
      case TokKind::KwBreak: {
        advance();
        expect(TokKind::Semi, "';' after break");
        auto s = std::make_unique<BreakStmt>();
        s->loc = loc;
        return s;
      }
      case TokKind::KwContinue: {
        advance();
        expect(TokKind::Semi, "';' after continue");
        auto s = std::make_unique<ContinueStmt>();
        s->loc = loc;
        return s;
      }
      default:
        break;
    }
    if (at_type()) {
      StmtPtr d = declaration();
      expect(TokKind::Semi, "';' after declaration");
      return d;
    }
    StmtPtr s = assign_statement();
    expect(TokKind::Semi, "';' after statement");
    return s;
  }

  StmtPtr declaration() {
    const SourceLoc loc = peek().loc;
    const Type t = type();
    if (t == Type::Void) fail("cannot declare a 'void' variable");
    std::string name = expect(TokKind::Ident, "variable name").text;
    ExprPtr init;
    if (match(TokKind::Assign)) init = expression();
    auto s = std::make_unique<VarDeclStmt>(t, std::move(name), std::move(init));
    s->loc = loc;
    return s;
  }

  /// Assignment statement, ++/-- sugar, compound assignment, or a bare
  /// expression statement (typically a call).
  StmtPtr assign_statement() {
    const SourceLoc loc = peek().loc;
    ExprPtr lhs = expression();

    auto desugar = [&](BinOp op, ExprPtr rhs) -> StmtPtr {
      if (lhs->kind != ExprKind::VarRef && lhs->kind != ExprKind::Index)
        fail("left side of assignment must be a variable or array element");
      ExprPtr lhs_copy = lhs->clone();
      auto s = std::make_unique<AssignStmt>(
          std::move(lhs),
          make_binary(op, std::move(lhs_copy), std::move(rhs)));
      s->loc = loc;
      return s;
    };

    switch (peek().kind) {
      case TokKind::Assign: {
        advance();
        if (lhs->kind != ExprKind::VarRef && lhs->kind != ExprKind::Index)
          fail("left side of assignment must be a variable or array element");
        auto s = std::make_unique<AssignStmt>(std::move(lhs), expression());
        s->loc = loc;
        return s;
      }
      case TokKind::PlusAssign: advance(); return desugar(BinOp::Add, expression());
      case TokKind::MinusAssign: advance(); return desugar(BinOp::Sub, expression());
      case TokKind::StarAssign: advance(); return desugar(BinOp::Mul, expression());
      case TokKind::SlashAssign: advance(); return desugar(BinOp::Div, expression());
      case TokKind::PlusPlus: advance(); return desugar(BinOp::Add, make_int(1));
      case TokKind::MinusMinus: advance(); return desugar(BinOp::Sub, make_int(1));
      default: {
        auto s = std::make_unique<ExprStmt>(std::move(lhs));
        s->loc = loc;
        return s;
      }
    }
  }

  // Expression precedence climbing.
  ExprPtr expression() { return or_expr(); }

  ExprPtr or_expr() {
    ExprPtr e = and_expr();
    while (at(TokKind::PipePipe)) {
      const SourceLoc loc = advance().loc;
      e = make_binary(BinOp::Or, std::move(e), and_expr());
      e->loc = loc;
    }
    return e;
  }

  ExprPtr and_expr() {
    ExprPtr e = equality();
    while (at(TokKind::AmpAmp)) {
      const SourceLoc loc = advance().loc;
      e = make_binary(BinOp::And, std::move(e), equality());
      e->loc = loc;
    }
    return e;
  }

  ExprPtr equality() {
    ExprPtr e = relational();
    while (at(TokKind::EqEq) || at(TokKind::Ne)) {
      const BinOp op = at(TokKind::EqEq) ? BinOp::Eq : BinOp::Ne;
      const SourceLoc loc = advance().loc;
      e = make_binary(op, std::move(e), relational());
      e->loc = loc;
    }
    return e;
  }

  ExprPtr relational() {
    ExprPtr e = additive();
    while (true) {
      BinOp op;
      if (at(TokKind::Lt)) op = BinOp::Lt;
      else if (at(TokKind::Le)) op = BinOp::Le;
      else if (at(TokKind::Gt)) op = BinOp::Gt;
      else if (at(TokKind::Ge)) op = BinOp::Ge;
      else break;
      const SourceLoc loc = advance().loc;
      e = make_binary(op, std::move(e), additive());
      e->loc = loc;
    }
    return e;
  }

  ExprPtr additive() {
    ExprPtr e = multiplicative();
    while (at(TokKind::Plus) || at(TokKind::Minus)) {
      const BinOp op = at(TokKind::Plus) ? BinOp::Add : BinOp::Sub;
      const SourceLoc loc = advance().loc;
      e = make_binary(op, std::move(e), multiplicative());
      e->loc = loc;
    }
    return e;
  }

  ExprPtr multiplicative() {
    ExprPtr e = unary();
    while (at(TokKind::Star) || at(TokKind::Slash) || at(TokKind::Percent)) {
      BinOp op = BinOp::Mul;
      if (at(TokKind::Slash)) op = BinOp::Div;
      else if (at(TokKind::Percent)) op = BinOp::Mod;
      const SourceLoc loc = advance().loc;
      e = make_binary(op, std::move(e), unary());
      e->loc = loc;
    }
    return e;
  }

  ExprPtr unary() {
    if (at(TokKind::Minus)) {
      const SourceLoc loc = advance().loc;
      ExprPtr e = make_unary(UnOp::Neg, unary());
      e->loc = loc;
      return e;
    }
    if (at(TokKind::Bang)) {
      const SourceLoc loc = advance().loc;
      ExprPtr e = make_unary(UnOp::Not, unary());
      e->loc = loc;
      return e;
    }
    return postfix();
  }

  ExprPtr postfix() {
    ExprPtr e = primary();
    while (at(TokKind::LBracket)) {
      const SourceLoc loc = advance().loc;
      ExprPtr idx = expression();
      expect(TokKind::RBracket, "array subscript");
      e = make_index(std::move(e), std::move(idx));
      e->loc = loc;
    }
    return e;
  }

  ExprPtr primary() {
    const Token& t = peek();
    switch (t.kind) {
      case TokKind::IntLit: {
        advance();
        ExprPtr e = make_int(t.int_value);
        e->loc = t.loc;
        return e;
      }
      case TokKind::FloatLit: {
        advance();
        ExprPtr e = make_float(t.float_value);
        e->loc = t.loc;
        return e;
      }
      case TokKind::StrLit: {
        advance();
        ExprPtr e = make_str(t.text);
        e->loc = t.loc;
        return e;
      }
      case TokKind::LParen: {
        advance();
        ExprPtr e = expression();
        expect(TokKind::RParen, "closing parenthesis");
        return e;
      }
      case TokKind::Ident: {
        advance();
        if (match(TokKind::LParen)) {
          std::vector<ExprPtr> args;
          if (!at(TokKind::RParen)) {
            do {
              args.push_back(expression());
            } while (match(TokKind::Comma));
          }
          expect(TokKind::RParen, "end of call arguments");
          ExprPtr e = make_call(t.text, std::move(args));
          e->loc = t.loc;
          return e;
        }
        ExprPtr e = make_var(t.text);
        e->loc = t.loc;
        return e;
      }
      default:
        fail(format("unexpected token %s in expression", tok_kind_name(t.kind)));
    }
  }
};

}  // namespace

std::unique_ptr<Module> parse_module(std::string_view source) {
  return Parser(source).module();
}

std::unique_ptr<Block> parse_snippet(std::string_view source) {
  return Parser(source).snippet();
}

}  // namespace antarex::cir
