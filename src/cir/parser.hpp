// Recursive-descent parser for the ANTAREX mini-C language.
//
// Grammar (EBNF, whitespace/comments elided):
//   module    := function*
//   function  := type IDENT '(' [param {',' param}] ')' block
//   param     := type IDENT
//   type      := ('int'|'double'|'float'|'void'|'const'? 'char') '*'?
//   block     := '{' stmt* '}'
//   stmt      := block | if | for | while
//              | 'return' [expr] ';' | 'break' ';' | 'continue' ';'
//              | decl ';' | assign-or-expr ';'
//   decl      := type IDENT ['=' expr]
//   if        := 'if' '(' expr ')' stmt ['else' stmt]   (bodies normalized to blocks)
//   for       := 'for' '(' [decl|assign] ';' [expr] ';' [assign] ')' stmt
//   while     := 'while' '(' expr ')' stmt
//   assign    := lvalue ('='|'+='|'-='|'*='|'/=') expr | lvalue '++' | lvalue '--'
//   expr      := or  (C precedence: || < && < ==,!= < <,<=,>,>= < +,- < *,/,% < unary)
//
// Not supported (rejected with a diagnostic): pointers beyond 1-D array
// parameters, structs, casts, function pointers, side effects inside
// expressions (++ only as a statement).
#pragma once

#include <memory>
#include <string_view>

#include "cir/ast.hpp"

namespace antarex::cir {

/// Parses a full translation unit. Throws antarex::Error on syntax errors.
std::unique_ptr<Module> parse_module(std::string_view source);

/// Parses a sequence of statements into a block (used when aspects insert
/// code snippets, e.g. Figure 2's probe injection).
std::unique_ptr<Block> parse_snippet(std::string_view source);

}  // namespace antarex::cir
