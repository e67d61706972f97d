//===- parser/Parser.h - Surface-language parser ---------------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser from a pull lexer's tokens to the AST, built
/// in the Program's arena. Entry point is parseProgram; parseExprString
/// is exposed for tests.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_PARSER_PARSER_H
#define FEARLESS_PARSER_PARSER_H

#include "ast/Ast.h"
#include "support/Diagnostics.h"

#include <optional>
#include <string_view>

namespace fearless {

/// Parses a whole translation unit. Returns nullopt (with diagnostics in
/// \p Diags) on any lexical or syntactic error.
std::optional<Program> parseProgram(std::string_view Source,
                                    DiagnosticEngine &Diags);

/// Parses a single expression using \p Names for interning and \p Nodes
/// for its nodes, which live as long as \p Nodes; test helper.
ExprPtr parseExprString(std::string_view Source, Interner &Names,
                        AstArena &Nodes, DiagnosticEngine &Diags);

} // namespace fearless

#endif // FEARLESS_PARSER_PARSER_H
