//===- lexer/Lexer.h - Surface-language lexer ------------------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tokens and a hand-written lexer for the surface language of Fig. 6 plus
/// the function annotation syntax of §4.9. Comments are `//` to end of
/// line.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_LEXER_LEXER_H
#define FEARLESS_LEXER_LEXER_H

#include "support/Diagnostics.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fearless {

enum class TokenKind {
  // Literals and identifiers.
  Identifier,
  IntLiteral,
  // Keywords.
  KwStruct,
  KwDef,
  KwLet,
  KwSome,
  KwNone,
  KwIn,
  KwElse,
  KwIf,
  KwWhile,
  KwDisconnected,
  KwNew,
  KwIso,
  KwUnit,
  KwInt,
  KwBool,
  KwTrue,
  KwFalse,
  KwIsNone,
  KwSend,
  KwRecv,
  KwConsumes,
  KwPinned,
  KwAfter,
  KwBefore,
  KwResult,
  // Punctuation.
  LBrace,
  RBrace,
  LParen,
  RParen,
  Semicolon,
  Colon,
  Comma,
  Dot,
  Question,
  Tilde,
  Assign,     // =
  EqEq,       // ==
  NotEq,      // !=
  Less,       // <
  LessEq,     // <=
  Greater,    // >
  GreaterEq,  // >=
  Plus,
  Minus,
  Star,
  Slash,
  Percent,
  Bang,       // !
  AmpAmp,     // &&
  PipePipe,   // ||
  EndOfFile,
  Error,
};

/// Returns a human-readable name for a token kind, e.g. "'{'".
const char *tokenKindName(TokenKind Kind);

/// One token: kind, source text slice, decoded integer value, location.
struct Token {
  TokenKind Kind = TokenKind::Error;
  std::string_view Text;
  int64_t IntValue = 0;
  SourceLoc Loc;

  bool is(TokenKind K) const { return Kind == K; }
};

/// A pull lexer over one source buffer: each next() returns the following
/// token, and EndOfFile forever once the source is exhausted. Lexical
/// errors are reported to the diagnostic engine, in source order, as the
/// offending token is pulled, and produce an Error token.
class Lexer {
public:
  Lexer(std::string_view Source, DiagnosticEngine &Diags)
      : Source(Source), Diags(Diags) {}

  Token next();

private:
  void skipTrivia();
  Token make(TokenKind Kind, size_t Start) const;
  SourceLoc locOf(size_t Start) const {
    return SourceLoc{Line, static_cast<uint32_t>(Start - LineStart + 1)};
  }

  std::string_view Source;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
  size_t LineStart = 0; ///< Offset of the first byte of the current line.
  uint32_t Line = 1;
};

/// Lexes \p Source completely into a token vector ending with EndOfFile.
/// Lexical errors are reported to \p Diags and produce Error tokens.
std::vector<Token> lex(std::string_view Source, DiagnosticEngine &Diags);

} // namespace fearless

#endif // FEARLESS_LEXER_LEXER_H
