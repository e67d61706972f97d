//===- tests/lexer_test.cpp -----------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "lexer/Lexer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

using namespace fearless;

namespace {

std::vector<TokenKind> kindsOf(std::string_view Source) {
  DiagnosticEngine Diags;
  std::vector<Token> Tokens = lex(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.renderAll();
  std::vector<TokenKind> Kinds;
  for (const Token &T : Tokens)
    Kinds.push_back(T.Kind);
  return Kinds;
}

TEST(Lexer, Keywords) {
  auto Kinds = kindsOf("struct def let some none iso if while");
  std::vector<TokenKind> Want = {
      TokenKind::KwStruct, TokenKind::KwDef,  TokenKind::KwLet,
      TokenKind::KwSome,   TokenKind::KwNone, TokenKind::KwIso,
      TokenKind::KwIf,     TokenKind::KwWhile, TokenKind::EndOfFile};
  EXPECT_EQ(Kinds, Want);
}

TEST(Lexer, IdentifiersVsKeywords) {
  auto Kinds = kindsOf("iso isolated some something");
  std::vector<TokenKind> Want = {TokenKind::KwIso, TokenKind::Identifier,
                                 TokenKind::KwSome, TokenKind::Identifier,
                                 TokenKind::EndOfFile};
  EXPECT_EQ(Kinds, Want);
}

TEST(Lexer, Operators) {
  auto Kinds = kindsOf("== != <= >= < > = ! && || + - * / % ~ ?");
  std::vector<TokenKind> Want = {
      TokenKind::EqEq,    TokenKind::NotEq,    TokenKind::LessEq,
      TokenKind::GreaterEq, TokenKind::Less,   TokenKind::Greater,
      TokenKind::Assign,  TokenKind::Bang,     TokenKind::AmpAmp,
      TokenKind::PipePipe, TokenKind::Plus,    TokenKind::Minus,
      TokenKind::Star,    TokenKind::Slash,    TokenKind::Percent,
      TokenKind::Tilde,   TokenKind::Question, TokenKind::EndOfFile};
  EXPECT_EQ(Kinds, Want);
}

TEST(Lexer, IntLiteralValue) {
  DiagnosticEngine Diags;
  std::vector<Token> Tokens = lex("12345", Diags);
  ASSERT_EQ(Tokens.size(), 2u);
  EXPECT_EQ(Tokens[0].IntValue, 12345);
}

TEST(Lexer, IntLiteralOverflowDiagnosed) {
  DiagnosticEngine Diags;
  lex("99999999999999999999999999", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(Lexer, CommentsAreSkipped) {
  auto Kinds = kindsOf("a // comment to end of line\nb");
  std::vector<TokenKind> Want = {TokenKind::Identifier,
                                 TokenKind::Identifier,
                                 TokenKind::EndOfFile};
  EXPECT_EQ(Kinds, Want);
}

TEST(Lexer, LocationsTrackLinesAndColumns) {
  DiagnosticEngine Diags;
  std::vector<Token> Tokens = lex("a\n  b", Diags);
  ASSERT_GE(Tokens.size(), 3u);
  EXPECT_EQ(Tokens[0].Loc.Line, 1u);
  EXPECT_EQ(Tokens[0].Loc.Column, 1u);
  EXPECT_EQ(Tokens[1].Loc.Line, 2u);
  EXPECT_EQ(Tokens[1].Loc.Column, 3u);
}

TEST(Lexer, UnknownCharacterDiagnosed) {
  DiagnosticEngine Diags;
  lex("a @ b", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(Lexer, FigureFiveSnippetLexes) {
  auto Kinds = kindsOf("if disconnected(tail,hd) { l.hd = some (hd); }");
  EXPECT_EQ(Kinds.front(), TokenKind::KwIf);
  EXPECT_EQ(Kinds[1], TokenKind::KwDisconnected);
  EXPECT_EQ(Kinds.back(), TokenKind::EndOfFile);
}

TEST(Lexer, EveryKeywordLexesFromItsSpelling) {
  for (int K = static_cast<int>(TokenKind::KwStruct);
       K <= static_cast<int>(TokenKind::KwResult); ++K) {
    auto Kind = static_cast<TokenKind>(K);
    std::string Quoted = tokenKindName(Kind); // e.g. "'struct'"
    std::string Spelling = Quoted.substr(1, Quoted.size() - 2);
    std::vector<TokenKind> Want = {Kind, TokenKind::EndOfFile};
    EXPECT_EQ(kindsOf(Spelling), Want) << Spelling;
  }
}

TEST(Lexer, NearKeywordsAreIdentifiers) {
  for (const char *Text :
       {"iff", "in_", "is_non", "disconnectedx", "_", "struct1"}) {
    DiagnosticEngine Diags;
    std::vector<Token> Tokens = lex(Text, Diags);
    ASSERT_EQ(Tokens.size(), 2u) << Text;
    EXPECT_EQ(Tokens[0].Kind, TokenKind::Identifier) << Text;
    EXPECT_EQ(Tokens[0].Text, Text);
  }
}

TEST(Lexer, LocationsAfterEveryKindOfSpace) {
  // \t, \v, \f and \r are one column each; only \n starts a line.
  DiagnosticEngine Diags;
  std::vector<Token> Tokens = lex("a\tb\r\nc\vd\fe\n\n  f", Diags);
  ASSERT_FALSE(Diags.hasErrors());
  std::vector<std::pair<uint32_t, uint32_t>> Want = {
      {1, 1}, {1, 3}, {2, 1}, {2, 3}, {2, 5}, {4, 3}, {4, 4}};
  ASSERT_EQ(Tokens.size(), Want.size());
  for (size_t I = 0; I < Want.size(); ++I) {
    EXPECT_EQ(Tokens[I].Loc.Line, Want[I].first) << I;
    EXPECT_EQ(Tokens[I].Loc.Column, Want[I].second) << I;
  }
}

TEST(Lexer, CommentAtEndOfFileWithoutNewline) {
  std::vector<TokenKind> Want = {TokenKind::Identifier,
                                 TokenKind::EndOfFile};
  EXPECT_EQ(kindsOf("a // no newline"), Want);
  EXPECT_EQ(kindsOf("a //"), Want);
  DiagnosticEngine Diags;
  std::vector<Token> Tokens = lex("a\n// last", Diags);
  ASSERT_EQ(Tokens.size(), 2u);
  EXPECT_EQ(Tokens[1].Loc.Line, 2u);
  EXPECT_EQ(Tokens[1].Loc.Column, 8u);
}

TEST(Lexer, IntLiteralBoundary) {
  DiagnosticEngine Diags;
  std::vector<Token> Tokens = lex("9223372036854775807", Diags);
  EXPECT_FALSE(Diags.hasErrors());
  ASSERT_EQ(Tokens[0].Kind, TokenKind::IntLiteral);
  EXPECT_EQ(Tokens[0].IntValue, INT64_MAX);

  DiagnosticEngine Over;
  Tokens = lex("x\n  9223372036854775808 y", Over);
  ASSERT_EQ(Over.errorCount(), 1u);
  EXPECT_EQ(Over.diagnostics()[0].render(),
            "error: integer literal overflows 64 bits at 2:3");
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Error);
  EXPECT_EQ(Tokens[2].Kind, TokenKind::Identifier);
}

TEST(Lexer, LoneAmpersandAndPipeDiagnosed) {
  DiagnosticEngine Diags;
  std::vector<Token> Tokens = lex("a & b | c && d || e", Diags);
  ASSERT_EQ(Diags.errorCount(), 2u);
  EXPECT_EQ(Diags.diagnostics()[0].render(),
            "error: unexpected character '&' at 1:3");
  EXPECT_EQ(Diags.diagnostics()[1].render(),
            "error: unexpected character '|' at 1:7");
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Error);
  EXPECT_EQ(Tokens[5].Kind, TokenKind::AmpAmp);
  EXPECT_EQ(Tokens[7].Kind, TokenKind::PipePipe);
}

TEST(Lexer, PullLexerEndsWithEndOfFileForever) {
  DiagnosticEngine Diags;
  Lexer Lex("a", Diags);
  EXPECT_EQ(Lex.next().Kind, TokenKind::Identifier);
  for (int I = 0; I < 3; ++I) {
    Token Tok = Lex.next();
    EXPECT_EQ(Tok.Kind, TokenKind::EndOfFile);
    EXPECT_EQ(Tok.Loc.Column, 2u);
  }
}

} // namespace
