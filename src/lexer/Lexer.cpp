//===- lexer/Lexer.cpp ----------------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "lexer/Lexer.h"

using namespace fearless;

const char *fearless::tokenKindName(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::Identifier:
    return "identifier";
  case TokenKind::IntLiteral:
    return "integer literal";
  case TokenKind::KwStruct:
    return "'struct'";
  case TokenKind::KwDef:
    return "'def'";
  case TokenKind::KwLet:
    return "'let'";
  case TokenKind::KwSome:
    return "'some'";
  case TokenKind::KwNone:
    return "'none'";
  case TokenKind::KwIn:
    return "'in'";
  case TokenKind::KwElse:
    return "'else'";
  case TokenKind::KwIf:
    return "'if'";
  case TokenKind::KwWhile:
    return "'while'";
  case TokenKind::KwDisconnected:
    return "'disconnected'";
  case TokenKind::KwNew:
    return "'new'";
  case TokenKind::KwIso:
    return "'iso'";
  case TokenKind::KwUnit:
    return "'unit'";
  case TokenKind::KwInt:
    return "'int'";
  case TokenKind::KwBool:
    return "'bool'";
  case TokenKind::KwTrue:
    return "'true'";
  case TokenKind::KwFalse:
    return "'false'";
  case TokenKind::KwIsNone:
    return "'is_none'";
  case TokenKind::KwSend:
    return "'send'";
  case TokenKind::KwRecv:
    return "'recv'";
  case TokenKind::KwConsumes:
    return "'consumes'";
  case TokenKind::KwPinned:
    return "'pinned'";
  case TokenKind::KwAfter:
    return "'after'";
  case TokenKind::KwBefore:
    return "'before'";
  case TokenKind::KwResult:
    return "'result'";
  case TokenKind::LBrace:
    return "'{'";
  case TokenKind::RBrace:
    return "'}'";
  case TokenKind::LParen:
    return "'('";
  case TokenKind::RParen:
    return "')'";
  case TokenKind::Semicolon:
    return "';'";
  case TokenKind::Colon:
    return "':'";
  case TokenKind::Comma:
    return "','";
  case TokenKind::Dot:
    return "'.'";
  case TokenKind::Question:
    return "'?'";
  case TokenKind::Tilde:
    return "'~'";
  case TokenKind::Assign:
    return "'='";
  case TokenKind::EqEq:
    return "'=='";
  case TokenKind::NotEq:
    return "'!='";
  case TokenKind::Less:
    return "'<'";
  case TokenKind::LessEq:
    return "'<='";
  case TokenKind::Greater:
    return "'>'";
  case TokenKind::GreaterEq:
    return "'>='";
  case TokenKind::Plus:
    return "'+'";
  case TokenKind::Minus:
    return "'-'";
  case TokenKind::Star:
    return "'*'";
  case TokenKind::Slash:
    return "'/'";
  case TokenKind::Percent:
    return "'%'";
  case TokenKind::Bang:
    return "'!'";
  case TokenKind::AmpAmp:
    return "'&&'";
  case TokenKind::PipePipe:
    return "'||'";
  case TokenKind::EndOfFile:
    return "end of file";
  case TokenKind::Error:
    return "invalid token";
  }
  return "?";
}

namespace {

// Explicit ASCII classes: the C locale's isspace/isalpha/isdigit, without
// the calls.
bool isSpace(char C) {
  return C == ' ' || (C >= '\t' && C <= '\r'); // \t \n \v \f \r
}
bool isDigit(char C) { return C >= '0' && C <= '9'; }
bool isIdentStart(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_';
}
bool isIdentChar(char C) { return isIdentStart(C) || isDigit(C); }

/// The keyword spelled \p Text, or Identifier.
TokenKind keywordKind(std::string_view Text) {
  switch (Text.size()) {
  case 2:
    if (Text == "if")
      return TokenKind::KwIf;
    if (Text == "in")
      return TokenKind::KwIn;
    break;
  case 3:
    if (Text == "let")
      return TokenKind::KwLet;
    if (Text == "new")
      return TokenKind::KwNew;
    if (Text == "int")
      return TokenKind::KwInt;
    if (Text == "def")
      return TokenKind::KwDef;
    if (Text == "iso")
      return TokenKind::KwIso;
    break;
  case 4:
    if (Text == "some")
      return TokenKind::KwSome;
    if (Text == "none")
      return TokenKind::KwNone;
    if (Text == "else")
      return TokenKind::KwElse;
    if (Text == "unit")
      return TokenKind::KwUnit;
    if (Text == "bool")
      return TokenKind::KwBool;
    if (Text == "true")
      return TokenKind::KwTrue;
    if (Text == "send")
      return TokenKind::KwSend;
    if (Text == "recv")
      return TokenKind::KwRecv;
    break;
  case 5:
    if (Text == "while")
      return TokenKind::KwWhile;
    if (Text == "false")
      return TokenKind::KwFalse;
    if (Text == "after")
      return TokenKind::KwAfter;
    break;
  case 6:
    if (Text == "struct")
      return TokenKind::KwStruct;
    if (Text == "result")
      return TokenKind::KwResult;
    if (Text == "pinned")
      return TokenKind::KwPinned;
    if (Text == "before")
      return TokenKind::KwBefore;
    break;
  case 7:
    if (Text == "is_none")
      return TokenKind::KwIsNone;
    break;
  case 8:
    if (Text == "consumes")
      return TokenKind::KwConsumes;
    break;
  case 12:
    if (Text == "disconnected")
      return TokenKind::KwDisconnected;
    break;
  default:
    break;
  }
  return TokenKind::Identifier;
}

} // namespace

void Lexer::skipTrivia() {
  while (Pos < Source.size()) {
    char C = Source[Pos];
    if (C == '\n') {
      ++Line;
      LineStart = ++Pos;
    } else if (isSpace(C)) {
      ++Pos;
    } else if (C == '/' && Pos + 1 < Source.size() &&
               Source[Pos + 1] == '/') {
      size_t Newline = Source.find('\n', Pos + 2);
      Pos = Newline == std::string_view::npos ? Source.size() : Newline;
    } else {
      return;
    }
  }
}

Token Lexer::make(TokenKind Kind, size_t Start) const {
  return Token{Kind, Source.substr(Start, Pos - Start), 0, locOf(Start)};
}

Token Lexer::next() {
  skipTrivia();
  if (Pos >= Source.size())
    return Token{TokenKind::EndOfFile, {}, 0, locOf(Pos)};

  size_t Start = Pos;
  char C = Source[Pos++];
  auto peek = [&] { return Pos < Source.size() ? Source[Pos] : '\0'; };

  if (isIdentStart(C)) {
    while (Pos < Source.size() && isIdentChar(Source[Pos]))
      ++Pos;
    Token Tok = make(TokenKind::Identifier, Start);
    Tok.Kind = keywordKind(Tok.Text);
    return Tok;
  }

  if (isDigit(C)) {
    while (Pos < Source.size() && isDigit(Source[Pos]))
      ++Pos;
    Token Tok = make(TokenKind::IntLiteral, Start);
    int64_t Value = 0;
    for (char Digit : Tok.Text) {
      if (Value > (INT64_MAX - (Digit - '0')) / 10) {
        Diags.error("integer literal overflows 64 bits", Tok.Loc);
        Tok.Kind = TokenKind::Error;
        return Tok;
      }
      Value = Value * 10 + (Digit - '0');
    }
    Tok.IntValue = Value;
    return Tok;
  }

  auto Pair = [&](char Second, TokenKind Long, TokenKind Short) {
    if (peek() != Second)
      return make(Short, Start);
    ++Pos;
    return make(Long, Start);
  };

  switch (C) {
  case '{':
    return make(TokenKind::LBrace, Start);
  case '}':
    return make(TokenKind::RBrace, Start);
  case '(':
    return make(TokenKind::LParen, Start);
  case ')':
    return make(TokenKind::RParen, Start);
  case ';':
    return make(TokenKind::Semicolon, Start);
  case ':':
    return make(TokenKind::Colon, Start);
  case ',':
    return make(TokenKind::Comma, Start);
  case '.':
    return make(TokenKind::Dot, Start);
  case '?':
    return make(TokenKind::Question, Start);
  case '~':
    return make(TokenKind::Tilde, Start);
  case '+':
    return make(TokenKind::Plus, Start);
  case '-':
    return make(TokenKind::Minus, Start);
  case '*':
    return make(TokenKind::Star, Start);
  case '/':
    return make(TokenKind::Slash, Start);
  case '%':
    return make(TokenKind::Percent, Start);
  case '=':
    return Pair('=', TokenKind::EqEq, TokenKind::Assign);
  case '!':
    return Pair('=', TokenKind::NotEq, TokenKind::Bang);
  case '<':
    return Pair('=', TokenKind::LessEq, TokenKind::Less);
  case '>':
    return Pair('=', TokenKind::GreaterEq, TokenKind::Greater);
  case '&':
  case '|':
    if (peek() == C) {
      ++Pos;
      return make(C == '&' ? TokenKind::AmpAmp : TokenKind::PipePipe, Start);
    }
    break;
  default:
    break;
  }

  Token Tok = make(TokenKind::Error, Start);
  Diags.error(std::string("unexpected character '") + C + "'", Tok.Loc);
  return Tok;
}

std::vector<Token> fearless::lex(std::string_view Source,
                                 DiagnosticEngine &Diags) {
  Lexer Lex(Source, Diags);
  std::vector<Token> Tokens;
  do
    Tokens.push_back(Lex.next());
  while (!Tokens.back().is(TokenKind::EndOfFile));
  return Tokens;
}
