//===- parser/Parser.cpp --------------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "parser/Parser.h"

#include "lexer/Lexer.h"

#include <cassert>
#include <vector>

using namespace fearless;

namespace {

/// Recursive-descent parser pulling tokens from a Lexer through a
/// two-token window; no token stream is kept. Nodes go to \p Nodes.
///
/// A source with any lexical error yields every lexical error, in source
/// order, and nothing from the parser; otherwise the output is the
/// parser's. So the lexer reports to the caller's engine as tokens are
/// pulled, the parser's own diagnostics wait in Diags, and finish()
/// drains the lexer before deciding which to keep.
class Parser {
public:
  Parser(std::string_view Source, DiagnosticEngine &LexDiags,
         Interner &Names, AstArena &Nodes)
      : Lex(Source, LexDiags), Names(Names), Nodes(Nodes),
        Cur(Lex.next()) {}

  /// Lexes the rest of the source. Returns false if \p Out then holds an
  /// error (lexical, or from before the parse); otherwise moves the
  /// parser's diagnostics to \p Out.
  bool finish(DiagnosticEngine &Out) {
    while (!Cur.is(TokenKind::EndOfFile))
      advance();
    if (Out.hasErrors())
      return false;
    for (const Diagnostic &D : Diags.diagnostics())
      Out.report(D.Severity, D.Message, D.Loc);
    return true;
  }

  /// Parses declarations until end of file into \p P.
  bool parseDecls(Program &P) {
    while (!peek().is(TokenKind::EndOfFile)) {
      if (peek().is(TokenKind::KwStruct)) {
        auto S = parseStructDecl();
        if (!S)
          return false;
        P.Structs.push_back(std::move(*S));
        continue;
      }
      if (peek().is(TokenKind::KwDef)) {
        auto F = parseFnDecl();
        if (!F)
          return false;
        P.Functions.push_back(std::move(*F));
        continue;
      }
      error("expected 'struct' or 'def' at top level");
      return false;
    }
    P.indexFunctions();
    return true;
  }

  ExprPtr parseSingleExpr() {
    ExprPtr E = parseExpr();
    if (E && !peek().is(TokenKind::EndOfFile)) {
      error("trailing tokens after expression");
      return nullptr;
    }
    return E;
  }

private:
  /// Cap on the parser's recursion: nested expressions, blocks, `let`
  /// bodies (which nest through parseSeqUntilRBrace), unary prefixes and
  /// `else if` links each take one level. The later passes recurse over
  /// the AST these levels build, so the cap keeps them inside an 8 MB
  /// stack too, with margin under AddressSanitizer; docs/LANGUAGE.md
  /// documents it.
  static constexpr size_t MaxDepth = 512;

  /// One level of recursion, held until the scope ends. Converts to
  /// false, after reporting a diagnostic, past MaxDepth.
  class Nesting {
  public:
    explicit Nesting(Parser &P) : P(P), Ok(++P.Depth <= MaxDepth) {
      if (!Ok)
        P.error("nesting exceeds the maximum depth of " +
                std::to_string(MaxDepth));
    }
    ~Nesting() { --P.Depth; }
    Nesting(const Nesting &) = delete;
    Nesting &operator=(const Nesting &) = delete;
    explicit operator bool() const { return Ok; }

  private:
    Parser &P;
    bool Ok;
  };

  //===--------------------------------------------------------------------===
  // Token-stream helpers
  //===--------------------------------------------------------------------===

  const Token &peek() const { return Cur; }
  /// The token after peek(); only `let some` needs it.
  const Token &peekNext() {
    if (!HasNext) {
      Next = Lex.next();
      HasNext = true;
    }
    return Next;
  }
  Token advance() {
    Token Tok = Cur;
    if (HasNext) {
      Cur = Next;
      HasNext = false;
    } else if (!Cur.is(TokenKind::EndOfFile)) {
      Cur = Lex.next();
    }
    return Tok;
  }
  bool consumeIf(TokenKind Kind) {
    if (!peek().is(Kind))
      return false;
    advance();
    return true;
  }
  bool expect(TokenKind Kind) {
    if (consumeIf(Kind))
      return true;
    error(std::string("expected ") + tokenKindName(Kind) + ", found " +
          tokenKindName(peek().Kind));
    return false;
  }
  void error(std::string Message) {
    Diags.error(std::move(Message), peek().Loc);
  }

  Symbol expectIdent() {
    if (!peek().is(TokenKind::Identifier)) {
      error(std::string("expected identifier, found ") +
            tokenKindName(peek().Kind));
      return Symbol{};
    }
    return Names.intern(advance().Text);
  }

  //===--------------------------------------------------------------------===
  // Types
  //===--------------------------------------------------------------------===

  Type parseType() {
    Type Ty;
    switch (peek().Kind) {
    case TokenKind::KwUnit:
      advance();
      Ty = Type::unitTy();
      break;
    case TokenKind::KwInt:
      advance();
      Ty = Type::intTy();
      break;
    case TokenKind::KwBool:
      advance();
      Ty = Type::boolTy();
      break;
    case TokenKind::Identifier:
      Ty = Type::structTy(Names.intern(advance().Text));
      break;
    default:
      error(std::string("expected a type, found ") +
            tokenKindName(peek().Kind));
      return Type::invalid();
    }
    if (consumeIf(TokenKind::Question))
      Ty = Ty.asMaybe();
    return Ty;
  }

  //===--------------------------------------------------------------------===
  // Declarations
  //===--------------------------------------------------------------------===

  std::optional<StructDecl> parseStructDecl() {
    SourceLoc Loc = peek().Loc;
    expect(TokenKind::KwStruct);
    StructDecl S;
    S.Loc = Loc;
    S.Name = expectIdent();
    if (!S.Name.isValid() || !expect(TokenKind::LBrace))
      return std::nullopt;
    while (!peek().is(TokenKind::RBrace)) {
      FieldDecl F;
      F.Loc = peek().Loc;
      F.Iso = consumeIf(TokenKind::KwIso);
      F.Name = expectIdent();
      if (!F.Name.isValid() || !expect(TokenKind::Colon))
        return std::nullopt;
      F.FieldType = parseType();
      if (!F.FieldType.isValid() || !expect(TokenKind::Semicolon))
        return std::nullopt;
      S.Fields.push_back(F);
    }
    expect(TokenKind::RBrace);
    return S;
  }

  std::optional<FnDecl> parseFnDecl() {
    SourceLoc Loc = peek().Loc;
    expect(TokenKind::KwDef);
    FnDecl F;
    F.Loc = Loc;
    F.Name = expectIdent();
    if (!F.Name.isValid() || !expect(TokenKind::LParen))
      return std::nullopt;

    // Parameter groups: `x, y : T, z : U`. Each group is a comma-separated
    // run of names terminated by `: T`.
    while (!peek().is(TokenKind::RParen)) {
      std::vector<std::pair<Symbol, SourceLoc>> GroupNames;
      for (;;) {
        SourceLoc NameLoc = peek().Loc;
        Symbol Name = expectIdent();
        if (!Name.isValid())
          return std::nullopt;
        GroupNames.emplace_back(Name, NameLoc);
        if (peek().is(TokenKind::Colon))
          break;
        if (!expect(TokenKind::Comma))
          return std::nullopt;
      }
      expect(TokenKind::Colon);
      Type GroupType = parseType();
      if (!GroupType.isValid())
        return std::nullopt;
      for (auto &[Name, NameLoc] : GroupNames)
        F.Params.push_back(ParamDecl{Name, GroupType, NameLoc});
      if (!peek().is(TokenKind::RParen) && !expect(TokenKind::Comma))
        return std::nullopt;
    }
    expect(TokenKind::RParen);
    if (!expect(TokenKind::Colon))
      return std::nullopt;
    F.ReturnType = parseType();
    if (!F.ReturnType.isValid())
      return std::nullopt;

    // Annotations: any sequence of `consumes p`, `pinned p`,
    // `after: a ~ b (, a ~ b)*`.
    for (;;) {
      if (consumeIf(TokenKind::KwConsumes)) {
        Symbol P = expectIdent();
        if (!P.isValid())
          return std::nullopt;
        F.Consumes.push_back(P);
        continue;
      }
      if (consumeIf(TokenKind::KwPinned)) {
        Symbol P = expectIdent();
        if (!P.isValid())
          return std::nullopt;
        F.Pinned.push_back(P);
        continue;
      }
      if (peek().is(TokenKind::KwAfter) || peek().is(TokenKind::KwBefore)) {
        bool IsAfter = advance().Kind == TokenKind::KwAfter;
        if (!expect(TokenKind::Colon))
          return std::nullopt;
        for (;;) {
          auto Lhs = parseAnnotPath();
          if (!Lhs || !expect(TokenKind::Tilde))
            return std::nullopt;
          auto Rhs = parseAnnotPath();
          if (!Rhs)
            return std::nullopt;
          (IsAfter ? F.Afters : F.Befores)
              .push_back(AfterRelation{*Lhs, *Rhs});
          if (!consumeIf(TokenKind::Comma))
            break;
        }
        continue;
      }
      break;
    }

    if (!peek().is(TokenKind::LBrace)) {
      error("expected function body block");
      return std::nullopt;
    }
    F.Body = parseBlock();
    if (!F.Body)
      return std::nullopt;
    return F;
  }

  std::optional<AnnotPath> parseAnnotPath() {
    AnnotPath Path;
    Path.Loc = peek().Loc;
    if (consumeIf(TokenKind::KwResult)) {
      Path.IsResult = true;
      return Path;
    }
    Path.Base = expectIdent();
    if (!Path.Base.isValid())
      return std::nullopt;
    if (consumeIf(TokenKind::Dot)) {
      Path.Field = expectIdent();
      if (!Path.Field.isValid())
        return std::nullopt;
    }
    return Path;
  }

  //===--------------------------------------------------------------------===
  // Expressions
  //===--------------------------------------------------------------------===

  /// True for expressions that end in `}` and therefore do not need a `;`
  /// separator in a block.
  static bool isBlockLike(const Expr &E) {
    switch (E.kind()) {
    case ExprKind::If:
    case ExprKind::IfDisconnected:
    case ExprKind::While:
    case ExprKind::Seq:
    case ExprKind::LetSome:
    case ExprKind::Let:
      return true;
    default:
      return false;
    }
  }

  /// Parses `{ e1; e2; ... }`. Bare `let x = e;` binds to the rest of the
  /// block. A trailing `;` (or empty block) yields unit.
  ExprPtr parseBlock() {
    Nesting Level(*this);
    if (!Level)
      return nullptr;
    SourceLoc Loc = peek().Loc;
    if (!expect(TokenKind::LBrace))
      return nullptr;
    ExprPtr Body = parseSeqUntilRBrace(Loc);
    if (!Body)
      return nullptr;
    expect(TokenKind::RBrace);
    return Body;
  }

  /// Parses expressions up to (not consuming) the closing brace.
  ExprPtr parseSeqUntilRBrace(SourceLoc Loc) {
    PendingList Elems(*this);
    bool EndsWithValue = false;
    while (!peek().is(TokenKind::RBrace)) {
      if (peek().is(TokenKind::EndOfFile)) {
        error("unterminated block");
        return nullptr;
      }
      // Bare `let` binds the remainder of the block.
      if (peek().is(TokenKind::KwLet) && !isLetSome()) {
        ExprPtr L = parseBareLet(Loc);
        if (!L)
          return nullptr;
        Elems.push(L);
        EndsWithValue = true;
        break; // parseBareLet consumed the rest of the block.
      }
      ExprPtr E = parseExpr();
      if (!E)
        return nullptr;
      bool BlockLike = isBlockLike(*E);
      Elems.push(E);
      if (consumeIf(TokenKind::Semicolon)) {
        EndsWithValue = false;
        continue;
      }
      if (peek().is(TokenKind::RBrace)) {
        EndsWithValue = true;
        break;
      }
      if (BlockLike) {
        EndsWithValue = false;
        continue;
      }
      error(std::string("expected ';' or '}' after expression, found ") +
            tokenKindName(peek().Kind));
      return nullptr;
    }
    if (!EndsWithValue)
      Elems.push(Nodes.make<UnitLitExpr>(Loc));
    if (Elems.size() == 1)
      return Elems.front();
    return Nodes.make<SeqExpr>(Elems.take(), Loc);
  }

  /// Lookahead: `let some(`.
  bool isLetSome() {
    return peek().is(TokenKind::KwLet) && peekNext().is(TokenKind::KwSome);
  }

  /// Parses `let x = init ...`: either `in <block>` (explicit scope) or
  /// `; rest-of-block` (binds the remainder of the enclosing block).
  ExprPtr parseBareLet(SourceLoc BlockLoc) {
    Nesting Level(*this);
    if (!Level)
      return nullptr;
    SourceLoc Loc = peek().Loc;
    expect(TokenKind::KwLet);
    Symbol Name = expectIdent();
    if (!Name.isValid())
      return nullptr;
    Type Declared;
    if (consumeIf(TokenKind::Colon)) {
      Declared = parseType();
      if (!Declared.isValid())
        return nullptr;
    }
    if (!expect(TokenKind::Assign))
      return nullptr;
    ExprPtr Init = parseExpr();
    if (!Init)
      return nullptr;
    if (consumeIf(TokenKind::KwIn)) {
      ExprPtr Body = parseBlock();
      if (!Body)
        return nullptr;
      ExprPtr Let = Nodes.make<LetExpr>(Name, Declared, Init, Body, Loc);
      // The explicit-scope let may be followed by more block items.
      if (consumeIf(TokenKind::Semicolon) || !peek().is(TokenKind::RBrace)) {
        ExprPtr Rest = parseSeqUntilRBrace(BlockLoc);
        if (!Rest)
          return nullptr;
        Expr *const Elems[] = {Let, Rest};
        return Nodes.make<SeqExpr>(Nodes.copy<Expr *>(Elems), BlockLoc);
      }
      return Let;
    }
    if (!expect(TokenKind::Semicolon))
      return nullptr;
    ExprPtr Body = parseSeqUntilRBrace(BlockLoc);
    if (!Body)
      return nullptr;
    return Nodes.make<LetExpr>(Name, Declared, Init, Body, Loc);
  }

  /// Parses `let some(x) = e in <block> else <block>`.
  ExprPtr parseLetSome() {
    SourceLoc Loc = peek().Loc;
    expect(TokenKind::KwLet);
    expect(TokenKind::KwSome);
    if (!expect(TokenKind::LParen))
      return nullptr;
    Symbol Name = expectIdent();
    if (!Name.isValid() || !expect(TokenKind::RParen) ||
        !expect(TokenKind::Assign))
      return nullptr;
    ExprPtr Scrut = parseExpr();
    if (!Scrut || !expect(TokenKind::KwIn))
      return nullptr;
    ExprPtr SomeBody = parseBlock();
    if (!SomeBody || !expect(TokenKind::KwElse))
      return nullptr;
    ExprPtr NoneBody = parseBlock();
    if (!NoneBody)
      return nullptr;
    return Nodes.make<LetSomeExpr>(Name, Scrut, SomeBody, NoneBody, Loc);
  }

  ExprPtr parseExpr() { return parseAssign(); }

  ExprPtr parseAssign() {
    Nesting Level(*this);
    if (!Level)
      return nullptr;
    // Control-flow expressions first.
    switch (peek().Kind) {
    case TokenKind::KwLet:
      if (isLetSome())
        return parseLetSome();
      // `let x = e in { ... }` as an expression.
      return parseBareLetExprForm();
    case TokenKind::KwIf:
      return parseIf();
    case TokenKind::KwWhile:
      return parseWhile();
    default:
      break;
    }

    ExprPtr Lhs = parseOr();
    if (!Lhs)
      return nullptr;
    if (!peek().is(TokenKind::Assign))
      return Lhs;
    SourceLoc Loc = peek().Loc;
    advance();
    ExprPtr Value = parseAssign();
    if (!Value)
      return nullptr;
    if (auto *Var = dyn_cast<VarRefExpr>(Lhs))
      return Nodes.make<AssignVarExpr>(Var->Name, Value, Loc);
    if (isa<FieldRefExpr>(Lhs)) {
      auto &Field = cast<FieldRefExpr>(*Lhs);
      return Nodes.make<AssignFieldExpr>(Field.Base, Field.Field, Value, Loc);
    }
    Diags.error("left-hand side of '=' must be a variable or field", Loc);
    return nullptr;
  }

  /// `let x = e in { ... }` used in expression position (outside a block
  /// sequence, e.g. as a function body would be unusual; blocks handle the
  /// common case).
  ExprPtr parseBareLetExprForm() {
    SourceLoc Loc = peek().Loc;
    expect(TokenKind::KwLet);
    Symbol Name = expectIdent();
    if (!Name.isValid())
      return nullptr;
    Type Declared;
    if (consumeIf(TokenKind::Colon)) {
      Declared = parseType();
      if (!Declared.isValid())
        return nullptr;
    }
    if (!expect(TokenKind::Assign))
      return nullptr;
    ExprPtr Init = parseExpr();
    if (!Init || !expect(TokenKind::KwIn))
      return nullptr;
    ExprPtr Body = parseBlock();
    if (!Body)
      return nullptr;
    return Nodes.make<LetExpr>(Name, Declared, Init, Body, Loc);
  }

  ExprPtr parseIf() {
    SourceLoc Loc = peek().Loc;
    expect(TokenKind::KwIf);
    if (peek().is(TokenKind::KwDisconnected)) {
      advance();
      if (!expect(TokenKind::LParen))
        return nullptr;
      SourceLoc ALoc = peek().Loc;
      Symbol A = expectIdent();
      if (!A.isValid()) {
        Diags.error("'if disconnected' arguments must be variables", ALoc);
        return nullptr;
      }
      if (!expect(TokenKind::Comma))
        return nullptr;
      SourceLoc BLoc = peek().Loc;
      Symbol B = expectIdent();
      if (!B.isValid()) {
        Diags.error("'if disconnected' arguments must be variables", BLoc);
        return nullptr;
      }
      if (!expect(TokenKind::RParen))
        return nullptr;
      ExprPtr Then = parseBlock();
      if (!Then || !expect(TokenKind::KwElse))
        return nullptr;
      ExprPtr Else = parseBlock();
      if (!Else)
        return nullptr;
      return Nodes.make<IfDisconnectedExpr>(A, B, Then, Else, Loc);
    }
    if (!expect(TokenKind::LParen))
      return nullptr;
    ExprPtr Cond = parseExpr();
    if (!Cond || !expect(TokenKind::RParen))
      return nullptr;
    ExprPtr Then = parseBlock();
    if (!Then)
      return nullptr;
    ExprPtr Else = nullptr;
    if (consumeIf(TokenKind::KwElse)) {
      if (peek().is(TokenKind::KwIf)) {
        Nesting Level(*this);
        if (!Level)
          return nullptr;
        Else = parseIf(); // else-if chain
      } else {
        Else = parseBlock();
      }
      if (!Else)
        return nullptr;
    }
    return Nodes.make<IfExpr>(Cond, Then, Else, Loc);
  }

  ExprPtr parseWhile() {
    SourceLoc Loc = peek().Loc;
    expect(TokenKind::KwWhile);
    if (!expect(TokenKind::LParen))
      return nullptr;
    ExprPtr Cond = parseExpr();
    if (!Cond || !expect(TokenKind::RParen))
      return nullptr;
    ExprPtr Body = parseBlock();
    if (!Body)
      return nullptr;
    return Nodes.make<WhileExpr>(Cond, Body, Loc);
  }

  ExprPtr parseOr() {
    ExprPtr Lhs = parseAnd();
    while (Lhs && peek().is(TokenKind::PipePipe)) {
      SourceLoc Loc = advance().Loc;
      ExprPtr Rhs = parseAnd();
      if (!Rhs)
        return nullptr;
      Lhs = Nodes.make<BinaryExpr>(BinaryOp::Or, Lhs, Rhs, Loc);
    }
    return Lhs;
  }

  ExprPtr parseAnd() {
    ExprPtr Lhs = parseCompare();
    while (Lhs && peek().is(TokenKind::AmpAmp)) {
      SourceLoc Loc = advance().Loc;
      ExprPtr Rhs = parseCompare();
      if (!Rhs)
        return nullptr;
      Lhs = Nodes.make<BinaryExpr>(BinaryOp::And, Lhs, Rhs, Loc);
    }
    return Lhs;
  }

  ExprPtr parseCompare() {
    ExprPtr Lhs = parseAdd();
    if (!Lhs)
      return nullptr;
    BinaryOp Op;
    switch (peek().Kind) {
    case TokenKind::EqEq:
      Op = BinaryOp::Eq;
      break;
    case TokenKind::NotEq:
      Op = BinaryOp::Ne;
      break;
    case TokenKind::Less:
      Op = BinaryOp::Lt;
      break;
    case TokenKind::LessEq:
      Op = BinaryOp::Le;
      break;
    case TokenKind::Greater:
      Op = BinaryOp::Gt;
      break;
    case TokenKind::GreaterEq:
      Op = BinaryOp::Ge;
      break;
    default:
      return Lhs;
    }
    SourceLoc Loc = advance().Loc;
    ExprPtr Rhs = parseAdd();
    if (!Rhs)
      return nullptr;
    return Nodes.make<BinaryExpr>(Op, Lhs, Rhs, Loc);
  }

  ExprPtr parseAdd() {
    ExprPtr Lhs = parseMul();
    while (Lhs && (peek().is(TokenKind::Plus) ||
                   peek().is(TokenKind::Minus))) {
      BinaryOp Op =
          peek().is(TokenKind::Plus) ? BinaryOp::Add : BinaryOp::Sub;
      SourceLoc Loc = advance().Loc;
      ExprPtr Rhs = parseMul();
      if (!Rhs)
        return nullptr;
      Lhs = Nodes.make<BinaryExpr>(Op, Lhs, Rhs, Loc);
    }
    return Lhs;
  }

  ExprPtr parseMul() {
    ExprPtr Lhs = parseUnary();
    while (Lhs &&
           (peek().is(TokenKind::Star) || peek().is(TokenKind::Slash) ||
            peek().is(TokenKind::Percent))) {
      BinaryOp Op = peek().is(TokenKind::Star)    ? BinaryOp::Mul
                    : peek().is(TokenKind::Slash) ? BinaryOp::Div
                                                  : BinaryOp::Mod;
      SourceLoc Loc = advance().Loc;
      ExprPtr Rhs = parseUnary();
      if (!Rhs)
        return nullptr;
      Lhs = Nodes.make<BinaryExpr>(Op, Lhs, Rhs, Loc);
    }
    return Lhs;
  }

  ExprPtr parseUnary() {
    if (!peek().is(TokenKind::Bang) && !peek().is(TokenKind::Minus) &&
        !peek().is(TokenKind::KwSome))
      return parsePostfix();
    Nesting Level(*this);
    if (!Level)
      return nullptr;
    if (peek().is(TokenKind::Bang) || peek().is(TokenKind::Minus)) {
      UnaryOp Op = peek().is(TokenKind::Bang) ? UnaryOp::Not : UnaryOp::Neg;
      SourceLoc Loc = advance().Loc;
      ExprPtr Operand = parseUnary();
      if (!Operand)
        return nullptr;
      return Nodes.make<UnaryExpr>(Op, Operand, Loc);
    }
    SourceLoc Loc = advance().Loc; // `some`
    ExprPtr Operand = parseUnary();
    if (!Operand)
      return nullptr;
    return Nodes.make<SomeExpr>(Operand, Loc);
  }

  ExprPtr parsePostfix() {
    ExprPtr E = parsePrimary();
    while (E) {
      if (consumeIf(TokenKind::Dot)) {
        SourceLoc Loc = peek().Loc;
        Symbol Field = expectIdent();
        if (!Field.isValid())
          return nullptr;
        E = Nodes.make<FieldRefExpr>(E, Field, Loc);
        continue;
      }
      break;
    }
    return E;
  }

  ExprPtr parsePrimary() {
    SourceLoc Loc = peek().Loc;
    switch (peek().Kind) {
    case TokenKind::IntLiteral: {
      int64_t Value = advance().IntValue;
      return Nodes.make<IntLitExpr>(Value, Loc);
    }
    case TokenKind::KwTrue:
      advance();
      return Nodes.make<BoolLitExpr>(true, Loc);
    case TokenKind::KwFalse:
      advance();
      return Nodes.make<BoolLitExpr>(false, Loc);
    case TokenKind::KwUnit:
      advance();
      return Nodes.make<UnitLitExpr>(Loc);
    case TokenKind::KwNone:
      advance();
      return Nodes.make<NoneLitExpr>(Loc);
    case TokenKind::KwNew: {
      advance();
      Symbol Name = expectIdent();
      if (!Name.isValid() || !expect(TokenKind::LParen))
        return nullptr;
      PendingList Args(*this);
      if (!peek().is(TokenKind::RParen)) {
        for (;;) {
          ExprPtr Arg = parseExpr();
          if (!Arg)
            return nullptr;
          Args.push(Arg);
          if (!consumeIf(TokenKind::Comma))
            break;
        }
      }
      if (!expect(TokenKind::RParen))
        return nullptr;
      return Nodes.make<NewExpr>(Name, Args.take(), Loc);
    }
    case TokenKind::KwIsNone: {
      advance();
      if (!expect(TokenKind::LParen))
        return nullptr;
      ExprPtr Operand = parseExpr();
      if (!Operand || !expect(TokenKind::RParen))
        return nullptr;
      return Nodes.make<IsNoneExpr>(Operand, Loc);
    }
    case TokenKind::KwSend: {
      advance();
      if (!expect(TokenKind::LParen))
        return nullptr;
      ExprPtr Operand = parseExpr();
      if (!Operand || !expect(TokenKind::RParen))
        return nullptr;
      return Nodes.make<SendExpr>(Operand, Loc);
    }
    case TokenKind::KwRecv: {
      advance();
      if (!expect(TokenKind::Less))
        return nullptr;
      Type Ty = parseType();
      if (!Ty.isValid() || !expect(TokenKind::Greater) ||
          !expect(TokenKind::LParen) || !expect(TokenKind::RParen))
        return nullptr;
      return Nodes.make<RecvExpr>(Ty, Loc);
    }
    case TokenKind::Identifier: {
      Symbol Name = Names.intern(advance().Text);
      if (consumeIf(TokenKind::LParen)) {
        PendingList Args(*this);
        if (!peek().is(TokenKind::RParen)) {
          for (;;) {
            ExprPtr Arg = parseExpr();
            if (!Arg)
              return nullptr;
            Args.push(Arg);
            if (!consumeIf(TokenKind::Comma))
              break;
          }
        }
        if (!expect(TokenKind::RParen))
          return nullptr;
        return Nodes.make<CallExpr>(Name, Args.take(), Loc);
      }
      return Nodes.make<VarRefExpr>(Name, Loc);
    }
    case TokenKind::LParen: {
      advance();
      ExprPtr E = parseExpr();
      if (!E || !expect(TokenKind::RParen))
        return nullptr;
      return E;
    }
    case TokenKind::LBrace:
      return parseBlock();
    default:
      error(std::string("expected an expression, found ") +
            tokenKindName(peek().Kind));
      return nullptr;
    }
  }

  /// The children of the Seq, New and Call nodes being parsed, innermost
  /// list on top; each moves to the arena as one span with its node.
  std::vector<Expr *> Pending;

  /// One node's run of Pending, popped when the scope ends.
  class PendingList {
  public:
    explicit PendingList(Parser &P) : P(P), Mark(P.Pending.size()) {}
    ~PendingList() { P.Pending.resize(Mark); }
    PendingList(const PendingList &) = delete;
    PendingList &operator=(const PendingList &) = delete;

    void push(Expr *E) { P.Pending.push_back(E); }
    size_t size() const { return P.Pending.size() - Mark; }
    Expr *front() const { return P.Pending[Mark]; }
    /// Copies the run into the arena.
    ExprList take() const {
      return P.Nodes.copy<Expr *>({P.Pending.data() + Mark, size()});
    }

  private:
    Parser &P;
    size_t Mark;
  };

  Lexer Lex;
  Interner &Names;
  AstArena &Nodes;
  DiagnosticEngine Diags; ///< The parser's own, held until finish().
  Token Cur;
  Token Next; ///< Valid iff HasNext.
  bool HasNext = false;
  size_t Depth = 0;
};

} // namespace

std::optional<Program> fearless::parseProgram(std::string_view Source,
                                              DiagnosticEngine &Diags) {
  Program P;
  P.Nodes = AstArena(Source.size());
  Parser TheParser(Source, Diags, P.Names, P.Nodes);
  bool Parsed = TheParser.parseDecls(P);
  if (!TheParser.finish(Diags) || !Parsed)
    return std::nullopt;
  return P;
}

ExprPtr fearless::parseExprString(std::string_view Source, Interner &Names,
                                  AstArena &Nodes, DiagnosticEngine &Diags) {
  Parser TheParser(Source, Diags, Names, Nodes);
  ExprPtr E = TheParser.parseSingleExpr();
  if (!TheParser.finish(Diags))
    return nullptr;
  return E;
}
