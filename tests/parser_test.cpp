//===- tests/parser_test.cpp ----------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "ast/AstPrinter.h"
#include "driver/Driver.h"
#include "parser/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>

using namespace fearless;

namespace {

ExprPtr parseExpr(std::string_view Source, Interner &Names) {
  DiagnosticEngine Diags;
  ExprPtr E = parseExprString(Source, Names, Diags);
  EXPECT_TRUE(E != nullptr) << Diags.renderAll();
  return E;
}

std::string reprint(std::string_view Source) {
  Interner Names;
  ExprPtr E = parseExpr(Source, Names);
  if (!E)
    return "<parse error>";
  return printExpr(*E, Names);
}

TEST(Parser, Precedence) {
  EXPECT_EQ(reprint("1 + 2 * 3"), "(1 + (2 * 3))");
  EXPECT_EQ(reprint("1 * 2 + 3"), "((1 * 2) + 3)");
  EXPECT_EQ(reprint("1 + 2 < 3 + 4"), "((1 + 2) < (3 + 4))");
  EXPECT_EQ(reprint("a && b || c"), "((a && b) || c)");
  EXPECT_EQ(reprint("!a && b"), "(!a && b)");
  EXPECT_EQ(reprint("-1 + 2"), "(-1 + 2)");
}

TEST(Parser, FieldChainsAndAssignment) {
  EXPECT_EQ(reprint("tail.prev.next = hd"), "tail.prev.next = hd");
  EXPECT_EQ(reprint("x = y.f"), "x = y.f");
}

TEST(Parser, SomeAndNone) {
  EXPECT_EQ(reprint("some (hd)"), "some (hd)");
  EXPECT_EQ(reprint("some x.payload"), "some (x.payload)");
  EXPECT_EQ(reprint("l.hd = none"), "l.hd = none");
}

TEST(Parser, BareLetBindsRestOfBlock) {
  Interner Names;
  ExprPtr E = parseExpr("{ let x = 1; let y = 2; x }", Names);
  ASSERT_TRUE(E);
  // Desugars to let x = 1 in (let y = 2 in x).
  ASSERT_EQ(E->kind(), ExprKind::Let);
  const auto &Outer = cast<LetExpr>(*E);
  EXPECT_EQ(Outer.Body->kind(), ExprKind::Let);
}

TEST(Parser, LetWithExplicitScope) {
  Interner Names;
  ExprPtr E = parseExpr("{ let x = 1 in { x + 1 }; 5 }", Names);
  ASSERT_TRUE(E);
  ASSERT_EQ(E->kind(), ExprKind::Seq);
}

TEST(Parser, TrailingSemicolonYieldsUnit) {
  Interner Names;
  ExprPtr E = parseExpr("{ f(); }", Names);
  ASSERT_TRUE(E);
  const auto &Seq = cast<SeqExpr>(*E);
  EXPECT_EQ(Seq.Elems.back()->kind(), ExprKind::UnitLit);
}

TEST(Parser, TypedLetAscription) {
  EXPECT_EQ(reprint("{ let x : sll_node? = none; x }"),
            "let x : sll_node? = none in x");
  EXPECT_EQ(reprint("{ let n : int = 4; n }"), "let n : int = 4 in n");
}

TEST(Parser, LetSome) {
  EXPECT_EQ(reprint("let some(n) = l.hd in { n } else { n2 }"),
            "let some(n) = l.hd in n else n2");
}

TEST(Parser, IfDisconnectedRequiresVariables) {
  Interner Names;
  DiagnosticEngine Diags;
  ExprPtr E =
      parseExprString("if disconnected(a.b, c) { 1 } else { 2 }", Names,
                      Diags);
  EXPECT_EQ(E, nullptr);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(Parser, IfElseChain) {
  EXPECT_EQ(reprint("if (a) { 1 } else if (b) { 2 } else { 3 }"),
            "if (a) 1 else if (b) 2 else 3");
}

TEST(Parser, RecvWithTypeArgument) {
  EXPECT_EQ(reprint("recv<sll_node?>()"), "recv<sll_node?>()");
  EXPECT_EQ(reprint("recv<int>()"), "recv<int>()");
}

TEST(Parser, NewForms) {
  EXPECT_EQ(reprint("new sll()"), "new sll()");
  EXPECT_EQ(reprint("new sll_node(p, l.hd)"), "new sll_node(p, l.hd)");
}

TEST(Parser, ProgramWithAnnotations) {
  DiagnosticEngine Diags;
  auto P = parseProgram(R"(
struct s { iso f : s?; }
def g(a, b : s) : s? consumes b pinned a
    before: a ~ b after: a.f ~ result {
  none
}
)",
                        Diags);
  ASSERT_TRUE(P.has_value()) << Diags.renderAll();
  ASSERT_EQ(P->Functions.size(), 1u);
  const FnDecl &G = P->Functions[0];
  EXPECT_EQ(G.Params.size(), 2u);
  EXPECT_EQ(G.Consumes.size(), 1u);
  EXPECT_EQ(G.Pinned.size(), 1u);
  EXPECT_EQ(G.Befores.size(), 1u);
  ASSERT_EQ(G.Afters.size(), 1u);
  EXPECT_TRUE(G.Afters[0].Rhs.IsResult);
  std::string Printed = printProgram(*P);
  EXPECT_NE(Printed.find("before: a ~ b"), std::string::npos);
  EXPECT_NE(Printed.find("after: a.f ~ result"), std::string::npos);
}

TEST(Parser, ParamGroups) {
  DiagnosticEngine Diags;
  auto P = parseProgram("def f(x, y : int, z : bool) : int { x }", Diags);
  ASSERT_TRUE(P.has_value()) << Diags.renderAll();
  ASSERT_EQ(P->Functions[0].Params.size(), 3u);
  EXPECT_EQ(P->Functions[0].Params[0].ParamType, Type::intTy());
  EXPECT_EQ(P->Functions[0].Params[1].ParamType, Type::intTy());
  EXPECT_EQ(P->Functions[0].Params[2].ParamType, Type::boolTy());
}

TEST(Parser, StructFields) {
  DiagnosticEngine Diags;
  auto P = parseProgram(R"(
struct dll_node {
  iso payload : data;
  next : dll_node;
  prev : dll_node;
}
)",
                        Diags);
  ASSERT_TRUE(P.has_value()) << Diags.renderAll();
  ASSERT_EQ(P->Structs.size(), 1u);
  EXPECT_TRUE(P->Structs[0].Fields[0].Iso);
  EXPECT_FALSE(P->Structs[0].Fields[1].Iso);
}

TEST(Parser, ErrorsAreReported) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(parseProgram("struct {", Diags).has_value());
  EXPECT_TRUE(Diags.hasErrors());

  DiagnosticEngine Diags2;
  Interner Names;
  EXPECT_EQ(parseExprString("1 +", Names, Diags2), nullptr);
  EXPECT_TRUE(Diags2.hasErrors());

  DiagnosticEngine Diags3;
  EXPECT_EQ(parseExprString("(1 = 2) = 3", Names, Diags3), nullptr);
  EXPECT_TRUE(Diags3.hasErrors());
}

TEST(Parser, MissingSemicolonDiagnosed) {
  DiagnosticEngine Diags;
  Interner Names;
  EXPECT_EQ(parseExprString("{ a b }", Names, Diags), nullptr);
  EXPECT_TRUE(Diags.hasErrors());
}

//===----------------------------------------------------------------------===//
// forEachChild
//===----------------------------------------------------------------------===//

using Pos = std::pair<uint32_t, uint32_t>; // (line, column)

/// A node's own source position, or nothing for the nodes whose location
/// is not their own text: a block (its `{`, which for the rest-of-block
/// body of a statement `let` belongs to an enclosing block) and the
/// `unit` the parser appends to a block that ends in `;`.
std::optional<Pos> ownPosition(const Expr &E,
                               const std::vector<std::string> &Lines) {
  SourceLoc L = E.loc();
  if (isa<SeqExpr>(&E))
    return std::nullopt;
  if (isa<UnitLitExpr>(&E) &&
      Lines.at(L.Line - 1).compare(L.Column - 1, 4, "unit") != 0)
    return std::nullopt;
  return Pos{L.Line, L.Column};
}

/// Walks \p E with forEachChild alone, recording each kind met and
/// checking that sibling subtrees start in source order. Returns where
/// E's subtree starts: the earliest own position in it.
std::optional<Pos> walkChildren(const Expr &E,
                                const std::vector<std::string> &Lines,
                                std::vector<bool> &Seen) {
  Seen.at(static_cast<size_t>(E.kind())) = true;
  std::optional<Pos> Start = ownPosition(E, Lines);
  std::optional<Pos> Prev;
  forEachChild(E, [&](const Expr &Child) {
    std::optional<Pos> S = walkChildren(Child, Lines, Seen);
    if (!S)
      return;
    EXPECT_TRUE(!Prev || *Prev <= *S)
        << "children of the node at " << toString(E.loc())
        << " out of source order: " << toString(Child.loc());
    Prev = S;
    Start = Start ? std::min(*Start, *S) : *S;
  });
  return Start;
}

TEST(ForEachChild, VisitsEveryKindInSourceOrder) {
  std::vector<std::string> Sources = {
      programs::SllSuite,       programs::DllSuite, programs::RedBlackTree,
      programs::MessagePassing, programs::BitTrie,  programs::Extras,
  };
  for (const char *Dir : {FEARLESS_EXAMPLES_DIR, FEARLESS_FIXTURES_DIR}) {
    std::vector<std::filesystem::path> Files;
    for (const auto &Entry : std::filesystem::directory_iterator(Dir))
      if (Entry.path().extension() == ".fls")
        Files.push_back(Entry.path());
    ASSERT_FALSE(Files.empty()) << Dir;
    std::sort(Files.begin(), Files.end());
    for (const auto &Path : Files) {
      std::ifstream In(Path, std::ios::binary);
      Sources.emplace_back(std::istreambuf_iterator<char>(In),
                           std::istreambuf_iterator<char>());
    }
  }

  constexpr size_t NumKinds = static_cast<size_t>(ExprKind::Unary) + 1;
  ASSERT_EQ(NumKinds, 22u);
  std::vector<bool> Seen(NumKinds, false);
  for (const std::string &Source : Sources) {
    DiagnosticEngine Diags;
    std::optional<Program> P = parseProgram(Source, Diags);
    ASSERT_TRUE(P.has_value()) << Diags.renderAll();
    std::vector<std::string> Lines;
    size_t From = 0;
    for (size_t To; (To = Source.find('\n', From)) != std::string::npos;
         From = To + 1)
      Lines.push_back(Source.substr(From, To - From));
    Lines.push_back(Source.substr(From));
    for (const FnDecl &F : P->Functions)
      walkChildren(*F.Body, Lines, Seen);
  }
  for (size_t K = 0; K < NumKinds; ++K)
    EXPECT_TRUE(Seen[K]) << "no expression of kind " << K;
}

} // namespace
