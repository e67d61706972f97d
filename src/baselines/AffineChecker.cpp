//===- baselines/AffineChecker.cpp ----------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "baselines/AffineChecker.h"

#include <set>

using namespace fearless;

namespace {

/// Move-discipline walker: owning variables are consumed by moves.
class AffineWalker {
public:
  AffineWalker(const Program &P, const StructTable &Structs,
               BaselineResult &Result)
      : P(P), Structs(Structs), Result(Result) {}

  void walkFunction(const FnDecl &F) {
    Moved.clear();
    Owned.clear();
    for (const ParamDecl &Param : F.Params)
      if (Param.ParamType.isRegionful())
        Owned.insert(Param.Name);
    walk(*F.Body, /*Consuming=*/false);
  }

private:
  void error(std::string Message, SourceLoc Loc) {
    Result.Accepted = false;
    Result.Errors.push_back(
        Diagnostic{DiagnosticSeverity::Error, std::move(Message), Loc});
  }

  void useVar(Symbol Name, bool Consuming, SourceLoc Loc) {
    if (!Owned.count(Name))
      return;
    if (Moved.count(Name)) {
      error("affine ownership: use of moved variable '" +
                P.Names.spelling(Name) + "'",
            Loc);
      return;
    }
    if (Consuming)
      Moved.insert(Name);
  }

  /// Walks \p E; Consuming marks value positions that take ownership
  /// (field stores, sends, new initializers).
  void walk(const Expr &E, bool Consuming) {
    switch (E.kind()) {
    case ExprKind::VarRef:
      useVar(cast<VarRefExpr>(E).Name, Consuming, E.loc());
      return;
    case ExprKind::AssignVar: {
      const auto &A = cast<AssignVarExpr>(E);
      walk(*A.Value, /*Consuming=*/true);
      Moved.erase(A.Name); // reassignment refreshes ownership
      return;
    }
    case ExprKind::AssignField: {
      const auto &A = cast<AssignFieldExpr>(E);
      walk(*A.Base, /*Consuming=*/false);
      walk(*A.Value, /*Consuming=*/true);
      return;
    }
    case ExprKind::Let: {
      const auto &L = cast<LetExpr>(E);
      walk(*L.Init, /*Consuming=*/false); // binding borrows the place
      Owned.insert(L.Name);
      walk(*L.Body, Consuming);
      Owned.erase(L.Name);
      Moved.erase(L.Name);
      return;
    }
    case ExprKind::LetSome: {
      const auto &L = cast<LetSomeExpr>(E);
      walk(*L.Scrutinee, /*Consuming=*/false);
      Owned.insert(L.Name);
      auto SavedMoved = Moved;
      walk(*L.SomeBody, Consuming);
      Owned.erase(L.Name);
      Moved = std::move(SavedMoved);
      walk(*L.NoneBody, Consuming);
      return;
    }
    case ExprKind::If: {
      const auto &I = cast<IfExpr>(E);
      walk(*I.Cond, /*Consuming=*/false);
      auto SavedMoved = Moved;
      walk(*I.Then, Consuming);
      auto ThenMoved = Moved;
      Moved = SavedMoved;
      if (I.Else)
        walk(*I.Else, Consuming);
      // Conservative join: moved in either branch is moved.
      Moved.insert(ThenMoved.begin(), ThenMoved.end());
      return;
    }
    case ExprKind::Seq: {
      const auto &Sq = cast<SeqExpr>(E);
      for (size_t I = 0; I < Sq.Elems.size(); ++I)
        walk(*Sq.Elems[I],
             Consuming && I + 1 == Sq.Elems.size());
      return;
    }
    case ExprKind::IfDisconnected:
      error("'if disconnected' is not expressible in an affine "
            "tree-of-objects system",
            E.loc());
      [[fallthrough]];
    case ExprKind::SomeExpr:
      break; // The children are in E's own position.
    case ExprKind::New:
    case ExprKind::Send:
      Consuming = true;
      break;
    default:
      // Borrowing positions: field bases, loop parts, is_none and operator
      // operands, and call arguments. Without lifetime syntax in this
      // surface language, calls are modeled as borrowing (Rust's &mut):
      // arguments stay usable.
      Consuming = false;
      break;
    }
    forEachChild(E, [&](const Expr &Child) { walk(Child, Consuming); });
  }

  const Program &P;
  const StructTable &Structs;
  BaselineResult &Result;
  std::set<Symbol> Owned;
  std::set<Symbol> Moved;
};

} // namespace

BaselineResult fearless::affineCheckStruct(const Program &P,
                                           const StructTable &Structs,
                                           const StructDecl &S) {
  (void)Structs;
  BaselineResult Result;
  for (const FieldDecl &F : S.Fields) {
    if (!F.FieldType.isRegionful() || F.Iso)
      continue;
    Result.Accepted = false;
    Result.Errors.push_back(Diagnostic{
        DiagnosticSeverity::Error,
        "affine tree-of-objects: field '" + P.Names.spelling(F.Name) +
            "' of struct '" + P.Names.spelling(S.Name) +
            "' is an aliasing (non-owning) reference, which has no safe "
            "encoding",
        F.Loc});
  }
  return Result;
}

BaselineResult fearless::affineCheckFunction(const Program &P,
                                             const StructTable &Structs,
                                             const FnDecl &F) {
  BaselineResult Result;
  AffineWalker Walker(P, Structs, Result);
  Walker.walkFunction(F);
  return Result;
}

BaselineResult fearless::affineCheckProgram(const Program &P,
                                            const StructTable &Structs) {
  BaselineResult Result;
  auto Absorb = [&](BaselineResult One) {
    if (!One.Accepted)
      Result.Accepted = false;
    for (Diagnostic &D : One.Errors)
      Result.Errors.push_back(std::move(D));
  };
  for (const StructDecl &S : P.Structs)
    Absorb(affineCheckStruct(P, Structs, S));
  for (const FnDecl &F : P.Functions)
    Absorb(affineCheckFunction(P, Structs, F));
  return Result;
}
