//===- analysis/Liveness.cpp ----------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"

using namespace fearless;

void UseSet::merge(const UseSet &Other) {
  Vars.merge(Other.Vars);
  FieldUses.merge(Other.FieldUses);
}

const UseSet &UseCache::uses(const Expr &E) {
  auto It = Cache.find(&E);
  if (It != Cache.end())
    return It->second;
  UseSet Set = compute(E);
  return Cache.emplace(&E, std::move(Set)).first->second;
}

UseSet UseCache::compute(const Expr &E) {
  UseSet Set;
  forEachChild(E, [&](const Expr &Child) { Set.merge(uses(Child)); });
  switch (E.kind()) {
  case ExprKind::VarRef:
    Set.Vars.insert(cast<VarRefExpr>(E).Name);
    break;
  case ExprKind::FieldRef: {
    const auto &F = cast<FieldRefExpr>(E);
    if (const auto *Var = dyn_cast<VarRefExpr>(F.Base))
      Set.FieldUses.insert({Var->Name, F.Field});
    break;
  }
  case ExprKind::AssignVar:
    Set.Vars.insert(cast<AssignVarExpr>(E).Name);
    break;
  case ExprKind::AssignField: {
    const auto &A = cast<AssignFieldExpr>(E);
    if (const auto *Var = dyn_cast<VarRefExpr>(A.Base))
      Set.FieldUses.insert({Var->Name, A.Field});
    break;
  }
  case ExprKind::Let:
    // The bound variable is local; its uses are harmless to keep (no
    // shadowing), but drop them for precision.
    Set.Vars.erase(cast<LetExpr>(E).Name);
    break;
  case ExprKind::LetSome:
    Set.Vars.erase(cast<LetSomeExpr>(E).Name);
    break;
  case ExprKind::IfDisconnected: {
    const auto &I = cast<IfDisconnectedExpr>(E);
    Set.Vars.insert(I.VarA);
    Set.Vars.insert(I.VarB);
    break;
  }
  case ExprKind::Call: {
    const auto &C = cast<CallExpr>(E);
    // A call whose signature tracks `p.f` (after-paths) is a field use of
    // the actual argument bound to p.
    if (const FnDecl *Callee = P.findFunction(C.Callee)) {
      auto FieldUseOfPath = [&](const AnnotPath &Path) {
        if (Path.IsResult || !Path.Field.isValid())
          return;
        for (size_t I = 0; I < Callee->Params.size() && I < C.Args.size();
             ++I) {
          if (Callee->Params[I].Name != Path.Base)
            continue;
          if (const auto *Var = dyn_cast<VarRefExpr>(C.Args[I]))
            Set.FieldUses.insert({Var->Name, Path.Field});
        }
      };
      for (const AfterRelation &Rel : Callee->Afters) {
        FieldUseOfPath(Rel.Lhs);
        FieldUseOfPath(Rel.Rhs);
      }
      for (const AfterRelation &Rel : Callee->Befores) {
        FieldUseOfPath(Rel.Lhs);
        FieldUseOfPath(Rel.Rhs);
      }
    }
    break;
  }
  default:
    break;
  }
  return Set;
}
