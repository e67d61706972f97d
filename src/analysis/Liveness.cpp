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
  switch (E.kind()) {
  case ExprKind::IntLit:
  case ExprKind::BoolLit:
  case ExprKind::UnitLit:
  case ExprKind::NoneLit:
  case ExprKind::Recv:
    break;
  case ExprKind::VarRef:
    Set.Vars.insert(cast<VarRefExpr>(E).Name);
    break;
  case ExprKind::FieldRef: {
    const auto &F = cast<FieldRefExpr>(E);
    Set.merge(uses(*F.Base));
    if (const auto *Var = dyn_cast<VarRefExpr>(F.Base.get()))
      Set.FieldUses.insert({Var->Name, F.Field});
    break;
  }
  case ExprKind::AssignVar: {
    const auto &A = cast<AssignVarExpr>(E);
    Set.Vars.insert(A.Name);
    Set.merge(uses(*A.Value));
    break;
  }
  case ExprKind::AssignField: {
    const auto &A = cast<AssignFieldExpr>(E);
    Set.merge(uses(*A.Base));
    Set.merge(uses(*A.Value));
    if (const auto *Var = dyn_cast<VarRefExpr>(A.Base.get()))
      Set.FieldUses.insert({Var->Name, A.Field});
    break;
  }
  case ExprKind::Let: {
    const auto &L = cast<LetExpr>(E);
    Set.merge(uses(*L.Init));
    Set.merge(uses(*L.Body));
    // The bound variable is local; its uses are harmless to keep (no
    // shadowing), but drop them for precision.
    Set.Vars.erase(L.Name);
    break;
  }
  case ExprKind::LetSome: {
    const auto &L = cast<LetSomeExpr>(E);
    Set.merge(uses(*L.Scrutinee));
    Set.merge(uses(*L.SomeBody));
    Set.merge(uses(*L.NoneBody));
    Set.Vars.erase(L.Name);
    break;
  }
  case ExprKind::If: {
    const auto &I = cast<IfExpr>(E);
    Set.merge(uses(*I.Cond));
    Set.merge(uses(*I.Then));
    if (I.Else)
      Set.merge(uses(*I.Else));
    break;
  }
  case ExprKind::IfDisconnected: {
    const auto &I = cast<IfDisconnectedExpr>(E);
    Set.Vars.insert(I.VarA);
    Set.Vars.insert(I.VarB);
    Set.merge(uses(*I.Then));
    Set.merge(uses(*I.Else));
    break;
  }
  case ExprKind::While: {
    const auto &W = cast<WhileExpr>(E);
    Set.merge(uses(*W.Cond));
    Set.merge(uses(*W.Body));
    break;
  }
  case ExprKind::Seq:
    for (const ExprPtr &Elem : cast<SeqExpr>(E).Elems)
      Set.merge(uses(*Elem));
    break;
  case ExprKind::New:
    for (const ExprPtr &Arg : cast<NewExpr>(E).Args)
      Set.merge(uses(*Arg));
    break;
  case ExprKind::SomeExpr:
    Set.merge(uses(*cast<SomeExpr>(E).Operand));
    break;
  case ExprKind::IsNone:
    Set.merge(uses(*cast<IsNoneExpr>(E).Operand));
    break;
  case ExprKind::Send:
    Set.merge(uses(*cast<SendExpr>(E).Operand));
    break;
  case ExprKind::Call: {
    const auto &C = cast<CallExpr>(E);
    for (const ExprPtr &Arg : C.Args)
      Set.merge(uses(*Arg));
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
          if (const auto *Var = dyn_cast<VarRefExpr>(C.Args[I].get()))
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
  case ExprKind::Binary: {
    const auto &B = cast<BinaryExpr>(E);
    Set.merge(uses(*B.Lhs));
    Set.merge(uses(*B.Rhs));
    break;
  }
  case ExprKind::Unary:
    Set.merge(uses(*cast<UnaryExpr>(E).Operand));
    break;
  }
  return Set;
}
