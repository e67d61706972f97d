//===- sema/Resolver.cpp --------------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "sema/Resolver.h"

#include <set>

using namespace fearless;

namespace {

/// Scope-checking walker for one function body.
class Resolver {
public:
  Resolver(const Program &P, const StructTable &Structs,
           DiagnosticEngine &Diags)
      : P(P), Structs(Structs), Diags(Diags) {}

  bool resolveFunction(const FnDecl &F) {
    Ok = true;
    Scope.clear();
    std::set<Symbol> ParamNames;
    for (const ParamDecl &Param : F.Params) {
      if (!ParamNames.insert(Param.Name).second) {
        error("duplicate parameter '" + P.Names.spelling(Param.Name) + "'",
              Param.Loc);
      }
      checkTypeNames(Param.ParamType, Param.Loc);
      Scope.insert(Param.Name);
    }
    checkTypeNames(F.ReturnType, F.Loc);
    checkAnnotations(F);
    walk(*F.Body);
    return Ok;
  }

private:
  void error(std::string Message, SourceLoc Loc) {
    Diags.error(std::move(Message), Loc);
    Ok = false;
  }

  void checkTypeNames(const Type &Ty, SourceLoc Loc) {
    if (Ty.isRegionful() && !Structs.lookup(Ty.StructName))
      error("unknown struct type '" + P.Names.spelling(Ty.StructName) + "'",
            Loc);
  }

  void checkAnnotations(const FnDecl &F) {
    auto CheckParamRef = [&](Symbol Name, SourceLoc Loc, const char *What) {
      const ParamDecl *Param = F.findParam(Name);
      if (!Param) {
        error(std::string(What) + " names unknown parameter '" +
                  P.Names.spelling(Name) + "'",
              Loc);
        return;
      }
      if (!Param->ParamType.isRegionful())
        error(std::string(What) + " parameter '" + P.Names.spelling(Name) +
                  "' must have a struct type",
              Loc);
    };
    for (Symbol C : F.Consumes)
      CheckParamRef(C, F.Loc, "'consumes'");
    for (Symbol Pn : F.Pinned) {
      CheckParamRef(Pn, F.Loc, "'pinned'");
      if (F.isConsumed(Pn))
        error("parameter '" + P.Names.spelling(Pn) +
                  "' cannot be both pinned and consumed",
              F.Loc);
    }
    auto CheckPath = [&](const AnnotPath &Path) {
      if (Path.IsResult) {
        if (!F.ReturnType.isRegionful())
          error("'after' relates 'result' but the return type is not a "
                "struct type",
                Path.Loc);
        return;
      }
      const ParamDecl *Param = F.findParam(Path.Base);
      if (!Param) {
        error("'after' path names unknown parameter '" +
                  P.Names.spelling(Path.Base) + "'",
              Path.Loc);
        return;
      }
      if (!Param->ParamType.isStruct()) {
        error("'after' path base '" + P.Names.spelling(Path.Base) +
                  "' must have a (non-maybe) struct type",
              Path.Loc);
        return;
      }
      if (!Path.Field.isValid())
        return;
      const StructInfo *Info = Structs.lookup(Param->ParamType.StructName);
      const FieldInfo *Field =
          Info ? Info->findField(Path.Field) : nullptr;
      if (!Field) {
        error("'after' path field '" + P.Names.spelling(Path.Field) +
                  "' is not a field of '" +
                  P.Names.spelling(Param->ParamType.StructName) + "'",
              Path.Loc);
        return;
      }
      if (!Field->Iso)
        error("'after' path field '" + P.Names.spelling(Path.Field) +
                  "' must be an iso field",
              Path.Loc);
      if (F.isConsumed(Path.Base))
        error("'after' path base '" + P.Names.spelling(Path.Base) +
                  "' is consumed",
              Path.Loc);
    };
    for (const AfterRelation &Rel : F.Afters) {
      CheckPath(Rel.Lhs);
      CheckPath(Rel.Rhs);
    }
    for (const AfterRelation &Rel : F.Befores) {
      if (Rel.Lhs.IsResult || Rel.Rhs.IsResult)
        error("'before' relations cannot mention 'result'", Rel.Lhs.Loc);
      CheckPath(Rel.Lhs);
      CheckPath(Rel.Rhs);
    }
  }

  void requireInScope(Symbol Name, SourceLoc Loc) {
    if (!Scope.count(Name))
      error("use of undeclared variable '" + P.Names.spelling(Name) + "'",
            Loc);
  }

  /// Checks \p E; the scoping cases walk their own children, the others
  /// check their node and then descend.
  void walk(const Expr &E) {
    switch (E.kind()) {
    case ExprKind::VarRef:
      requireInScope(cast<VarRefExpr>(E).Name, E.loc());
      break;
    case ExprKind::AssignVar:
      requireInScope(cast<AssignVarExpr>(E).Name, E.loc());
      break;
    case ExprKind::Let: {
      const auto &L = cast<LetExpr>(E);
      if (L.Declared.isValid())
        checkTypeNames(L.Declared, E.loc());
      walk(*L.Init);
      if (Scope.count(L.Name)) {
        error("shadowing of variable '" + P.Names.spelling(L.Name) +
                  "' is not allowed",
              E.loc());
        return;
      }
      Scope.insert(L.Name);
      walk(*L.Body);
      Scope.erase(L.Name);
      return;
    }
    case ExprKind::LetSome: {
      const auto &L = cast<LetSomeExpr>(E);
      walk(*L.Scrutinee);
      if (Scope.count(L.Name)) {
        error("shadowing of variable '" + P.Names.spelling(L.Name) +
                  "' is not allowed",
              E.loc());
        return;
      }
      Scope.insert(L.Name);
      walk(*L.SomeBody);
      Scope.erase(L.Name);
      walk(*L.NoneBody);
      return;
    }
    case ExprKind::IfDisconnected: {
      const auto &I = cast<IfDisconnectedExpr>(E);
      requireInScope(I.VarA, E.loc());
      requireInScope(I.VarB, E.loc());
      break;
    }
    case ExprKind::New: {
      const auto &N = cast<NewExpr>(E);
      const StructInfo *Info = Structs.lookup(N.StructName);
      if (!Info) {
        error("unknown struct '" + P.Names.spelling(N.StructName) + "'",
              E.loc());
        return;
      }
      size_t Required = Info->requiredFieldIndices().size();
      if (N.Args.size() != Info->Fields.size() &&
          N.Args.size() != Required)
        error("'new " + P.Names.spelling(N.StructName) + "' takes " +
                  std::to_string(Required) + " (required fields) or " +
                  std::to_string(Info->Fields.size()) +
                  " (all fields) arguments, got " +
                  std::to_string(N.Args.size()),
              E.loc());
      break;
    }
    case ExprKind::Recv:
      checkTypeNames(cast<RecvExpr>(E).ValueType, E.loc());
      break;
    case ExprKind::Call: {
      const auto &C = cast<CallExpr>(E);
      const FnDecl *Callee = P.findFunction(C.Callee);
      if (!Callee) {
        error("call to unknown function '" + P.Names.spelling(C.Callee) +
                  "'",
              E.loc());
      } else if (Callee->Params.size() != C.Args.size()) {
        error("function '" + P.Names.spelling(C.Callee) + "' takes " +
                  std::to_string(Callee->Params.size()) +
                  " arguments, got " + std::to_string(C.Args.size()),
              E.loc());
      }
      break;
    }
    default:
      break;
    }
    forEachChild(E, [this](const Expr &Child) { walk(Child); });
  }

  const Program &P;
  const StructTable &Structs;
  DiagnosticEngine &Diags;
  std::set<Symbol> Scope;
  bool Ok = true;
};

} // namespace

bool fearless::resolveProgram(const Program &P, const StructTable &Structs,
                              DiagnosticEngine &Diags) {
  bool Ok = true;
  std::set<Symbol> FnNames;
  for (const FnDecl &F : P.Functions) {
    if (!FnNames.insert(F.Name).second) {
      Diags.error("duplicate function '" + P.Names.spelling(F.Name) + "'",
                  F.Loc);
      Ok = false;
    }
    Resolver R(P, Structs, Diags);
    if (!R.resolveFunction(F))
      Ok = false;
  }
  return Ok;
}
