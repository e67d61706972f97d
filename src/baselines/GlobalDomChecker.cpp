//===- baselines/GlobalDomChecker.cpp -------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "baselines/GlobalDomChecker.h"

using namespace fearless;

namespace {

/// Expression walker enforcing the no-focus global-domination rules.
class GlobalDomWalker {
public:
  GlobalDomWalker(const Program &P, const StructTable &Structs,
                  BaselineResult &Result)
      : P(P), Structs(Structs), Result(Result) {}

  void walkFunction(const FnDecl &F) {
    VarTypes.clear();
    for (const ParamDecl &Param : F.Params)
      VarTypes[Param.Name] = Param.ParamType;
    walk(*F.Body);
  }

private:
  void error(std::string Message, SourceLoc Loc) {
    Result.Accepted = false;
    Result.Errors.push_back(
        Diagnostic{DiagnosticSeverity::Error, std::move(Message), Loc});
  }

  const FieldInfo *fieldOf(const Expr &Base, Symbol Field) {
    Type Ty = typeOf(Base);
    if (!Ty.isStruct())
      return nullptr;
    const StructInfo *Info = Structs.lookup(Ty.StructName);
    return Info ? Info->findField(Field) : nullptr;
  }

  /// Best-effort type reconstruction (enough for field lookups).
  Type typeOf(const Expr &E) {
    switch (E.kind()) {
    case ExprKind::VarRef: {
      auto It = VarTypes.find(cast<VarRefExpr>(E).Name);
      return It == VarTypes.end() ? Type::invalid() : It->second;
    }
    case ExprKind::FieldRef: {
      const auto &F = cast<FieldRefExpr>(E);
      const FieldInfo *Field = fieldOf(*F.Base, F.Field);
      return Field ? Field->FieldType : Type::invalid();
    }
    case ExprKind::New:
      return Type::structTy(cast<NewExpr>(E).StructName);
    case ExprKind::SomeExpr: {
      Type Inner = typeOf(*cast<SomeExpr>(E).Operand);
      return Inner.isValid() && !Inner.isMaybe() ? Inner.asMaybe()
                                                 : Type::invalid();
    }
    case ExprKind::Recv:
      return cast<RecvExpr>(E).ValueType;
    case ExprKind::Call: {
      const FnDecl *Callee = P.findFunction(cast<CallExpr>(E).Callee);
      return Callee ? Callee->ReturnType : Type::invalid();
    }
    default:
      return Type::invalid();
    }
  }

  /// True for values that carry no pre-existing alias: the only shapes a
  /// global-domination system may store into an iso field.
  static bool isFreshProducer(const Expr &E) {
    switch (E.kind()) {
    case ExprKind::New:
    case ExprKind::NoneLit:
    case ExprKind::Recv:
    case ExprKind::Call:
      return true;
    case ExprKind::SomeExpr:
      return isFreshProducer(*cast<SomeExpr>(E).Operand);
    default:
      return false;
    }
  }

  /// Checks \p E; the binding cases walk their own children, the others
  /// check their node and then descend.
  void walk(const Expr &E) {
    switch (E.kind()) {
    case ExprKind::FieldRef: {
      const auto &F = cast<FieldRefExpr>(E);
      const FieldInfo *Field = fieldOf(*F.Base, F.Field);
      if (Field && Field->Iso)
        error("global domination: reading iso field '" +
                  P.Names.spelling(F.Field) +
                  "' would create an alias; a destructive read or swap "
                  "primitive is required",
              E.loc());
      break;
    }
    case ExprKind::AssignField: {
      const auto &A = cast<AssignFieldExpr>(E);
      const FieldInfo *Field = fieldOf(*A.Base, A.Field);
      if (Field && Field->Iso && !isFreshProducer(*A.Value))
        error("global domination: iso field '" +
                  P.Names.spelling(A.Field) +
                  "' may only store freshly produced values (the "
                  "right-hand side keeps an alias otherwise)",
              E.loc());
      break;
    }
    case ExprKind::IfDisconnected:
      error("'if disconnected' is not expressible without the tracked "
            "region graphs of this paper",
            E.loc());
      break;
    case ExprKind::Let: {
      const auto &L = cast<LetExpr>(E);
      walk(*L.Init);
      Type InitTy = typeOf(*L.Init);
      if (InitTy.isValid())
        VarTypes[L.Name] = InitTy;
      walk(*L.Body);
      VarTypes.erase(L.Name);
      return;
    }
    case ExprKind::LetSome: {
      const auto &L = cast<LetSomeExpr>(E);
      walk(*L.Scrutinee);
      Type ScrutTy = typeOf(*L.Scrutinee);
      if (ScrutTy.isValid() && ScrutTy.isMaybe())
        VarTypes[L.Name] = ScrutTy.stripMaybe();
      walk(*L.SomeBody);
      VarTypes.erase(L.Name);
      walk(*L.NoneBody);
      return;
    }
    default:
      break;
    }
    forEachChild(E, [this](const Expr &Child) { walk(Child); });
  }

  const Program &P;
  const StructTable &Structs;
  BaselineResult &Result;
  std::map<Symbol, Type> VarTypes;
};

} // namespace

BaselineResult fearless::globalDomCheckStruct(const Program &P,
                                              const StructTable &Structs,
                                              const StructDecl &S) {
  // Global-domination systems represent arbitrary intra-"box" aliasing;
  // every struct declaration is admissible.
  (void)P;
  (void)Structs;
  (void)S;
  return BaselineResult{};
}

BaselineResult fearless::globalDomCheckFunction(const Program &P,
                                                const StructTable &Structs,
                                                const FnDecl &F) {
  BaselineResult Result;
  GlobalDomWalker Walker(P, Structs, Result);
  Walker.walkFunction(F);
  return Result;
}

BaselineResult fearless::globalDomCheckProgram(const Program &P,
                                               const StructTable &Structs) {
  BaselineResult Result;
  for (const FnDecl &F : P.Functions) {
    BaselineResult One = globalDomCheckFunction(P, Structs, F);
    if (!One.Accepted)
      Result.Accepted = false;
    for (Diagnostic &D : One.Errors)
      Result.Errors.push_back(std::move(D));
  }
  return Result;
}
