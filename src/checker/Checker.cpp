//===- checker/Checker.cpp ------------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "checker/Checker.h"

#include "analysis/Liveness.h"
#include "ast/AstPrinter.h"
#include "checker/Framing.h"
#include "checker/Unify.h"
#include "checker/Virtual.h"
#include "parser/Parser.h"
#include "regions/Canonical.h"
#include "sema/Resolver.h"

#include <cassert>

using namespace fearless;

namespace {

/// The region and type of a checked expression.
struct ExprResult {
  RegionId Region; ///< Invalid for primitive-typed results.
  Type Ty;
};

/// Checks one function body against its elaborated signature.
class FnChecker {
public:
  FnChecker(const Program &P, const StructTable &Structs,
            const std::map<Symbol, FnSignature> &Signatures,
            const CheckerOptions &Opts, UseCache &Uses,
            RegionSupply &Supply, std::map<const Expr *, Type> &SendTypes)
      : P(P), Structs(Structs), Signatures(Signatures), Opts(Opts),
        Uses(Uses), Supply(Supply), SendTypes(SendTypes) {}

  /// Checks \p F into \p Out, whose Deriv must be empty.
  ExpectedVoid run(const FnDecl &F, CheckedFunction &Out) {
    auto SigIt = Signatures.find(F.Name);
    assert(SigIt != Signatures.end() && "signature missing");
    const FnSignature &Sig = SigIt->second;
    ReturnType = Sig.ReturnType;
    Ctx = Sig.Input;

    assert(Out.Deriv.empty() && "derivation arena not rolled back");
    Out.Sig = Sig;
    if (Opts.EmitDerivations) {
      D = &Out.Deriv;
      CurrentSink =
          D->addStep(RuleId::T0FunctionDefinition, {F.Name, {}, {}, {}});
      DerivStep &Root = (*D)[CurrentSink];
      Root.E = F.Body.get();
      Root.Before = D->addSnapshot(Ctx);
    }

    Continuation Cont;
    Cont.ResultLive = true;
    for (const ParamDecl &Param : F.Params)
      if (Param.ParamType.isRegionful())
        Cont.AlwaysValid.insert(Param.Name);
    Expected<ExprResult> Res = check(*F.Body, Cont, &ReturnType);
    if (!Res)
      return Failure{prefix(F, Res.error())};
    if (!(Res->Ty == ReturnType))
      return Failure{prefix(
          F, fail("function body has type " + toString(Res->Ty, P.Names) +
                      " but the declared return type is " +
                      toString(ReturnType, P.Names),
                  F.Loc)
                 .Diag)};

    RegionId FinalResult = Res->Region;
    if (auto Err = conformTo(Ctx, FinalResult, Sig.Output,
                             Sig.ResultRegion, Supply, P.Names, sink(),
                             &Stats.VirtualSteps, F.Loc);
        !Err)
      return Failure{prefix(F, Err.error())};

    if (D) {
      StepId Root = D->root();
      (*D)[Root].After = D->snapshot(Root, Ctx);
      (*D)[Root].ResultRegion = Res->Region;
      (*D)[Root].ResultType = Res->Ty;
    }
    Out.Stats = Stats;
    return {};
  }

private:
  Diagnostic prefix(const FnDecl &F, Diagnostic D) {
    D.Message = "in function '" + P.Names.spelling(F.Name) + "': " +
                D.Message;
    return D;
  }

  /// Where the current expression's V/F steps go (nowhere without
  /// derivations).
  DerivSink sink() const {
    return D ? DerivSink{D, CurrentSink} : DerivSink();
  }

  VirtualEngine engine() {
    return VirtualEngine(Ctx, Supply, P.Names, sink(), &Stats.VirtualSteps);
  }

  Expected<const StructInfo *> structOf(const Type &Ty, SourceLoc Loc) {
    if (!Ty.isStruct())
      return fail("expected a (non-maybe) struct value, found " +
                      toString(Ty, P.Names) +
                      (Ty.isMaybe() ? " (unwrap it with 'let some(..)')"
                                    : ""),
                  Loc);
    const StructInfo *Info = Structs.lookup(Ty.StructName);
    assert(Info && "resolver admitted unknown struct");
    return Info;
  }

  //===--------------------------------------------------------------------===
  // Scope and rebinding hygiene
  //===--------------------------------------------------------------------===

  /// Eliminates the tracking of \p Var (scope exit or rebinding): retracts
  /// fields whose target regions the continuation does not need, and
  /// otherwise wholesale-drops Var's region so that needed field-target
  /// capabilities (e.g. the result's region) survive.
  ExpectedVoid clearVarTracking(Symbol Var, const Continuation &Cont,
                                RegionId Protect, SourceLoc Loc) {
    auto TrackRegion = Ctx.Heap.trackingRegionOf(Var);
    if (!TrackRegion)
      return success();
    VirtualEngine Engine = engine();

    auto NeededRegion = [&](RegionId R) {
      if (R == Protect)
        return true;
      // Wanted variables (live, or parameters whose capability the
      // signature output mentions) pin their regions.
      for (const auto &[Other, Binding] : Ctx.Vars.entries()) {
        if (Other == Var || !Cont.wants(Other))
          continue;
        if (Binding.Region == R)
          return true;
      }
      // Regions targeted by another variable's tracked field must stay:
      // retracting or dropping them would invalidate that field.
      for (const auto &[Region, Track] : Ctx.Heap.entries()) {
        (void)Region;
        for (const auto &[Other, VTrack] : Track.Vars) {
          if (Other == Var)
            continue;
          for (const auto &[Field, Target] : VTrack.Fields) {
            (void)Field;
            if (Target == R)
              return true;
          }
        }
      }
      return false;
    };

    bool Changed = true;
    while (Changed) {
      Changed = false;
      const VarTrack *Track = Ctx.Heap.trackedVar(*TrackRegion, Var);
      assert(Track && "tracking vanished");
      std::vector<std::pair<Symbol, RegionId>> Fields(
          Track->Fields.begin(), Track->Fields.end());
      for (auto &[Field, Target] : Fields) {
        if (!Ctx.Heap.hasRegion(Target) || NeededRegion(Target))
          continue;
        if (!Ctx.Heap.lookup(Target)->empty()) {
          // Best effort: partial releases are individually legal.
          (void)Engine.releaseRegion(Target, Loc);
        }
        const RegionTrack *TT = Ctx.Heap.lookup(Target);
        if (TT && TT->empty() && !TT->Pinned) {
          if (auto Err = Engine.retract(Var, Field, Loc); !Err)
            return Err;
          Changed = true;
        }
      }
    }

    const VarTrack *Track = Ctx.Heap.trackedVar(*TrackRegion, Var);
    if (Track->Fields.empty())
      return Engine.unfocus(Var, Loc);

    // Fields remain (dead targets or needed capabilities): drop the whole
    // region if nothing the continuation needs lives there.
    if (!conformAblation().WholesaleDrops)
      return fail("cannot release tracking of '" + P.Names.spelling(Var) +
                      "' (wholesale region drops disabled by ablation)",
                  Loc);
    RegionId R = *TrackRegion;
    if (NeededRegion(R))
      return fail("cannot release tracking of '" + P.Names.spelling(Var) +
                      "': its region still holds values the continuation "
                      "needs",
                  Loc);
    for (const auto &[Other, OtherTrack] : Ctx.Heap.lookup(R)->Vars) {
      (void)OtherTrack;
      if (Other != Var && Cont.Live.usesVar(Other))
        return fail("cannot release tracking of '" +
                        P.Names.spelling(Var) + "': variable '" +
                        P.Names.spelling(Other) +
                        "' is still tracked in the same region",
                    Loc);
    }
    return Engine.dropRegion(R, Loc);
  }

  /// Ends the scope of a let-bound variable.
  ExpectedVoid endScope(Symbol Var, const Continuation &Cont,
                        RegionId Protect, SourceLoc Loc) {
    if (auto Err = clearVarTracking(Var, Cont, Protect, Loc); !Err)
      return Err;
    Ctx.Vars.erase(Var);
    return success();
  }

  //===--------------------------------------------------------------------===
  // Expression checking
  //===--------------------------------------------------------------------===

  /// The continuation of each of \p Elems, evaluated in order before
  /// \p Cont: element I's adds the uses of every later element. Built back
  /// to front, one merge per element, so long blocks stay linear.
  std::vector<Continuation>
  suffixContinuations(const std::vector<ExprPtr> &Elems,
                      const Continuation &Cont) {
    std::vector<Continuation> Out(Elems.size());
    if (Elems.empty())
      return Out;
    Out.back() = Cont;
    for (size_t I = Elems.size() - 1; I-- > 0;) {
      Out[I] = Out[I + 1];
      Out[I].Live.merge(Uses.uses(*Elems[I + 1]));
    }
    return Out;
  }

  Expected<ExprResult> check(const Expr &E, const Continuation &Cont,
                             const Type *Want) {
    if (!D)
      return checkImpl(E, Cont, Want, NoStep);
    StepId Parent = CurrentSink;
    assert(Parent != NoStep && "emitting a step with no sink");
    StepId Node = D->addStep(RuleId::T0FunctionDefinition); // see setRule
    (*D)[Node].E = &E;
    (*D)[Node].Before = D->snapshot(Parent, Ctx);
    CurrentSink = Node;
    Expected<ExprResult> Res = checkImpl(E, Cont, Want, Node);
    CurrentSink = Parent;
    if (Res) {
      DerivStep &Step = (*D)[Node];
      Step.After = D->snapshot(Node, Ctx);
      Step.ResultRegion = Res->Region;
      Step.ResultType = Res->Ty;
      D->addChild(Parent, Node);
    }
    return Res;
  }

  /// Names the rule of expression step \p Node (when recording): check()
  /// adds the step before checkImpl knows which rule applies.
  void setRule(StepId Node, RuleId Rule) {
    if (Node != NoStep)
      (*D)[Node].Rule = Rule;
  }

  Expected<ExprResult> checkImpl(const Expr &E, const Continuation &Cont,
                                 const Type *Want, StepId Node) {
    auto Rule = [&](RuleId Id) { setRule(Node, Id); };
    switch (E.kind()) {
    case ExprKind::IntLit:
      Rule(RuleId::TIntLiteral);
      return ExprResult{RegionId(), Type::intTy()};
    case ExprKind::BoolLit:
      Rule(RuleId::TBoolLiteral);
      return ExprResult{RegionId(), Type::boolTy()};
    case ExprKind::UnitLit:
      Rule(RuleId::TUnit);
      return ExprResult{RegionId(), Type::unitTy()};
    case ExprKind::VarRef:
      Rule(RuleId::T2VariableRef);
      return checkVarRef(cast<VarRefExpr>(E));
    case ExprKind::FieldRef:
      return checkFieldRef(cast<FieldRefExpr>(E), Cont, Node);
    case ExprKind::AssignVar:
      Rule(RuleId::T8AssignVar);
      return checkAssignVar(cast<AssignVarExpr>(E), Cont);
    case ExprKind::AssignField:
      return checkAssignField(cast<AssignFieldExpr>(E), Cont, Node);
    case ExprKind::Let:
      Rule(RuleId::TLet);
      return checkLet(cast<LetExpr>(E), Cont, Want);
    case ExprKind::LetSome:
      Rule(RuleId::TLetSome);
      return checkLetSome(cast<LetSomeExpr>(E), Cont, Want);
    case ExprKind::If:
      Rule(RuleId::T13IfStatement);
      return checkIf(cast<IfExpr>(E), Cont, Want);
    case ExprKind::IfDisconnected:
      Rule(RuleId::T15IfDisconnected);
      return checkIfDisconnected(cast<IfDisconnectedExpr>(E), Cont,
                                 Want);
    case ExprKind::While:
      Rule(RuleId::TWhile);
      return checkWhile(cast<WhileExpr>(E), Cont);
    case ExprKind::Seq:
      Rule(RuleId::T3Sequence);
      return checkSeq(cast<SeqExpr>(E), Cont, Want);
    case ExprKind::New:
      Rule(RuleId::T10NewLoc);
      return checkNew(cast<NewExpr>(E), Cont);
    case ExprKind::SomeExpr:
      Rule(RuleId::TSome);
      return checkSome(cast<SomeExpr>(E), Cont, Want);
    case ExprKind::NoneLit:
      Rule(RuleId::TNone);
      return checkNone(cast<NoneLitExpr>(E), Want);
    case ExprKind::IsNone:
      Rule(RuleId::TIsNone);
      return checkIsNone(cast<IsNoneExpr>(E), Cont);
    case ExprKind::Send:
      Rule(RuleId::T16Send);
      return checkSend(cast<SendExpr>(E), Cont);
    case ExprKind::Recv:
      Rule(RuleId::T17Receive);
      return checkRecv(cast<RecvExpr>(E));
    case ExprKind::Call:
      Rule(RuleId::T9FunctionApplication);
      return checkCall(cast<CallExpr>(E), Cont);
    case ExprKind::Binary:
      Rule(RuleId::TBinary);
      return checkBinary(cast<BinaryExpr>(E), Cont);
    case ExprKind::Unary:
      Rule(RuleId::TUnary);
      return checkUnary(cast<UnaryExpr>(E), Cont);
    }
    return fail("internal: unhandled expression kind", E.loc());
  }

  Expected<ExprResult> checkVarRef(const VarRefExpr &E) {
    const VarBinding *Binding = Ctx.Vars.lookup(E.Name);
    if (!Binding)
      return fail("variable '" + P.Names.spelling(E.Name) +
                      "' is not in scope",
                  E.loc());
    if (Binding->VarType.isRegionful() &&
        !Ctx.Heap.hasRegion(Binding->Region))
      return fail("variable '" + P.Names.spelling(E.Name) +
                      "' is no longer usable: its region left the "
                      "reservation (sent, consumed, or disconnected)",
                  E.loc());
    RegionId R =
        Binding->VarType.isRegionful() ? Binding->Region : RegionId();
    return ExprResult{R, Binding->VarType};
  }

  Expected<ExprResult> checkFieldRef(const FieldRefExpr &E,
                                     const Continuation &Cont,
                                     StepId Node) {
    auto Rule = [&](RuleId Id) { setRule(Node, Id); };
    // Determine the base type first (without committing effects for the
    // iso case: the base must be a variable there).
    if (const auto *Var = dyn_cast<VarRefExpr>(E.Base.get())) {
      Expected<ExprResult> Base = check(*E.Base, Cont, nullptr);
      if (!Base)
        return Base;
      Expected<const StructInfo *> Info = structOf(Base->Ty, E.loc());
      if (!Info)
        return Info.takeFailure();
      const FieldInfo *Field = (*Info)->findField(E.Field);
      if (!Field)
        return fail("struct '" + P.Names.spelling((*Info)->Name) +
                        "' has no field '" + P.Names.spelling(E.Field) +
                        "'",
                    E.loc());
      if (Field->Iso) {
        Rule(RuleId::T5IsolatedFieldReference);
        VirtualEngine Engine = engine();
        Expected<RegionId> Target =
            Engine.ensureFieldTracked(Var->Name, E.Field, E.loc());
        if (!Target)
          return Target.takeFailure();
        if (!Ctx.Heap.hasRegion(*Target))
          return fail("iso field '" + P.Names.spelling(Var->Name) + "." +
                          P.Names.spelling(E.Field) +
                          "' was invalidated; reassign it before reading",
                      E.loc());
        return ExprResult{Field->FieldType.isRegionful() ? *Target
                                                         : RegionId(),
                          Field->FieldType};
      }
      Rule(RuleId::TFieldReference);
      return ExprResult{Field->FieldType.isRegionful() ? Base->Region
                                                       : RegionId(),
                        Field->FieldType};
    }

    // Non-variable base: only non-iso fields are accessible (the paper
    // limits typeable iso accesses to fields of declared variables).
    Expected<ExprResult> Base = check(*E.Base, Cont, nullptr);
    if (!Base)
      return Base;
    Expected<const StructInfo *> Info = structOf(Base->Ty, E.loc());
    if (!Info)
      return Info.takeFailure();
    const FieldInfo *Field = (*Info)->findField(E.Field);
    if (!Field)
      return fail("struct '" + P.Names.spelling((*Info)->Name) +
                      "' has no field '" + P.Names.spelling(E.Field) + "'",
                  E.loc());
    if (Field->Iso)
      return fail("iso field '" + P.Names.spelling(E.Field) +
                      "' can only be accessed on a variable; bind '" +
                      printExpr(*E.Base, P.Names) + "' with 'let' first",
                  E.loc());
    Rule(RuleId::TFieldReference);
    return ExprResult{Field->FieldType.isRegionful() ? Base->Region
                                                     : RegionId(),
                      Field->FieldType};
  }

  Expected<ExprResult> checkAssignVar(const AssignVarExpr &E,
                                      const Continuation &Cont) {
    const VarBinding *Binding = Ctx.Vars.lookup(E.Name);
    if (!Binding)
      return fail("variable '" + P.Names.spelling(E.Name) +
                      "' is not in scope",
                  E.loc());
    Type DeclaredType = Binding->VarType;
    Expected<ExprResult> Value = check(*E.Value, Cont, &DeclaredType);
    if (!Value)
      return Value;
    if (!(Value->Ty == DeclaredType))
      return fail("cannot assign " + toString(Value->Ty, P.Names) +
                      " to variable '" + P.Names.spelling(E.Name) +
                      "' of type " + toString(DeclaredType, P.Names),
                  E.loc());
    if (auto Err = clearVarTracking(E.Name, Cont, Value->Region, E.loc());
        !Err)
      return Err.takeFailure();
    Ctx.Vars.bind(E.Name, VarBinding{Value->Region, DeclaredType});
    return ExprResult{RegionId(), Type::unitTy()};
  }

  Expected<ExprResult> checkAssignField(const AssignFieldExpr &E,
                                        const Continuation &Cont,
                                        StepId Node) {
    auto Rule = [&](RuleId Id) { setRule(Node, Id); };
    Expected<ExprResult> Base =
        check(*E.Base, Cont.withUses(Uses.uses(*E.Value)), nullptr);
    if (!Base)
      return Base;
    Expected<const StructInfo *> Info = structOf(Base->Ty, E.loc());
    if (!Info)
      return Info.takeFailure();
    const FieldInfo *Field = (*Info)->findField(E.Field);
    if (!Field)
      return fail("struct '" + P.Names.spelling((*Info)->Name) +
                      "' has no field '" + P.Names.spelling(E.Field) + "'",
                  E.loc());
    Type FieldType = Field->FieldType;
    Expected<ExprResult> Value = check(*E.Value, Cont, &FieldType);
    if (!Value)
      return Value;
    if (!(Value->Ty == FieldType))
      return fail("cannot assign " + toString(Value->Ty, P.Names) +
                      " to field '" + P.Names.spelling(E.Field) +
                      "' of type " + toString(FieldType, P.Names),
                  E.loc());

    if (Field->Iso) {
      Rule(RuleId::T7IsolatedFieldAssignment);
      const auto *Var = dyn_cast<VarRefExpr>(E.Base.get());
      if (!Var)
        return fail("iso field '" + P.Names.spelling(E.Field) +
                        "' can only be assigned on a variable; bind '" +
                        printExpr(*E.Base, P.Names) + "' with 'let' first",
                    E.loc());
      VirtualEngine Engine = engine();
      Expected<RegionId> OldTarget =
          Engine.ensureFieldTracked(Var->Name, E.Field, E.loc());
      if (!OldTarget)
        return OldTarget.takeFailure();
      auto TrackRegion = Ctx.Heap.trackingRegionOf(Var->Name);
      assert(TrackRegion && "just tracked");
      assert(Value->Region.isValid() && "iso fields hold regionful values");
      Ctx.Heap.trackedVar(*TrackRegion, Var->Name)->Fields[E.Field] =
          Value->Region;
      return ExprResult{RegionId(), Type::unitTy()};
    }

    Rule(RuleId::TFieldAssignment);
    if (FieldType.isRegionful()) {
      // Intra-region reference: merge the value's region into the base's.
      VirtualEngine Engine = engine();
      if (auto Err = Engine.attach(Value->Region, Base->Region, E.loc());
          !Err)
        return Err.takeFailure();
    }
    return ExprResult{RegionId(), Type::unitTy()};
  }

  Expected<ExprResult> checkLet(const LetExpr &E, const Continuation &Cont,
                                const Type *Want) {
    const Type *InitWant = E.Declared.isValid() ? &E.Declared : nullptr;
    Expected<ExprResult> Init =
        check(*E.Init, Cont.withUses(Uses.uses(*E.Body)), InitWant);
    if (!Init)
      return Init;
    if (E.Declared.isValid() && !(Init->Ty == E.Declared))
      return fail("initializer of '" + P.Names.spelling(E.Name) +
                      "' has type " + toString(Init->Ty, P.Names) +
                      ", but it is declared " +
                      toString(E.Declared, P.Names),
                  E.loc());
    if (!Init->Ty.isValid() ||
        Init->Ty.BaseKind == Type::Base::Invalid)
      return fail("cannot infer a type for the initializer of '" +
                      P.Names.spelling(E.Name) + "'",
                  E.loc());
    Ctx.Vars.bind(E.Name, VarBinding{Init->Region, Init->Ty});
    Expected<ExprResult> Body = check(*E.Body, Cont, Want);
    if (!Body)
      return Body;
    if (auto Err = endScope(E.Name, Cont, Body->Region, E.loc()); !Err)
      return Err.takeFailure();
    return Body;
  }

  Expected<ExprResult> checkLetSome(const LetSomeExpr &E,
                                    const Continuation &Cont,
                                    const Type *Want) {
    Continuation ScrutCont = Cont.withUses(Uses.uses(*E.SomeBody))
                                 .withUses(Uses.uses(*E.NoneBody));
    Expected<ExprResult> Scrut = check(*E.Scrutinee, ScrutCont, nullptr);
    if (!Scrut)
      return Scrut;
    if (!Scrut->Ty.isMaybe())
      return fail("'let some' scrutinee must have a maybe type, found " +
                      toString(Scrut->Ty, P.Names),
                  E.loc());
    Type ElemTy = Scrut->Ty.stripMaybe();

    Contexts Snapshot = Ctx;

    // Some branch: bind the payload in the scrutinee's region.
    Ctx.Vars.bind(E.Name,
                  VarBinding{ElemTy.isRegionful() ? Scrut->Region
                                                  : RegionId(),
                             ElemTy});
    Expected<ExprResult> SomeRes = check(*E.SomeBody, Cont, Want);
    if (!SomeRes)
      return SomeRes;
    if (auto Err = endScope(E.Name, Cont, SomeRes->Region, E.loc()); !Err)
      return Err.takeFailure();
    BranchState SomeBranch{std::move(Ctx),
                           SomeRes->Ty.isRegionful() ? SomeRes->Region
                                                     : RegionId(),
                           sink()};

    // None branch.
    Ctx = std::move(Snapshot);
    Expected<ExprResult> NoneRes =
        check(*E.NoneBody, Cont,
              Want ? Want
                       : (SomeRes->Ty.isValid() ? &SomeRes->Ty : nullptr));
    if (!NoneRes)
      return NoneRes;
    if (!(NoneRes->Ty == SomeRes->Ty))
      return fail("'let some' branches have different types: " +
                      toString(SomeRes->Ty, P.Names) + " vs " +
                      toString(NoneRes->Ty, P.Names),
                  E.loc());
    BranchState NoneBranch{std::move(Ctx),
                           NoneRes->Ty.isRegionful() ? NoneRes->Region
                                                     : RegionId(),
                           sink()};

    return mergeBranches({std::move(SomeBranch), std::move(NoneBranch)},
                         SomeRes->Ty, Cont, E.loc());
  }

  Expected<ExprResult> checkIf(const IfExpr &E, const Continuation &Cont,
                               const Type *Want) {
    Continuation CondCont = Cont.withUses(Uses.uses(*E.Then));
    if (E.Else)
      CondCont = CondCont.withUses(Uses.uses(*E.Else));
    Type BoolTy = Type::boolTy();
    Expected<ExprResult> CondRes = check(*E.Cond, CondCont, &BoolTy);
    if (!CondRes)
      return CondRes;
    if (!(CondRes->Ty == Type::boolTy()))
      return fail("if condition must be bool, found " +
                      toString(CondRes->Ty, P.Names),
                  E.loc());

    Contexts Snapshot = Ctx;
    Expected<ExprResult> ThenRes =
        check(*E.Then, Cont, E.Else ? Want : nullptr);
    if (!ThenRes)
      return ThenRes;

    if (!E.Else) {
      // Statement form: the then-value is discarded, result is unit.
      BranchState ThenBranch{std::move(Ctx), RegionId(), sink()};
      Ctx = std::move(Snapshot);
      BranchState ElseBranch{std::move(Ctx), RegionId(), sink()};
      return mergeBranches({std::move(ThenBranch), std::move(ElseBranch)},
                           Type::unitTy(), Cont, E.loc());
    }

    BranchState ThenBranch{std::move(Ctx),
                           ThenRes->Ty.isRegionful() ? ThenRes->Region
                                                     : RegionId(),
                           sink()};
    Ctx = std::move(Snapshot);
    Expected<ExprResult> ElseRes = check(*E.Else, Cont, Want);
    if (!ElseRes)
      return ElseRes;
    if (!(ElseRes->Ty == ThenRes->Ty))
      return fail("if branches have different types: " +
                      toString(ThenRes->Ty, P.Names) + " vs " +
                      toString(ElseRes->Ty, P.Names),
                  E.loc());
    BranchState ElseBranch{std::move(Ctx),
                           ElseRes->Ty.isRegionful() ? ElseRes->Region
                                                     : RegionId(),
                           sink()};
    return mergeBranches({std::move(ThenBranch), std::move(ElseBranch)},
                         ThenRes->Ty, Cont, E.loc());
  }

  Expected<ExprResult> checkIfDisconnected(const IfDisconnectedExpr &E,
                                           const Continuation &Cont,
                                           const Type *Want) {
    auto LookupArg = [&](Symbol Name) -> Expected<VarBinding> {
      const VarBinding *Binding = Ctx.Vars.lookup(Name);
      if (!Binding)
        return fail("variable '" + P.Names.spelling(Name) +
                        "' is not in scope",
                    E.loc());
      if (!Binding->VarType.isStruct())
        return fail("'if disconnected' argument '" +
                        P.Names.spelling(Name) +
                        "' must have a (non-maybe) struct type",
                    E.loc());
      if (!Ctx.Heap.hasRegion(Binding->Region))
        return fail("'if disconnected' argument '" +
                        P.Names.spelling(Name) +
                        "' is no longer in the reservation",
                    E.loc());
      return *Binding;
    };
    Expected<VarBinding> A = LookupArg(E.VarA);
    if (!A)
      return A.takeFailure();
    Expected<VarBinding> B = LookupArg(E.VarB);
    if (!B)
      return B.takeFailure();
    if (A->Region != B->Region)
      return fail("'if disconnected' arguments must be in the same "
                      "region; '" +
                      P.Names.spelling(E.VarA) + "' is in " +
                      toString(A->Region) + " and '" +
                      P.Names.spelling(E.VarB) + "' in " +
                      toString(B->Region),
                  E.loc());
    RegionId R = A->Region;
    // T15 requires the region's tracking context to be empty.
    {
      VirtualEngine Engine = engine();
      if (auto Err = Engine.releaseRegion(R, E.loc()); !Err)
        return Err.takeFailure();
    }

    Contexts Snapshot = Ctx;

    // Then branch: the region splits. Both arguments move to fresh
    // regions; every other variable of R and every tracked field
    // targeting R is invalidated (the type system cannot know which side
    // it landed on — Fig. 5's "l.hd invalid at branch start").
    Ctx.Heap.removeRegion(R);
    RegionId RA = Supply.fresh();
    RegionId RB = Supply.fresh();
    Ctx.Heap.addRegion(RA);
    Ctx.Heap.addRegion(RB);
    Ctx.Vars.bind(E.VarA, VarBinding{RA, A->VarType});
    Ctx.Vars.bind(E.VarB, VarBinding{RB, B->VarType});
    Expected<ExprResult> ThenRes = check(*E.Then, Cont, Want);
    if (!ThenRes)
      return ThenRes;
    BranchState ThenBranch{std::move(Ctx),
                           ThenRes->Ty.isRegionful() ? ThenRes->Region
                                                     : RegionId(),
                           sink()};

    // Else branch: still connected; nothing changes.
    Ctx = std::move(Snapshot);
    Expected<ExprResult> ElseRes = check(*E.Else, Cont, Want);
    if (!ElseRes)
      return ElseRes;
    if (!(ElseRes->Ty == ThenRes->Ty))
      return fail("'if disconnected' branches have different types: " +
                      toString(ThenRes->Ty, P.Names) + " vs " +
                      toString(ElseRes->Ty, P.Names),
                  E.loc());
    BranchState ElseBranch{std::move(Ctx),
                           ElseRes->Ty.isRegionful() ? ElseRes->Region
                                                     : RegionId(),
                           sink()};
    return mergeBranches({std::move(ThenBranch), std::move(ElseBranch)},
                         ThenRes->Ty, Cont, E.loc());
  }

  Expected<ExprResult> checkWhile(const WhileExpr &E,
                                  const Continuation &Cont) {
    Continuation LoopCont = Cont.withUses(Uses.uses(*E.Cond))
                                .withUses(Uses.uses(*E.Body));
    Contexts Invariant = Ctx;
    Type BoolTy = Type::boolTy();

    for (size_t Iter = 0; Iter < Opts.MaxLoopIterations; ++Iter) {
      ++Stats.LoopIterations;
      Ctx = Invariant;
      // Check into a scratch step; only the stable iteration is linked
      // in, the others are rolled back.
      StepId Scratch = NoStep;
      StepId SavedSink = CurrentSink;
      Derivation::Mark Mark;
      if (D) {
        Mark = D->mark();
        Scratch = D->addStep(RuleId::TWhileBody);
        (*D)[Scratch].Before = D->snapshot(CurrentSink, Ctx);
        CurrentSink = Scratch;
      }

      Expected<ExprResult> CondRes = check(*E.Cond, LoopCont, &BoolTy);
      if (!CondRes) {
        CurrentSink = SavedSink;
        return CondRes;
      }
      if (!(CondRes->Ty == Type::boolTy())) {
        CurrentSink = SavedSink;
        return fail("while condition must be bool, found " +
                        toString(CondRes->Ty, P.Names),
                    E.loc());
      }
      Contexts AfterCond = Ctx;
      Expected<ExprResult> BodyRes = check(*E.Body, LoopCont, nullptr);
      CurrentSink = SavedSink;
      if (!BodyRes)
        return BodyRes;

      // Loop-invariance: the body's exit context must describe the same
      // heap as the loop entry.
      if (equivalentUpToRenaming(Ctx, RegionId(), Invariant, RegionId())) {
        if (D) {
          (*D)[Scratch].After = D->snapshot(Scratch, Ctx);
          D->addChild(CurrentSink, Scratch);
        }
        Ctx = std::move(AfterCond);
        return ExprResult{RegionId(), Type::unitTy()};
      }
      if (D)
        D->rollback(Mark);

      // Widen: the new invariant is the meet of the entry and the body's
      // exit. Re-check from the weakened entry.
      dropUnreachableRegions(Invariant);
      std::vector<BranchState> States;
      States.push_back(BranchState{std::move(Invariant), RegionId(), {}});
      States.push_back(BranchState{Ctx, RegionId(), {}});
      Expected<UnifyOutcome> Met = unifyBranches(
          std::move(States), Type::unitTy(), LoopCont,
          UnifyOptions{Opts.UseLivenessOracle, Opts.UnifySearchLimit},
          Supply, P.Names, E.loc(), &Stats.VirtualSteps);
      if (!Met)
        return fail("while loop body changes the region context and no "
                        "loop invariant could be found: " +
                        Met.error().Message,
                    E.loc());
      Stats.UnifyCandidates += Met->CandidatesTried;
      Invariant = std::move(Met->Ctx);
    }
    return fail("while loop did not stabilize after " +
                    std::to_string(Opts.MaxLoopIterations) +
                    " refinements",
                E.loc());
  }

  Expected<ExprResult> checkSeq(const SeqExpr &E, const Continuation &Cont,
                                const Type *Want) {
    assert(!E.Elems.empty() && "parser guarantees nonempty blocks");
    std::vector<Continuation> ElemConts = suffixContinuations(E.Elems, Cont);
    ExprResult Last{RegionId(), Type::unitTy()};
    for (size_t I = 0; I < E.Elems.size(); ++I) {
      bool IsLast = I + 1 == E.Elems.size();
      if (!IsLast)
        ElemConts[I].ResultLive = false;
      Expected<ExprResult> Res =
          check(*E.Elems[I], ElemConts[I], IsLast ? Want : nullptr);
      if (!Res)
        return Res;
      Last = *Res;
    }
    return Last;
  }

  Expected<ExprResult> checkNew(const NewExpr &E, const Continuation &Cont) {
    const StructInfo *Info = Structs.lookup(E.StructName);
    assert(Info && "resolver admitted unknown struct");
    VirtualEngine Engine = engine();
    RegionId Fresh = Supply.fresh();
    Ctx.Heap.addRegion(Fresh);
    Type ResultTy = Type::structTy(E.StructName);
    if (E.Args.empty())
      return ExprResult{Fresh, ResultTy};

    // Argument-to-field mapping: full form (one per field) or required
    // form (one per non-defaultable field).
    std::vector<uint32_t> ArgFields;
    if (E.Args.size() == Info->Fields.size()) {
      for (uint32_t I = 0; I < Info->Fields.size(); ++I)
        ArgFields.push_back(I);
    } else {
      ArgFields = Info->requiredFieldIndices();
    }
    assert(E.Args.size() == ArgFields.size() &&
           "resolver checked new-arity");
    std::vector<Continuation> ArgConts = suffixContinuations(E.Args, Cont);
    for (size_t I = 0; I < E.Args.size(); ++I) {
      const FieldInfo &Field = Info->Fields[ArgFields[I]];
      Type FieldTy = Field.FieldType;
      Expected<ExprResult> Arg = check(*E.Args[I], ArgConts[I], &FieldTy);
      if (!Arg)
        return Arg;
      if (!(Arg->Ty == FieldTy))
        return fail("initializer for field '" +
                        P.Names.spelling(Field.Name) + "' has type " +
                        toString(Arg->Ty, P.Names) + ", expected " +
                        toString(FieldTy, P.Names),
                    E.loc());
      if (!FieldTy.isRegionful())
        continue;
      if (Field.Iso) {
        // The initializer becomes the dominated target of a fresh,
        // untracked iso field: its region must be released and consumed.
        if (Arg->Region == Fresh)
          return fail("iso field initializer for '" +
                          P.Names.spelling(Field.Name) +
                          "' aliases the new object's own region",
                      E.loc());
        if (auto Err = Engine.releaseRegion(Arg->Region, E.loc()); !Err)
          return Err.takeFailure();
        const RegionTrack *Track = Ctx.Heap.lookup(Arg->Region);
        if (!Track || Track->Pinned)
          return fail("iso field initializer for '" +
                          P.Names.spelling(Field.Name) +
                          "' is in a pinned or absent region",
                      E.loc());
        Ctx.Heap.removeRegion(Arg->Region);
      } else {
        // Intra-region reference: the initializer joins the new object's
        // region.
        if (auto Err = Engine.attach(Arg->Region, Fresh, E.loc()); !Err)
          return Err.takeFailure();
      }
    }
    return ExprResult{Fresh, ResultTy};
  }

  Expected<ExprResult> checkSome(const SomeExpr &E, const Continuation &Cont,
                                 const Type *Want) {
    Type ElemExpected;
    const Type *ElemExpectedPtr = nullptr;
    if (Want && Want->isMaybe()) {
      ElemExpected = Want->stripMaybe();
      ElemExpectedPtr = &ElemExpected;
    }
    Expected<ExprResult> Operand =
        check(*E.Operand, Cont, ElemExpectedPtr);
    if (!Operand)
      return Operand;
    if (Operand->Ty.isMaybe())
      return fail("maybe types do not nest ('some' of a maybe value)",
                  E.loc());
    return ExprResult{Operand->Region, Operand->Ty.asMaybe()};
  }

  Expected<ExprResult> checkNone(const NoneLitExpr &E,
                                 const Type *Want) {
    if (!Want || !Want->isMaybe())
      return fail("cannot infer the type of 'none' here; use it where a "
                      "maybe type is expected",
                  E.loc());
    if (!Want->isRegionful())
      return ExprResult{RegionId(), *Want};
    RegionId Fresh = Supply.fresh();
    Ctx.Heap.addRegion(Fresh);
    return ExprResult{Fresh, *Want};
  }

  Expected<ExprResult> checkIsNone(const IsNoneExpr &E,
                                   const Continuation &Cont) {
    Expected<ExprResult> Operand = check(*E.Operand, Cont, nullptr);
    if (!Operand)
      return Operand;
    if (!Operand->Ty.isMaybe())
      return fail("'is_none' needs a maybe-typed operand, found " +
                      toString(Operand->Ty, P.Names),
                  E.loc());
    return ExprResult{RegionId(), Type::boolTy()};
  }

  Expected<ExprResult> checkSend(const SendExpr &E,
                                 const Continuation &Cont) {
    Expected<ExprResult> Operand = check(*E.Operand, Cont, nullptr);
    if (!Operand)
      return Operand;
    SendTypes[&E] = Operand->Ty;
    if (Operand->Ty.isRegionful()) {
      VirtualEngine Engine = engine();
      if (auto Err = Engine.releaseRegion(Operand->Region, E.loc()); !Err)
        return Err.takeFailure();
      // T16: the region capability leaves this thread's reservation.
      Ctx.Heap.removeRegion(Operand->Region);
    }
    return ExprResult{RegionId(), Type::unitTy()};
  }

  Expected<ExprResult> checkRecv(const RecvExpr &E) {
    if (!E.ValueType.isRegionful())
      return ExprResult{RegionId(), E.ValueType};
    RegionId Fresh = Supply.fresh();
    Ctx.Heap.addRegion(Fresh);
    return ExprResult{Fresh, E.ValueType};
  }

  Expected<ExprResult> checkCall(const CallExpr &E,
                                 const Continuation &Cont) {
    auto SigIt = Signatures.find(E.Callee);
    assert(SigIt != Signatures.end() && "resolver admitted unknown call");
    const FnSignature &Sig = SigIt->second;
    assert(E.Args.size() == Sig.Decl->Params.size() &&
           "resolver checked arity");

    std::vector<Symbol> ArgVars(E.Args.size());
    std::vector<Continuation> ArgConts = suffixContinuations(E.Args, Cont);
    for (size_t I = 0; I < E.Args.size(); ++I) {
      const ParamDecl &Param = Sig.Decl->Params[I];
      const Continuation &ArgCont = ArgConts[I];
      if (Param.ParamType.isRegionful()) {
        const auto *Var = dyn_cast<VarRefExpr>(E.Args[I].get());
        if (!Var)
          return fail("argument for parameter '" +
                          P.Names.spelling(Param.Name) + "' of '" +
                          P.Names.spelling(E.Callee) +
                          "' must be a variable; bind it with 'let' first",
                      E.loc());
        Expected<ExprResult> Arg = check(*E.Args[I], ArgCont, nullptr);
        if (!Arg)
          return Arg;
        if (!(Arg->Ty == Param.ParamType))
          return fail("argument '" + P.Names.spelling(Var->Name) +
                          "' has type " + toString(Arg->Ty, P.Names) +
                          ", expected " +
                          toString(Param.ParamType, P.Names),
                      E.loc());
        ArgVars[I] = Var->Name;
      } else {
        Type ParamTy = Param.ParamType;
        Expected<ExprResult> Arg = check(*E.Args[I], ArgCont, &ParamTy);
        if (!Arg)
          return Arg;
        if (!(Arg->Ty == Param.ParamType))
          return fail("argument for parameter '" +
                          P.Names.spelling(Param.Name) + "' has type " +
                          toString(Arg->Ty, P.Names) + ", expected " +
                          toString(Param.ParamType, P.Names),
                      E.loc());
      }
    }

    Expected<CallInstantiation> Inst = applySignature(
        Ctx, Sig, ArgVars, Supply, P.Names, sink(), &Stats.VirtualSteps,
        E.loc());
    if (!Inst)
      return Inst.takeFailure();
    return ExprResult{Inst->ResultRegion, Sig.ReturnType};
  }

  Expected<ExprResult> checkBinary(const BinaryExpr &E,
                                   const Continuation &Cont) {
    Expected<ExprResult> Lhs =
        check(*E.Lhs, Cont.withUses(Uses.uses(*E.Rhs)), nullptr);
    if (!Lhs)
      return Lhs;
    Expected<ExprResult> Rhs = check(*E.Rhs, Cont, &Lhs->Ty);
    if (!Rhs)
      return Rhs;
    auto Require = [&](const Type &Ty, const char *What) -> ExpectedVoid {
      if (Lhs->Ty == Ty && Rhs->Ty == Ty)
        return success();
      return fail(std::string("operator '") + toString(E.Op) +
                      "' needs " + What + " operands",
                  E.loc());
    };
    switch (E.Op) {
    case BinaryOp::Add:
    case BinaryOp::Sub:
    case BinaryOp::Mul:
    case BinaryOp::Div:
    case BinaryOp::Mod:
      if (auto Err = Require(Type::intTy(), "int"); !Err)
        return Err.takeFailure();
      return ExprResult{RegionId(), Type::intTy()};
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge:
      if (auto Err = Require(Type::intTy(), "int"); !Err)
        return Err.takeFailure();
      return ExprResult{RegionId(), Type::boolTy()};
    case BinaryOp::Eq:
    case BinaryOp::Ne:
      if (!(Lhs->Ty == Rhs->Ty) ||
          (!(Lhs->Ty == Type::intTy()) && !(Lhs->Ty == Type::boolTy())))
        return fail("operator '==' / '!=' compares ints or bools (use "
                        "'is_none' for maybe values)",
                    E.loc());
      return ExprResult{RegionId(), Type::boolTy()};
    case BinaryOp::And:
    case BinaryOp::Or:
      if (auto Err = Require(Type::boolTy(), "bool"); !Err)
        return Err.takeFailure();
      return ExprResult{RegionId(), Type::boolTy()};
    }
    return fail("internal: unhandled binary operator", E.loc());
  }

  Expected<ExprResult> checkUnary(const UnaryExpr &E,
                                  const Continuation &Cont) {
    Type Want =
        E.Op == UnaryOp::Not ? Type::boolTy() : Type::intTy();
    Expected<ExprResult> Operand = check(*E.Operand, Cont, &Want);
    if (!Operand)
      return Operand;
    if (!(Operand->Ty == Want))
      return fail(std::string("operator '") + toString(E.Op) + "' needs " +
                      (E.Op == UnaryOp::Not ? "a bool" : "an int") +
                      " operand",
                  E.loc());
    return ExprResult{RegionId(), Want};
  }

  //===--------------------------------------------------------------------===
  // Merging
  //===--------------------------------------------------------------------===

  Expected<ExprResult> mergeBranches(std::vector<BranchState> Branches,
                                     const Type &ResultTy,
                                     const Continuation &Cont,
                                     SourceLoc Loc) {
    Expected<UnifyOutcome> Out = unifyBranches(
        std::move(Branches), ResultTy, Cont,
        UnifyOptions{Opts.UseLivenessOracle, Opts.UnifySearchLimit},
        Supply, P.Names, Loc, &Stats.VirtualSteps);
    if (!Out)
      return Out.takeFailure();
    Stats.UnifyCandidates += Out->CandidatesTried;
    Ctx = std::move(Out->Ctx);
    return ExprResult{ResultTy.isRegionful() ? Out->ResultRegion
                                             : RegionId(),
                      ResultTy};
  }

  const Program &P;
  const StructTable &Structs;
  const std::map<Symbol, FnSignature> &Signatures;
  const CheckerOptions &Opts;
  UseCache &Uses;
  RegionSupply &Supply;
  std::map<const Expr *, Type> &SendTypes;

  Contexts Ctx;
  Type ReturnType;
  /// This function's derivation; null when derivations are off.
  Derivation *D = nullptr;
  /// The step that records the current expression's children.
  StepId CurrentSink = NoStep;
  CheckStats Stats;
};

} // namespace

Expected<CheckedProgram>
fearless::checkProgram(const Program &P, const CheckerOptions &Opts,
                       const FunctionContinuation &Then) {
  CheckedProgram Out;
  Out.Prog = &P;

  DiagnosticEngine Diags;
  if (!Out.Structs.build(P, Diags))
    return fail(Diags.renderAll());
  if (!resolveProgram(P, Out.Structs, Diags))
    return fail(Diags.renderAll());

  RegionSupply Supply;
  for (const FnDecl &F : P.Functions) {
    Expected<FnSignature> Sig =
        elaborateSignature(F, Out.Structs, P.Names, Supply);
    if (!Sig)
      return Sig.takeFailure();
    Out.Signatures.emplace(F.Name, Sig.take());
  }

  // Every function is checked into Current. Without a continuation its
  // derivation moves into the result; with one, Current's arena is
  // rolled back for the next function and keeps its chunks.
  CheckedFunction Current;
  for (const FnDecl &F : P.Functions) {
    UseCache Uses(P);
    FnChecker Checker(P, Out.Structs, Out.Signatures, Opts, Uses, Supply,
                      Out.SendTypes);
    Current.Deriv.rollback({});
    if (ExpectedVoid Checked = Checker.run(F, Current); !Checked)
      return Checked.takeFailure();
    if (!Then) {
      Out.Functions.emplace(F.Name, std::move(Current));
      continue;
    }
    if (ExpectedVoid Done = Then(Out, Current); !Done)
      return Done.takeFailure();
    Out.Functions.emplace(
        F.Name, CheckedFunction{std::move(Current.Sig), {}, Current.Stats});
  }
  return Out;
}

Expected<FrontendResult>
fearless::checkSource(std::string_view Source, const CheckerOptions &Opts,
                      const FunctionContinuation &Then) {
  DiagnosticEngine Diags;
  std::optional<Program> Parsed = parseProgram(Source, Diags);
  if (!Parsed) {
    Failure F = fail(Diags.renderAll());
    F.Diag.Stage = DiagnosticStage::Parse;
    return F;
  }
  FrontendResult Out{std::make_unique<Program>(std::move(*Parsed)), {}};
  Expected<CheckedProgram> Checked = checkProgram(*Out.Prog, Opts, Then);
  if (!Checked) {
    Failure F = Checked.takeFailure();
    F.Diag.Stage = DiagnosticStage::Check;
    return F;
  }
  Out.Checked = Checked.take();
  return Out;
}
