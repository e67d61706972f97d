//===- verifier/Verifier.cpp ----------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "verifier/Verifier.h"

#include "ast/AstPrinter.h"
#include "regions/Canonical.h"

#include <algorithm>
#include <iterator>
#include <tuple>
#include <vector>

using namespace fearless;

namespace {

/// Walks a derivation re-validating each step.
class Verifier {
public:
  Verifier(const CheckedProgram &Program, const CheckedFunction &Fn)
      : Program(Program), Fn(Fn), D(Fn.Deriv), Names(Program.Prog->Names),
        CheckedSnapshots(D.numSnapshots()) {}

  Expected<VerifyStats> run() {
    if (D.empty())
      return fail("function has no derivation to verify");
    if (auto Err = verifyStep(D.root()); !Err)
      return Err.takeFailure();
    // The root's final context must conform to the declared output.
    const DerivStep &Root = D[D.root()];
    if (!equivalentUpToRenaming(D.after(Root), Root.ResultRegion,
                                Fn.Sig.Output, Fn.Sig.ResultRegion)) {
      Contexts Final = D.after(Root);
      Contexts Output = Fn.Sig.Output;
      dropUnreachableRegions(Final, Root.ResultRegion);
      dropUnreachableRegions(Output, Fn.Sig.ResultRegion);
      return fail("derivation's final context does not match the declared "
                  "signature output:\n  have: " +
                  toString(Final, Names) + "\n  want: " +
                  toString(Output, Names));
    }
    return Stats;
  }

private:
  /// Well-formedness of snapshot \p Id, checked once per distinct
  /// snapshot: derivation steps share immutable snapshots, so one already
  /// checked in this function needs no second look.
  std::optional<std::string> checkSnapshot(SnapshotId Id) {
    if (Id >= CheckedSnapshots.size())
      return "snapshot index out of range";
    if (CheckedSnapshots[Id])
      return std::nullopt;
    CheckedSnapshots[Id] = true;
    return checkWellFormed(D.context(Id), Names);
  }

  ExpectedVoid verifyStep(StepId Id) {
    const DerivStep &Step = D[Id];
    const Expr *Enclosing = CurrentExpr;
    if (Step.E)
      CurrentExpr = Step.E;
    ExpectedVoid Result = verifyStepAndChildren(Step);
    CurrentExpr = Enclosing;
    return Result;
  }

  ExpectedVoid verifyStepAndChildren(const DerivStep &Step) {
    ++Stats.StepsChecked;
    if (auto Problem = checkSnapshot(Step.Before))
      return fail(std::string("ill-formed context before ") +
                  ruleName(Step.Rule) + ": " + *Problem);
    if (auto Problem = checkSnapshot(Step.After))
      return fail(std::string("ill-formed context after ") +
                  ruleName(Step.Rule) + ": " + *Problem);
    for (StepId Child = Step.FirstChild; Child != NoStep;
         Child = D[Child].NextSibling)
      if (auto Err = verifyStep(Child); !Err)
        return Err;

    switch (Step.Rule) {
    // Virtual transformations and framing: recompute the instance.
    case RuleId::V1Focus:
      return verifyFocus(Step);
    case RuleId::V2Unfocus:
      return verifyUnfocus(Step);
    case RuleId::V3Explore:
      return verifyExplore(Step);
    case RuleId::V4Retract:
      return verifyRetract(Step);
    case RuleId::V5Attach:
      return verifyAttach(Step);
    case RuleId::FDropRegion:
      return verifyDropRegion(Step);
    case RuleId::FPinRegion:
      return verifyPin(Step);
    // Expression rules with local facts of their own.
    case RuleId::T2VariableRef:
      return verifyVarRef(Step);
    case RuleId::T5IsolatedFieldReference:
      return verifyIsoFieldRef(Step);
    case RuleId::T7IsolatedFieldAssignment:
      return verifyIsoFieldAssign(Step);
    case RuleId::T16Send:
      return verifySend(Step);
    case RuleId::T17Receive:
    case RuleId::T10NewLoc:
      return verifyFreshResult(Step);
    case RuleId::T9FunctionApplication:
      return verifyCall(Step);
    // Other rules: structural checks (well-formedness, children) already
    // ran; result-region sanity where applicable.
    case RuleId::T0FunctionDefinition:
    case RuleId::TIntLiteral:
    case RuleId::TBoolLiteral:
    case RuleId::TUnit:
    case RuleId::TFieldReference:
    case RuleId::T8AssignVar:
    case RuleId::TFieldAssignment:
    case RuleId::TLet:
    case RuleId::TLetSome:
    case RuleId::T13IfStatement:
    case RuleId::T15IfDisconnected:
    case RuleId::TWhile:
    case RuleId::TWhileBody:
    case RuleId::T3Sequence:
    case RuleId::TSome:
    case RuleId::TNone:
    case RuleId::TIsNone:
    case RuleId::TBinary:
    case RuleId::TUnary:
      break;
    }
    if (Step.ResultType.isRegionful() && Step.ResultRegion.isValid() &&
        !D.after(Step).Heap.hasRegion(Step.ResultRegion))
      return fail(std::string(ruleName(Step.Rule)) +
                  ": result region missing from H");
    return success();
  }

  //===--------------------------------------------------------------------===
  // Virtual transformations: recompute the instance and compare exactly.
  //===--------------------------------------------------------------------===

  /// Finds the unique (region, var) whose tracking differs. Returns false
  /// if the diff is not a single-variable tracking change.
  bool diffTrackedVars(const HeapCtx &Before, const HeapCtx &After,
                       RegionId &Region, Symbol &Var, bool &AddedInAfter) {
    // Collect (region, var) keys on both sides. H iterates in region,
    // then variable order, so each list comes out sorted.
    auto Collect = [](const HeapCtx &H, std::vector<VarKey> &Keys) {
      Keys.clear();
      for (const auto &[R, Track] : H.entries())
        for (const auto &[V, VT] : Track.Vars) {
          (void)VT;
          Keys.push_back({R, V});
        }
    };
    Collect(Before, VarKeysBefore);
    Collect(After, VarKeysAfter);
    VarKeysOnlyBefore.clear();
    VarKeysOnlyAfter.clear();
    std::set_difference(VarKeysBefore.begin(), VarKeysBefore.end(),
                        VarKeysAfter.begin(), VarKeysAfter.end(),
                        std::back_inserter(VarKeysOnlyBefore));
    std::set_difference(VarKeysAfter.begin(), VarKeysAfter.end(),
                        VarKeysBefore.begin(), VarKeysBefore.end(),
                        std::back_inserter(VarKeysOnlyAfter));
    if (VarKeysOnlyBefore.size() + VarKeysOnlyAfter.size() != 1)
      return false;
    AddedInAfter = !VarKeysOnlyAfter.empty();
    std::tie(Region, Var) = AddedInAfter ? VarKeysOnlyAfter.front()
                                         : VarKeysOnlyBefore.front();
    return true;
  }

  ExpectedVoid verifyVStepEnd() {
    ++Stats.VirtualStepsChecked;
    return success();
  }

  ExpectedVoid verifyFocus(const DerivStep &Step) {
    const Contexts &Before = D.before(Step);
    RegionId Region;
    Symbol Var;
    bool Added = false;
    if (!diffTrackedVars(Before.Heap, D.after(Step).Heap, Region, Var,
                         Added) ||
        !Added)
      return fail("V1-Focus: diff is not a single added tracked variable");
    const RegionTrack *BeforeTrack = Before.Heap.lookup(Region);
    if (!BeforeTrack || !BeforeTrack->empty() || BeforeTrack->Pinned)
      return fail("V1-Focus: region was not empty and unpinned");
    const VarBinding *Binding = Before.Vars.lookup(Var);
    if (!Binding || Binding->Region != Region ||
        !Binding->VarType.isStruct())
      return fail("V1-Focus: variable not bound to the focused region "
                  "with a struct type");
    // Recompute After.
    Expect = Before;
    Expect.Heap.lookup(Region)->Vars.emplace(Var, VarTrack{});
    if (!(Expect == D.after(Step)))
      return fail("V1-Focus: After context is not the exact instance");
    return verifyVStepEnd();
  }

  ExpectedVoid verifyUnfocus(const DerivStep &Step) {
    const Contexts &Before = D.before(Step);
    RegionId Region;
    Symbol Var;
    bool Added = false;
    if (!diffTrackedVars(Before.Heap, D.after(Step).Heap, Region, Var,
                         Added) ||
        Added)
      return fail("V2-Unfocus: diff is not a single removed tracked "
                  "variable");
    const VarTrack *Track = Before.Heap.trackedVar(Region, Var);
    if (!Track || !Track->Fields.empty())
      return fail("V2-Unfocus: variable still had tracked fields");
    Expect = Before;
    Expect.Heap.lookup(Region)->Vars.erase(Var);
    if (!(Expect == D.after(Step)))
      return fail("V2-Unfocus: After context is not the exact instance");
    return verifyVStepEnd();
  }

  /// Finds the unique (region, var, field) tracked-field diff.
  bool diffTrackedFields(const HeapCtx &Before, const HeapCtx &After,
                         RegionId &Region, Symbol &Var, Symbol &Field,
                         RegionId &Target, bool &AddedInAfter) {
    // (region, var, field) -> target on both sides, sorted by key as H
    // iterates; the diff compares keys only.
    auto Collect = [](const HeapCtx &H, std::vector<FieldEntry> &Entries) {
      Entries.clear();
      for (const auto &[R, Track] : H.entries())
        for (const auto &[V, VT] : Track.Vars)
          for (const auto &[F, T] : VT.Fields)
            Entries.push_back({FieldKey{R, V, F}, T});
    };
    auto KeyLess = [](const FieldEntry &A, const FieldEntry &B) {
      return A.first < B.first;
    };
    Collect(Before, FieldsBefore);
    Collect(After, FieldsAfter);
    FieldsOnlyBefore.clear();
    FieldsOnlyAfter.clear();
    std::set_difference(FieldsBefore.begin(), FieldsBefore.end(),
                        FieldsAfter.begin(), FieldsAfter.end(),
                        std::back_inserter(FieldsOnlyBefore), KeyLess);
    std::set_difference(FieldsAfter.begin(), FieldsAfter.end(),
                        FieldsBefore.begin(), FieldsBefore.end(),
                        std::back_inserter(FieldsOnlyAfter), KeyLess);
    if (FieldsOnlyBefore.size() + FieldsOnlyAfter.size() != 1)
      return false;
    AddedInAfter = !FieldsOnlyAfter.empty();
    const auto &[K, T] = AddedInAfter ? FieldsOnlyAfter.front()
                                      : FieldsOnlyBefore.front();
    std::tie(Region, Var, Field) = K;
    Target = T;
    return true;
  }

  ExpectedVoid verifyExplore(const DerivStep &Step) {
    const Contexts &Before = D.before(Step);
    RegionId Region, Target;
    Symbol Var, Field;
    bool Added = false;
    if (!diffTrackedFields(Before.Heap, D.after(Step).Heap, Region, Var,
                           Field, Target, Added) ||
        !Added)
      return fail("V3-Explore: diff is not a single added tracked field");
    if (Before.Heap.hasRegion(Target))
      return fail("V3-Explore: target region is not fresh");
    const VarTrack *Track = Before.Heap.trackedVar(Region, Var);
    if (!Track || Track->Pinned)
      return fail("V3-Explore: variable untracked or pinned");
    Expect = Before;
    Expect.Heap.trackedVar(Region, Var)->Fields[Field] = Target;
    Expect.Heap.addRegion(Target);
    if (!(Expect == D.after(Step)))
      return fail("V3-Explore: After context is not the exact instance");
    return verifyVStepEnd();
  }

  ExpectedVoid verifyRetract(const DerivStep &Step) {
    const Contexts &Before = D.before(Step);
    RegionId Region, Target;
    Symbol Var, Field;
    bool Added = false;
    if (!diffTrackedFields(Before.Heap, D.after(Step).Heap, Region, Var,
                           Field, Target, Added) ||
        Added)
      return fail("V4-Retract: diff is not a single removed tracked "
                  "field");
    const RegionTrack *TargetTrack = Before.Heap.lookup(Target);
    if (!TargetTrack || !TargetTrack->empty() || TargetTrack->Pinned)
      return fail("V4-Retract: target region not present, empty, and "
                  "unpinned");
    Expect = Before;
    Expect.Heap.trackedVar(Region, Var)->Fields.erase(Field);
    Expect.Heap.removeRegion(Target);
    if (!(Expect == D.after(Step)))
      return fail("V4-Retract: After context is not the exact instance");
    return verifyVStepEnd();
  }

  ExpectedVoid verifyAttach(const DerivStep &Step) {
    const Contexts &Before = D.before(Step);
    const Contexts &After = D.after(Step);
    // The removed region is the one present before and absent after.
    RegionId From;
    for (const auto &[R, Track] : Before.Heap.entries()) {
      (void)Track;
      if (!After.Heap.hasRegion(R)) {
        if (From.isValid())
          return fail("V5-Attach: more than one region disappeared");
        From = R;
      }
    }
    if (!From.isValid())
      return fail("V5-Attach: no region disappeared");
    // Find To: the region whose tracking gained From's variables, or any
    // region that From's references now point to. Recompute for every
    // candidate To and compare.
    for (const auto &[To, Track] : After.Heap.entries()) {
      (void)Track;
      if (!Before.Heap.hasRegion(To))
        continue;
      if (!Before.Heap.canAttach(From, To))
        continue;
      Expect = Before;
      Expect.Heap.attach(From, To);
      Expect.Vars.renameRegion(From, To);
      if (Expect == After)
        return verifyVStepEnd();
    }
    return fail("V5-Attach: no legal attach target reproduces the After "
                "context");
  }

  ExpectedVoid verifyDropRegion(const DerivStep &Step) {
    const Contexts &Before = D.before(Step);
    const Contexts &After = D.after(Step);
    RegionId Dropped;
    for (const auto &[R, Track] : Before.Heap.entries()) {
      (void)Track;
      if (!After.Heap.hasRegion(R)) {
        if (Dropped.isValid())
          return fail("F-Drop-Region: more than one region disappeared");
        Dropped = R;
      }
    }
    if (!Dropped.isValid())
      return fail("F-Drop-Region: no region disappeared");
    if (Before.Heap.lookup(Dropped)->Pinned)
      return fail("F-Drop-Region: dropped region was pinned");
    Expect = Before;
    Expect.Heap.removeRegion(Dropped);
    if (!(Expect == After))
      return fail("F-Drop-Region: After context is not the exact "
                  "instance");
    return verifyVStepEnd();
  }

  ExpectedVoid verifyPin(const DerivStep &Step) {
    const Contexts &Before = D.before(Step);
    const Contexts &After = D.after(Step);
    // A pin sets exactly one pin flag (region or tracked variable).
    size_t Diffs = 0;
    Expect = Before;
    for (auto &[R, Track] : Before.Heap.entries()) {
      const RegionTrack *AfterTrack = After.Heap.lookup(R);
      if (!AfterTrack)
        return fail("F-Pin-Region: region disappeared");
      if (Track.Pinned != AfterTrack->Pinned) {
        if (Track.Pinned)
          return fail("F-Pin-Region: pin flag removed");
        Expect.Heap.lookup(R)->Pinned = true;
        ++Diffs;
      }
      for (auto &[V, VT] : Track.Vars) {
        const VarTrack *AfterVT = After.Heap.trackedVar(R, V);
        if (!AfterVT)
          return fail("F-Pin-Region: tracked variable disappeared");
        if (VT.Pinned != AfterVT->Pinned) {
          if (VT.Pinned)
            return fail("F-Pin-Region: variable pin flag removed");
          Expect.Heap.trackedVar(R, V)->Pinned = true;
          ++Diffs;
        }
      }
    }
    if (Diffs != 1 || !(Expect == After))
      return fail("F-Pin-Region: After context is not a single added pin");
    return verifyVStepEnd();
  }

  //===--------------------------------------------------------------------===
  // Expression-rule local facts
  //===--------------------------------------------------------------------===

  ExpectedVoid verifyVarRef(const DerivStep &Step) {
    const Contexts &Before = D.before(Step);
    const auto *Var = dyn_cast<VarRefExpr>(Step.E);
    if (!Var)
      return fail("T2: step is not a variable reference");
    const VarBinding *Binding = Before.Vars.lookup(Var->Name);
    if (!Binding)
      return fail("T2: variable not bound in Γ");
    if (Binding->VarType.isRegionful() &&
        !Before.Heap.hasRegion(Binding->Region))
      return fail("T2: variable's region capability missing from H");
    if (Step.Before != Step.After && !(Before == D.after(Step)))
      return fail("T2: variable reference must not change the context");
    return success();
  }

  ExpectedVoid verifyIsoFieldRef(const DerivStep &Step) {
    const Contexts &After = D.after(Step);
    const auto *Ref = dyn_cast<FieldRefExpr>(Step.E);
    if (!Ref || !isa<VarRefExpr>(Ref->Base))
      return fail("T5: step is not an iso field read on a variable");
    Symbol Var = cast<VarRefExpr>(*Ref->Base).Name;
    auto Region = After.Heap.trackingRegionOf(Var);
    if (!Region)
      return fail("T5: base variable is not tracked afterwards");
    const VarTrack *Track = After.Heap.trackedVar(*Region, Var);
    auto It = Track->Fields.find(Ref->Field);
    if (It == Track->Fields.end())
      return fail("T5: field is not tracked afterwards");
    if (Step.ResultType.isRegionful() && It->second != Step.ResultRegion)
      return fail("T5: result region is not the tracked target");
    if (!After.Heap.hasRegion(It->second))
      return fail("T5: tracked target region missing from H");
    return success();
  }

  ExpectedVoid verifyIsoFieldAssign(const DerivStep &Step) {
    const Contexts &After = D.after(Step);
    const auto *Assign = dyn_cast<AssignFieldExpr>(Step.E);
    if (!Assign || !isa<VarRefExpr>(Assign->Base))
      return fail("T7: step is not an iso field write on a variable");
    Symbol Var = cast<VarRefExpr>(*Assign->Base).Name;
    auto Region = After.Heap.trackingRegionOf(Var);
    if (!Region)
      return fail("T7: base variable is not tracked afterwards");
    const VarTrack *Track = After.Heap.trackedVar(*Region, Var);
    if (!Track->Fields.count(Assign->Field))
      return fail("T7: assigned field is not tracked afterwards");
    return success();
  }

  ExpectedVoid verifySend(const DerivStep &Step) {
    // The operand child's result region must have left H.
    const DerivStep *Operand = nullptr;
    for (StepId Child = Step.FirstChild; Child != NoStep;
         Child = D[Child].NextSibling)
      if (D[Child].E)
        Operand = &D[Child];
    if (!Operand)
      return fail("T16: missing operand derivation");
    if (Operand->ResultType.isRegionful() &&
        D.after(Step).Heap.hasRegion(Operand->ResultRegion))
      return fail("T16: sent region still present in H");
    return success();
  }

  ExpectedVoid verifyFreshResult(const DerivStep &Step) {
    if (Step.ResultType.isRegionful()) {
      if (!D.after(Step).Heap.hasRegion(Step.ResultRegion))
        return fail(std::string(ruleName(Step.Rule)) +
                    ": result region missing from H");
      if (D.before(Step).Heap.hasRegion(Step.ResultRegion))
        return fail(std::string(ruleName(Step.Rule)) +
                    ": result region is not fresh");
    }
    return success();
  }

  ExpectedVoid verifyCall(const DerivStep &Step) {
    const auto *Call = dyn_cast<CallExpr>(Step.E);
    if (!Call)
      return fail("T9: step is not a call");
    auto It = Program.Signatures.find(Call->Callee);
    if (It == Program.Signatures.end())
      return fail("T9: unknown callee");
    if (!(Step.ResultType == It->second.ReturnType))
      return fail("T9: result type does not match the signature");
    if (Step.ResultType.isRegionful() &&
        !D.after(Step).Heap.hasRegion(Step.ResultRegion))
      return fail("T9: result region missing from H");
    return success();
  }

  /// A failure, naming the innermost expression being verified.
  Failure fail(std::string Message) {
    if (CurrentExpr)
      Message += " [at " + printExpr(*CurrentExpr, Names) + "]";
    return fearless::fail("verifier: " + Message);
  }

  using VarKey = std::pair<RegionId, Symbol>;
  using FieldKey = std::tuple<RegionId, Symbol, Symbol>;
  using FieldEntry = std::pair<FieldKey, RegionId>;

  const CheckedProgram &Program;
  const CheckedFunction &Fn;
  const Derivation &D;
  const Interner &Names;
  VerifyStats Stats;
  /// The innermost expression step on the walk's current path.
  const Expr *CurrentExpr = nullptr;
  /// Snapshots whose well-formedness this walk already established.
  std::vector<bool> CheckedSnapshots;
  /// Scratch, reused across steps: the recomputed After context and the
  /// tracking diffs.
  Contexts Expect;
  std::vector<VarKey> VarKeysBefore, VarKeysAfter, VarKeysOnlyBefore,
      VarKeysOnlyAfter;
  std::vector<FieldEntry> FieldsBefore, FieldsAfter, FieldsOnlyBefore,
      FieldsOnlyAfter;
};

} // namespace

Expected<VerifyStats> fearless::verifyFunction(const CheckedProgram &Program,
                                               const CheckedFunction &Fn) {
  return Verifier(Program, Fn).run();
}

Expected<VerifyStats> fearless::verifyProgram(const CheckedProgram &Program) {
  VerifyStats Total;
  for (const auto &[Name, Fn] : Program.Functions) {
    (void)Name;
    if (Fn.Deriv.empty())
      continue;
    Expected<VerifyStats> Stats = verifyFunction(Program, Fn);
    if (!Stats)
      return Stats.takeFailure();
    Total.StepsChecked += Stats->StepsChecked;
    Total.VirtualStepsChecked += Stats->VirtualStepsChecked;
  }
  return Total;
}
