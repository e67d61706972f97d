//===- verifier/Verifier.cpp ----------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "verifier/Verifier.h"

#include "regions/Canonical.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <tuple>
#include <unordered_set>
#include <vector>

using namespace fearless;

namespace {

/// Walks a derivation re-validating each step.
class Verifier {
public:
  Verifier(const CheckedProgram &Program, const CheckedFunction &Fn)
      : Program(Program), Fn(Fn), Names(Program.Prog->Names) {}

  Expected<VerifyStats> run() {
    if (!Fn.Derivation)
      return fail("function has no derivation to verify");
    if (auto Err = verifyStep(*Fn.Derivation); !Err)
      return Err.takeFailure();
    // The root's final context must conform to the declared output.
    Contexts Final = *Fn.Derivation->After;
    Contexts Output = Fn.Sig.Output;
    RegionId FinalResult = Fn.Derivation->ResultRegion;
    dropUnreachableRegions(Final, FinalResult);
    dropUnreachableRegions(Output, Fn.Sig.ResultRegion);
    if (!equivalentUpToRenaming(Final, FinalResult, Output,
                                Fn.Sig.ResultRegion))
      return fail("derivation's final context does not match the declared "
                  "signature output:\n  have: " +
                  toString(Final, Names) + "\n  want: " +
                  toString(Output, Names));
    return Stats;
  }

private:
  /// Well-formedness of \p Snapshot, checked once per distinct snapshot:
  /// derivation steps share immutable snapshots, so one already checked
  /// in this function needs no second look.
  std::optional<std::string> checkSnapshot(const Contexts &Snapshot) {
    if (!CheckedSnapshots.insert(&Snapshot).second)
      return std::nullopt;
    return checkWellFormed(Snapshot, Names);
  }

  ExpectedVoid verifyStep(const DerivStep &Step) {
    ++Stats.StepsChecked;
    if (auto Problem = checkSnapshot(*Step.Before))
      return fail("ill-formed context before " + Step.Rule + ": " +
                  *Problem);
    if (auto Problem = checkSnapshot(*Step.After))
      return fail("ill-formed context after " + Step.Rule + ": " +
                  *Problem);

    if (Step.Rule == rules::V1Focus)
      return verifyFocus(Step);
    if (Step.Rule == rules::V2Unfocus)
      return verifyUnfocus(Step);
    if (Step.Rule == rules::V3Explore)
      return verifyExplore(Step);
    if (Step.Rule == rules::V4Retract)
      return verifyRetract(Step);
    if (Step.Rule == rules::V5Attach)
      return verifyAttach(Step);
    if (Step.Rule == rules::FDropRegion)
      return verifyDropRegion(Step);
    if (Step.Rule == rules::FPinRegion)
      return verifyPin(Step);

    // Expression steps: verify recursively, then rule-local facts.
    for (const auto &Child : Step.Children)
      if (auto Err = verifyStep(*Child); !Err)
        return Err;
    return verifyExprFacts(Step);
  }

  //===--------------------------------------------------------------------===
  // Virtual transformations: recompute the instance and compare exactly.
  //===--------------------------------------------------------------------===

  /// Finds the unique (region, var) whose tracking differs. Returns false
  /// if the diff is not a single-variable tracking change.
  static bool
  diffTrackedVars(const HeapCtx &Before, const HeapCtx &After,
                  RegionId &Region, Symbol &Var, bool &AddedInAfter) {
    // Collect (region, var) keys on both sides. H iterates in region,
    // then variable order, so each list comes out sorted.
    using Key = std::pair<RegionId, Symbol>;
    auto Collect = [](const HeapCtx &H) {
      std::vector<Key> Keys;
      for (const auto &[R, Track] : H.entries())
        for (const auto &[V, VT] : Track.Vars) {
          (void)VT;
          Keys.push_back({R, V});
        }
      return Keys;
    };
    std::vector<Key> BeforeKeys = Collect(Before);
    std::vector<Key> AfterKeys = Collect(After);
    std::vector<Key> OnlyBefore, OnlyAfter;
    std::set_difference(BeforeKeys.begin(), BeforeKeys.end(),
                        AfterKeys.begin(), AfterKeys.end(),
                        std::back_inserter(OnlyBefore));
    std::set_difference(AfterKeys.begin(), AfterKeys.end(),
                        BeforeKeys.begin(), BeforeKeys.end(),
                        std::back_inserter(OnlyAfter));
    if (OnlyBefore.size() + OnlyAfter.size() != 1)
      return false;
    AddedInAfter = !OnlyAfter.empty();
    std::tie(Region, Var) =
        AddedInAfter ? OnlyAfter.front() : OnlyBefore.front();
    return true;
  }

  ExpectedVoid verifyVStepEnd() {
    ++Stats.VirtualStepsChecked;
    return success();
  }

  ExpectedVoid verifyFocus(const DerivStep &Step) {
    RegionId Region;
    Symbol Var;
    bool Added = false;
    if (!diffTrackedVars(Step.Before->Heap, Step.After->Heap, Region, Var,
                         Added) ||
        !Added)
      return fail("V1-Focus: diff is not a single added tracked variable");
    const RegionTrack *BeforeTrack = Step.Before->Heap.lookup(Region);
    if (!BeforeTrack || !BeforeTrack->empty() || BeforeTrack->Pinned)
      return fail("V1-Focus: region was not empty and unpinned");
    const VarBinding *Binding = Step.Before->Vars.lookup(Var);
    if (!Binding || Binding->Region != Region ||
        !Binding->VarType.isStruct())
      return fail("V1-Focus: variable not bound to the focused region "
                  "with a struct type");
    // Recompute After.
    Contexts Expect = *Step.Before;
    Expect.Heap.lookup(Region)->Vars.emplace(Var, VarTrack{});
    if (!(Expect == *Step.After))
      return fail("V1-Focus: After context is not the exact instance");
    return verifyVStepEnd();
  }

  ExpectedVoid verifyUnfocus(const DerivStep &Step) {
    RegionId Region;
    Symbol Var;
    bool Added = false;
    if (!diffTrackedVars(Step.Before->Heap, Step.After->Heap, Region, Var,
                         Added) ||
        Added)
      return fail("V2-Unfocus: diff is not a single removed tracked "
                  "variable");
    const VarTrack *Track = Step.Before->Heap.trackedVar(Region, Var);
    if (!Track || !Track->Fields.empty())
      return fail("V2-Unfocus: variable still had tracked fields");
    Contexts Expect = *Step.Before;
    Expect.Heap.lookup(Region)->Vars.erase(Var);
    if (!(Expect == *Step.After))
      return fail("V2-Unfocus: After context is not the exact instance");
    return verifyVStepEnd();
  }

  /// Finds the unique (region, var, field) tracked-field diff.
  static bool diffTrackedFields(const HeapCtx &Before, const HeapCtx &After,
                                RegionId &Region, Symbol &Var,
                                Symbol &Field, RegionId &Target,
                                bool &AddedInAfter) {
    // (region, var, field) -> target on both sides, sorted by key as H
    // iterates; the diff compares keys only.
    using Key = std::tuple<RegionId, Symbol, Symbol>;
    using Entry = std::pair<Key, RegionId>;
    auto Collect = [](const HeapCtx &H) {
      std::vector<Entry> Entries;
      for (const auto &[R, Track] : H.entries())
        for (const auto &[V, VT] : Track.Vars)
          for (const auto &[F, T] : VT.Fields)
            Entries.push_back({Key{R, V, F}, T});
      return Entries;
    };
    auto KeyLess = [](const Entry &A, const Entry &B) {
      return A.first < B.first;
    };
    std::vector<Entry> BeforeFields = Collect(Before);
    std::vector<Entry> AfterFields = Collect(After);
    std::vector<Entry> OnlyBefore, OnlyAfter;
    std::set_difference(BeforeFields.begin(), BeforeFields.end(),
                        AfterFields.begin(), AfterFields.end(),
                        std::back_inserter(OnlyBefore), KeyLess);
    std::set_difference(AfterFields.begin(), AfterFields.end(),
                        BeforeFields.begin(), BeforeFields.end(),
                        std::back_inserter(OnlyAfter), KeyLess);
    if (OnlyBefore.size() + OnlyAfter.size() != 1)
      return false;
    AddedInAfter = !OnlyAfter.empty();
    const auto &[K, T] =
        AddedInAfter ? OnlyAfter.front() : OnlyBefore.front();
    std::tie(Region, Var, Field) = K;
    Target = T;
    return true;
  }

  ExpectedVoid verifyExplore(const DerivStep &Step) {
    RegionId Region, Target;
    Symbol Var, Field;
    bool Added = false;
    if (!diffTrackedFields(Step.Before->Heap, Step.After->Heap, Region, Var,
                           Field, Target, Added) ||
        !Added)
      return fail("V3-Explore: diff is not a single added tracked field");
    if (Step.Before->Heap.hasRegion(Target))
      return fail("V3-Explore: target region is not fresh");
    const VarTrack *Track = Step.Before->Heap.trackedVar(Region, Var);
    if (!Track || Track->Pinned)
      return fail("V3-Explore: variable untracked or pinned");
    Contexts Expect = *Step.Before;
    Expect.Heap.trackedVar(Region, Var)->Fields[Field] = Target;
    Expect.Heap.addRegion(Target);
    if (!(Expect == *Step.After))
      return fail("V3-Explore: After context is not the exact instance");
    return verifyVStepEnd();
  }

  ExpectedVoid verifyRetract(const DerivStep &Step) {
    RegionId Region, Target;
    Symbol Var, Field;
    bool Added = false;
    if (!diffTrackedFields(Step.Before->Heap, Step.After->Heap, Region, Var,
                           Field, Target, Added) ||
        Added)
      return fail("V4-Retract: diff is not a single removed tracked "
                  "field");
    const RegionTrack *TargetTrack = Step.Before->Heap.lookup(Target);
    if (!TargetTrack || !TargetTrack->empty() || TargetTrack->Pinned)
      return fail("V4-Retract: target region not present, empty, and "
                  "unpinned");
    Contexts Expect = *Step.Before;
    Expect.Heap.trackedVar(Region, Var)->Fields.erase(Field);
    Expect.Heap.removeRegion(Target);
    if (!(Expect == *Step.After))
      return fail("V4-Retract: After context is not the exact instance");
    return verifyVStepEnd();
  }

  ExpectedVoid verifyAttach(const DerivStep &Step) {
    // The removed region is the one present before and absent after.
    RegionId From;
    for (const auto &[R, Track] : Step.Before->Heap.entries()) {
      (void)Track;
      if (!Step.After->Heap.hasRegion(R)) {
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
    for (const auto &[To, Track] : Step.After->Heap.entries()) {
      (void)Track;
      if (!Step.Before->Heap.hasRegion(To))
        continue;
      if (!Step.Before->Heap.canAttach(From, To))
        continue;
      Contexts Expect = *Step.Before;
      Expect.Heap.attach(From, To);
      Expect.Vars.renameRegion(From, To);
      if (Expect == *Step.After)
        return verifyVStepEnd();
    }
    return fail("V5-Attach: no legal attach target reproduces the After "
                "context");
  }

  ExpectedVoid verifyDropRegion(const DerivStep &Step) {
    RegionId Dropped;
    for (const auto &[R, Track] : Step.Before->Heap.entries()) {
      (void)Track;
      if (!Step.After->Heap.hasRegion(R)) {
        if (Dropped.isValid())
          return fail("F-Drop-Region: more than one region disappeared");
        Dropped = R;
      }
    }
    if (!Dropped.isValid())
      return fail("F-Drop-Region: no region disappeared");
    if (Step.Before->Heap.lookup(Dropped)->Pinned)
      return fail("F-Drop-Region: dropped region was pinned");
    Contexts Expect = *Step.Before;
    Expect.Heap.removeRegion(Dropped);
    if (!(Expect == *Step.After))
      return fail("F-Drop-Region: After context is not the exact "
                  "instance");
    return verifyVStepEnd();
  }

  ExpectedVoid verifyPin(const DerivStep &Step) {
    // A pin sets exactly one pin flag (region or tracked variable).
    size_t Diffs = 0;
    Contexts Expect = *Step.Before;
    for (auto &[R, Track] : Step.Before->Heap.entries()) {
      const RegionTrack *AfterTrack = Step.After->Heap.lookup(R);
      if (!AfterTrack)
        return fail("F-Pin-Region: region disappeared");
      if (Track.Pinned != AfterTrack->Pinned) {
        if (Track.Pinned)
          return fail("F-Pin-Region: pin flag removed");
        Expect.Heap.lookup(R)->Pinned = true;
        ++Diffs;
      }
      for (auto &[V, VT] : Track.Vars) {
        const VarTrack *AfterVT = Step.After->Heap.trackedVar(R, V);
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
    if (Diffs != 1 || !(Expect == *Step.After))
      return fail("F-Pin-Region: After context is not a single added pin");
    return verifyVStepEnd();
  }

  //===--------------------------------------------------------------------===
  // Expression-rule local facts
  //===--------------------------------------------------------------------===

  ExpectedVoid verifyExprFacts(const DerivStep &Step) {
    if (Step.Rule == "T2-Variable-Ref") {
      const auto *Var = dyn_cast<VarRefExpr>(Step.E);
      if (!Var)
        return fail("T2: step is not a variable reference");
      const VarBinding *Binding = Step.Before->Vars.lookup(Var->Name);
      if (!Binding)
        return fail("T2: variable not bound in Γ");
      if (Binding->VarType.isRegionful() &&
          !Step.Before->Heap.hasRegion(Binding->Region))
        return fail("T2: variable's region capability missing from H");
      if (!(*Step.Before == *Step.After))
        return fail("T2: variable reference must not change the context");
      return success();
    }
    if (Step.Rule == "T5-Isolated-Field-Reference") {
      const auto *Ref = dyn_cast<FieldRefExpr>(Step.E);
      if (!Ref || !isa<VarRefExpr>(Ref->Base.get()))
        return fail("T5: step is not an iso field read on a variable");
      Symbol Var = cast<VarRefExpr>(*Ref->Base).Name;
      auto Region = Step.After->Heap.trackingRegionOf(Var);
      if (!Region)
        return fail("T5: base variable is not tracked afterwards");
      const VarTrack *Track = Step.After->Heap.trackedVar(*Region, Var);
      auto It = Track->Fields.find(Ref->Field);
      if (It == Track->Fields.end())
        return fail("T5: field is not tracked afterwards");
      if (Step.ResultType.isRegionful() &&
          It->second != Step.ResultRegion)
        return fail("T5: result region is not the tracked target");
      if (!Step.After->Heap.hasRegion(It->second))
        return fail("T5: tracked target region missing from H");
      return success();
    }
    if (Step.Rule == "T7-Isolated-Field-Assignment") {
      const auto *Assign = dyn_cast<AssignFieldExpr>(Step.E);
      if (!Assign || !isa<VarRefExpr>(Assign->Base.get()))
        return fail("T7: step is not an iso field write on a variable");
      Symbol Var = cast<VarRefExpr>(*Assign->Base).Name;
      auto Region = Step.After->Heap.trackingRegionOf(Var);
      if (!Region)
        return fail("T7: base variable is not tracked afterwards");
      const VarTrack *Track = Step.After->Heap.trackedVar(*Region, Var);
      if (!Track->Fields.count(Assign->Field))
        return fail("T7: assigned field is not tracked afterwards");
      return success();
    }
    if (Step.Rule == "T16-Send") {
      // The operand child's result region must have left H.
      if (Step.Children.empty())
        return fail("T16: missing operand derivation");
      const DerivStep *Operand = nullptr;
      for (const auto &Child : Step.Children)
        if (Child->E)
          Operand = Child.get();
      if (!Operand)
        return fail("T16: missing operand derivation");
      if (Operand->ResultType.isRegionful() &&
          Step.After->Heap.hasRegion(Operand->ResultRegion))
        return fail("T16: sent region still present in H");
      return success();
    }
    if (Step.Rule == "T17-Receive" || Step.Rule == "T10-New-Loc") {
      if (Step.ResultType.isRegionful()) {
        if (!Step.After->Heap.hasRegion(Step.ResultRegion))
          return fail(Step.Rule + ": result region missing from H");
        if (Step.Before->Heap.hasRegion(Step.ResultRegion))
          return fail(Step.Rule + ": result region is not fresh");
      }
      return success();
    }
    if (Step.Rule == "T9-Function-Application") {
      const auto *Call = dyn_cast<CallExpr>(Step.E);
      if (!Call)
        return fail("T9: step is not a call");
      auto It = Program.Signatures.find(Call->Callee);
      if (It == Program.Signatures.end())
        return fail("T9: unknown callee");
      if (!(Step.ResultType == It->second.ReturnType))
        return fail("T9: result type does not match the signature");
      if (Step.ResultType.isRegionful() &&
          !Step.After->Heap.hasRegion(Step.ResultRegion))
        return fail("T9: result region missing from H");
      return success();
    }
    // Other rules: structural checks (well-formedness, children) already
    // ran; result-region sanity where applicable.
    if (Step.ResultType.isRegionful() && Step.ResultRegion.isValid() &&
        !Step.After->Heap.hasRegion(Step.ResultRegion))
      return fail(Step.Rule + ": result region missing from H");
    return success();
  }

  Failure fail(std::string Message) {
    return fearless::fail("verifier: " + Message +
                          (CurrentExpr.empty() ? "" : " [at " + CurrentExpr +
                                                          "]"));
  }

  const CheckedProgram &Program;
  const CheckedFunction &Fn;
  const Interner &Names;
  VerifyStats Stats;
  std::string CurrentExpr;
  /// Snapshots whose well-formedness this walk already established.
  std::unordered_set<const Contexts *> CheckedSnapshots;
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
    if (!Fn.Derivation)
      continue;
    Expected<VerifyStats> Stats = verifyFunction(Program, Fn);
    if (!Stats)
      return Stats.takeFailure();
    Total.StepsChecked += Stats->StepsChecked;
    Total.VirtualStepsChecked += Stats->VirtualStepsChecked;
  }
  return Total;
}
