//===- checker/Unify.cpp --------------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "checker/Unify.h"

#include "checker/Virtual.h"
#include "regions/Canonical.h"

#include <algorithm>
#include <cassert>

using namespace fearless;

ConformAblation &fearless::conformAblation() {
  static ConformAblation Config;
  return Config;
}

namespace {

//===----------------------------------------------------------------------===//
// Anchors
//===----------------------------------------------------------------------===//

/// A point of correspondence between contexts: a Γ variable, a tracked
/// field slot, or the merge's result value.
struct Anchor {
  enum class Kind { Var, Slot, Result };
  Kind K = Kind::Var;
  Symbol Var;
  Symbol Field; ///< Valid iff K == Slot.

  bool operator<(const Anchor &Other) const {
    return std::tie(K, Var, Field) <
           std::tie(Other.K, Other.Var, Other.Field);
  }
  bool operator==(const Anchor &) const = default;
};

/// The region an anchor denotes in a context, or nullopt when the anchor
/// is undefined there (slot not tracked / primitive result).
std::optional<RegionId> anchorRegion(const Anchor &A, const Contexts &Ctx,
                                     RegionId Result) {
  switch (A.K) {
  case Anchor::Kind::Var: {
    const VarBinding *Binding = Ctx.Vars.lookup(A.Var);
    if (!Binding || !Binding->Region.isValid())
      return std::nullopt;
    return Binding->Region;
  }
  case Anchor::Kind::Slot: {
    auto Region = Ctx.Heap.trackingRegionOf(A.Var);
    if (!Region)
      return std::nullopt;
    const VarTrack *Track = Ctx.Heap.trackedVar(*Region, A.Var);
    auto It = Track->Fields.find(A.Field);
    if (It == Track->Fields.end())
      return std::nullopt;
    return It->second;
  }
  case Anchor::Kind::Result:
    if (!Result.isValid())
      return std::nullopt;
    return Result;
  }
  return std::nullopt;
}

/// Collects the anchors of a target context: all regionful Γ variables,
/// all tracked slots, and the result (when valid).
std::vector<Anchor> anchorsOf(const Contexts &Target, RegionId Result) {
  std::vector<Anchor> Anchors;
  for (const auto &[Var, Binding] : Target.Vars.entries())
    if (Binding.Region.isValid())
      Anchors.push_back(Anchor{Anchor::Kind::Var, Var, Symbol{}});
  for (const auto &[Region, Track] : Target.Heap.entries()) {
    (void)Region;
    for (const auto &[Var, VTrack] : Track.Vars)
      for (const auto &[Field, TargetRegion] : VTrack.Fields) {
        (void)TargetRegion;
        Anchors.push_back(Anchor{Anchor::Kind::Slot, Var, Field});
      }
  }
  if (Result.isValid())
    Anchors.push_back(Anchor{Anchor::Kind::Result, Symbol{}, Symbol{}});
  return Anchors;
}

/// Minimal union-find over anchor indices.
class UnionFind {
public:
  explicit UnionFind(size_t N) : Parent(N) {
    for (size_t I = 0; I < N; ++I)
      Parent[I] = I;
  }
  size_t find(size_t I) {
    while (Parent[I] != I) {
      Parent[I] = Parent[Parent[I]];
      I = Parent[I];
    }
    return I;
  }
  void merge(size_t A, size_t B) { Parent[find(A)] = find(B); }

private:
  std::vector<size_t> Parent;
};

} // namespace

//===----------------------------------------------------------------------===//
// conformTo
//===----------------------------------------------------------------------===//

ExpectedVoid fearless::conformTo(Contexts &Current,
                                 RegionId &CurrentResult,
                                 const Contexts &Target,
                                 RegionId TargetResult,
                                 RegionSupply &Supply,
                                 const Interner &Names, DerivSink Sink,
                                 size_t *StepCounter, SourceLoc Loc) {
  VirtualEngine Engine(Current, Supply, Names, Sink, StepCounter);

  // (a) Ensure every tracking entry of the target exists in the current
  // context (focus / explore on demand).
  for (const auto &[Region, Track] : Target.Heap.entries()) {
    (void)Region;
    for (const auto &[Var, VTrack] : Track.Vars) {
      if (auto Err = Engine.ensureFocused(Var, Loc); !Err)
        return Err;
      for (const auto &[Field, TargetRegion] : VTrack.Fields) {
        (void)TargetRegion;
        // Only explore when the slot is genuinely missing; a dead slot in
        // the current context stays dead.
        auto CurRegion = Current.Heap.trackingRegionOf(Var);
        const VarTrack *CurTrack = Current.Heap.trackedVar(*CurRegion, Var);
        if (CurTrack->Fields.count(Field))
          continue;
        if (auto Explored = Engine.explore(Var, Field, Loc); !Explored)
          return Explored.takeFailure();
      }
    }
  }

  auto TargetTracksVar = [&](Symbol Var) -> const VarTrack * {
    auto Region = Target.Heap.trackingRegionOf(Var);
    return Region ? Target.Heap.trackedVar(*Region, Var) : nullptr;
  };

  // Protected regions: current regions of anchors that must stay valid
  // per the target. Retracting into them or dropping them would destroy
  // required capabilities.
  std::vector<Anchor> Anchors = anchorsOf(Target, TargetResult);
  auto ComputeProtected = [&]() {
    FlatSet<RegionId> Protected;
    for (const Anchor &A : Anchors) {
      auto TargetRegion = anchorRegion(A, Target, TargetResult);
      if (!TargetRegion || !Target.Heap.hasRegion(*TargetRegion))
        continue; // invalid in target: unprotected
      auto CurRegion = anchorRegion(A, Current, CurrentResult);
      if (CurRegion)
        Protected.insert(*CurRegion);
    }
    return Protected;
  };

  // (b) Best-effort release of tracking entries absent from the target:
  // retract unprotected targets, wholesale-drop regions whose tracking
  // cannot be retracted but whose objects the target no longer needs.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    FlatSet<RegionId> Protected = ComputeProtected();
    // Snapshot: (var, field) pairs and bare tracked vars.
    std::vector<std::pair<Symbol, Symbol>> ExtraFields;
    std::vector<Symbol> MaybeUnfocus;
    for (const auto &[Region, Track] : Current.Heap.entries()) {
      (void)Region;
      for (const auto &[Var, VTrack] : Track.Vars) {
        const VarTrack *TargetTrack = TargetTracksVar(Var);
        for (const auto &[Field, TargetRegion] : VTrack.Fields) {
          (void)TargetRegion;
          if (!TargetTrack || !TargetTrack->Fields.count(Field))
            ExtraFields.push_back({Var, Field});
        }
        if (!TargetTrack && VTrack.Fields.empty())
          MaybeUnfocus.push_back(Var);
      }
    }
    for (auto &[Var, Field] : ExtraFields) {
      auto Region = Current.Heap.trackingRegionOf(Var);
      if (!Region)
        continue;
      const VarTrack *Track = Current.Heap.trackedVar(*Region, Var);
      auto It = Track->Fields.find(Field);
      if (It == Track->Fields.end())
        continue;
      if (conformAblation().ProtectedGuard && Protected.count(It->second))
        continue; // The target still needs this region's capability.
      const RegionTrack *TargetRegionTrack = Current.Heap.lookup(It->second);
      if (!TargetRegionTrack || !TargetRegionTrack->empty() ||
          TargetRegionTrack->Pinned)
        continue; // Not retractable (yet, or at all).
      if (auto Err = Engine.retract(Var, Field, Loc); !Err)
        return Err;
      Changed = true;
    }
    for (Symbol Var : MaybeUnfocus) {
      auto Region = Current.Heap.trackingRegionOf(Var);
      if (!Region)
        continue;
      const VarTrack *Track = Current.Heap.trackedVar(*Region, Var);
      if (!Track->Fields.empty())
        continue;
      if (auto Err = Engine.unfocus(Var, Loc); !Err)
        return Err;
      Changed = true;
    }
    if (Changed)
      continue;
    // Wholesale drops: a variable whose tracking the target does not want
    // but whose fields could not all be retracted (e.g. they guard the
    // live result's region) loses its entire region — the objects become
    // inaccessible while field-target capabilities survive.
    if (!conformAblation().WholesaleDrops)
      continue;
    for (const auto &[Region, Track] : Current.Heap.entries()) {
      if (Track.Pinned || Track.Vars.empty())
        continue;
      if (Protected.count(Region))
        continue;
      bool AllUnwanted = true;
      for (const auto &[Var, VTrack] : Track.Vars) {
        (void)VTrack;
        if (TargetTracksVar(Var)) {
          AllUnwanted = false;
          break;
        }
      }
      if (!AllUnwanted)
        continue;
      if (auto Err = Engine.dropRegion(Region, Loc); !Err)
        return Err;
      Changed = true;
      break; // iterator invalidated
    }
  }

  // (c) Attach: anchors sharing a region in the target must share one in
  // the current context. TargetClasses lists the anchors valid in the
  // target by target region, each class in anchor order.
  std::vector<std::pair<RegionId, const Anchor *>> TargetClasses;
  for (const Anchor &A : Anchors) {
    auto Region = anchorRegion(A, Target, TargetResult);
    if (Region && Target.Heap.hasRegion(*Region))
      TargetClasses.push_back({*Region, &A});
  }
  // Anchors point into one vector, so pointer order is anchor order.
  std::sort(TargetClasses.begin(), TargetClasses.end());
  auto StartsClass = [&](size_t I) {
    return I == 0 || TargetClasses[I - 1].first != TargetClasses[I].first;
  };
  RegionId First;
  for (size_t I = 0; I < TargetClasses.size(); ++I) {
    const Anchor *A = TargetClasses[I].second;
    if (StartsClass(I))
      First = RegionId();
    auto CurRegion = anchorRegion(*A, Current, CurrentResult);
    if (!CurRegion || !Current.Heap.hasRegion(*CurRegion)) {
      std::string What =
          A->K == Anchor::Kind::Result
              ? std::string("the result")
              : A->K == Anchor::Kind::Var
                  ? "variable '" + Names.spelling(A->Var) + "'"
                  : "tracked field '" + Names.spelling(A->Var) + "." +
                        Names.spelling(A->Field) + "'";
      return fail("cannot unify: " + What +
                      " is invalid in one branch but required valid\n"
                      "  have: " + toString(Current, Names) +
                      "\n  want: " + toString(Target, Names),
                  Loc);
    }
    if (!First.isValid()) {
      First = *CurRegion;
      continue;
    }
    if (*CurRegion == First)
      continue;
    if (auto Err = Engine.attach(*CurRegion, First, Loc); !Err)
      return Err;
    if (CurrentResult == *CurRegion)
      CurrentResult = First;
  }

  // (d) Validity: anchors valid here but invalid in the target lose their
  // region (weakening).
  for (const Anchor &A : Anchors) {
    auto TargetRegion = anchorRegion(A, Target, TargetResult);
    bool TargetValid = TargetRegion && Target.Heap.hasRegion(*TargetRegion);
    if (TargetValid)
      continue;
    auto CurRegion = anchorRegion(A, Current, CurrentResult);
    if (!CurRegion || !Current.Heap.hasRegion(*CurRegion))
      continue;
    if (auto Err = Engine.dropRegion(*CurRegion, Loc); !Err)
      return Err;
  }

  // (e) Pins: pin wherever the target is pinned (weakening). The converse
  // (current pinned, target unpinned) fails the final equality.
  for (size_t I = 0; I < TargetClasses.size(); ++I) {
    const auto &[TargetRegion, Leader] = TargetClasses[I];
    if (!StartsClass(I) || !Target.Heap.lookup(TargetRegion)->Pinned)
      continue;
    auto CurRegion = anchorRegion(*Leader, Current, CurrentResult);
    if (CurRegion && Current.Heap.hasRegion(*CurRegion))
      if (auto Err = Engine.pinRegion(*CurRegion, Loc); !Err)
        return Err;
  }
  for (const auto &[Region, Track] : Target.Heap.entries()) {
    (void)Region;
    for (const auto &[Var, VTrack] : Track.Vars)
      if (VTrack.Pinned)
        if (auto Err = Engine.pinVar(Var, Loc); !Err)
          return Err;
  }

  // (f) Garbage-collect and compare.
  dropUnreachableRegions(Current, CurrentResult);
  if (!equivalentUpToRenaming(Current, CurrentResult, Target,
                              TargetResult))
    return fail("contexts do not unify:\n  have: " +
                    toString(Current, Names) + "\n  want: " +
                    toString(Target, Names),
                Loc);
  return success();
}

//===----------------------------------------------------------------------===//
// Meet construction
//===----------------------------------------------------------------------===//

namespace {

using Slot = std::pair<Symbol, Symbol>;

/// All tracked slots across the branches.
FlatSet<Slot> slotUnion(const std::vector<BranchState> &Branches) {
  FlatSet<Slot> Union;
  for (const BranchState &B : Branches)
    for (const auto &[Region, Track] : B.Ctx.Heap.entries()) {
      (void)Region;
      for (const auto &[Var, VTrack] : Track.Vars)
        for (const auto &[Field, Target] : VTrack.Fields) {
          (void)Target;
          Union.insert({Var, Field});
        }
    }
  return Union;
}

/// Slots that cannot be eliminated in some branch: their target region is
/// dead there *and* the hosting variable is wanted (live or a parameter),
/// so conformance can neither retract the field nor wholesale-drop the
/// host region.
FlatSet<Slot> forcedSlots(const std::vector<BranchState> &Branches,
                          const Continuation &Cont) {
  FlatSet<Slot> Forced;
  for (const BranchState &B : Branches)
    for (const auto &[Region, Track] : B.Ctx.Heap.entries()) {
      (void)Region;
      for (const auto &[Var, VTrack] : Track.Vars) {
        if (!Cont.wants(Var))
          continue;
        for (const auto &[Field, Target] : VTrack.Fields)
          if (!B.Ctx.Heap.hasRegion(Target))
            Forced.insert({Var, Field});
      }
    }
  return Forced;
}

/// The liveness oracle (§5.1): slots to keep across the merge.
///
/// A slot (x, f) is kept only when x is *wanted* (live or a parameter):
/// unwanted hosts can always be dropped wholesale, which preserves their
/// field-target capabilities. A wanted host's region cannot be dropped,
/// so its slot must be kept whenever retracting would destroy a needed
/// capability: the continuation reads x.f, the field is invalidated (the
/// reassignment obligation must survive), or the target region carries a
/// live variable, the live result, or another kept slot's tracking.
FlatSet<Slot> neededSlots(const std::vector<BranchState> &Branches,
                          const Continuation &Cont) {
  FlatSet<Slot> Needed = forcedSlots(Branches, Cont);
  FlatSet<Slot> Union = slotUnion(Branches);
  for (const Slot &S : Union)
    if (Cont.wants(S.first) && Cont.Live.usesField(S.first, S.second))
      Needed.insert(S);

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const Slot &S : Union) {
      if (Needed.count(S) || !Cont.wants(S.first))
        continue;
      for (const BranchState &B : Branches) {
        auto Region = B.Ctx.Heap.trackingRegionOf(S.first);
        if (!Region)
          continue;
        const VarTrack *Track = B.Ctx.Heap.trackedVar(*Region, S.first);
        auto It = Track->Fields.find(S.second);
        if (It == Track->Fields.end())
          continue;
        RegionId Target = It->second;
        if (!B.Ctx.Heap.hasRegion(Target))
          continue; // dead: handled by forcedSlots
        bool Matters = false;
        // Live variable bound to the target region?
        for (Symbol LiveVar : Cont.Live.Vars) {
          const VarBinding *Binding = B.Ctx.Vars.lookup(LiveVar);
          if (Binding && Binding->Region == Target) {
            Matters = true;
            break;
          }
        }
        // Live result in the target region?
        if (!Matters && Cont.ResultLive && B.ResultRegion == Target)
          Matters = true;
        // Kept tracking hosted by a *wanted* variable in the target
        // region? (An unwanted host's region would be dropped wholesale,
        // preserving capabilities, so it does not force this slot.)
        if (!Matters) {
          const RegionTrack *TT = B.Ctx.Heap.lookup(Target);
          for (const auto &[HostedVar, HostedTrack] : TT->Vars) {
            if (!Cont.wants(HostedVar))
              continue;
            for (const auto &[HostedField, HostedTarget] :
                 HostedTrack.Fields) {
              (void)HostedTarget;
              if (Needed.count({HostedVar, HostedField})) {
                Matters = true;
                break;
              }
            }
            if (Matters)
              break;
          }
        }
        if (Matters) {
          Needed.insert(S);
          Changed = true;
          break;
        }
      }
    }
  }
  return Needed;
}

/// Builds the meet context M for the given keep-set of slots. Returns the
/// meet and its result region.
struct Meet {
  Contexts Ctx;
  RegionId ResultRegion;
};

Meet buildMeet(const std::vector<BranchState> &Branches,
               const FlatSet<Slot> &Keep, const Type &ResultType,
               const Continuation &Cont, RegionSupply &Supply) {
  assert(!Branches.empty());
  const Contexts &First = Branches.front().Ctx;

  // Variables hosting kept slots must stay valid (their tracking lives in
  // their region).
  FlatSet<Symbol> SlotHosts;
  for (const Slot &S : Keep)
    SlotHosts.insert(S.first);

  // Anchor list: regionful Γ variables, kept slots, result.
  std::vector<Anchor> Anchors;
  for (const auto &[Var, Binding] : First.Vars.entries())
    if (Binding.Region.isValid())
      Anchors.push_back(Anchor{Anchor::Kind::Var, Var, Symbol{}});
  for (const Slot &S : Keep)
    Anchors.push_back(Anchor{Anchor::Kind::Slot, S.first, S.second});
  bool HasResult = ResultType.isRegionful();
  if (HasResult)
    Anchors.push_back(Anchor{Anchor::Kind::Result, Symbol{}, Symbol{}});

  // Partition join across branches.
  UnionFind Classes(Anchors.size());
  for (const BranchState &B : Branches) {
    FlatMap<RegionId, size_t> Rep;
    for (size_t I = 0; I < Anchors.size(); ++I) {
      auto Region = anchorRegion(Anchors[I], B.Ctx, B.ResultRegion);
      if (!Region || !B.Ctx.Heap.hasRegion(*Region))
        continue; // undefined or invalid: unconstrained here
      auto [It, Inserted] = Rep.emplace(*Region, I);
      if (!Inserted)
        Classes.merge(I, It->second);
    }
  }

  // Class validity: every defined member region present in every branch,
  // *and* the class is wanted — it contains the result, a kept slot, or
  // a wanted variable (live, parameter, or slot host). Unwanted classes
  // are invalidated: dropping a dead variable's region wholesale is how
  // conformance eliminates tracking it cannot retract.
  // Indexed by class representative.
  std::vector<char> ClassValid(Anchors.size(), true);
  std::vector<char> ClassPinned(Anchors.size(), false);
  std::vector<char> ClassWanted(Anchors.size(), false);
  for (size_t I = 0; I < Anchors.size(); ++I) {
    size_t C = Classes.find(I);
    const Anchor &A = Anchors[I];
    if (A.K == Anchor::Kind::Result || A.K == Anchor::Kind::Slot ||
        (A.K == Anchor::Kind::Var &&
         (Cont.wants(A.Var) || SlotHosts.count(A.Var))))
      ClassWanted[C] = true;
    for (const BranchState &B : Branches) {
      auto Region = anchorRegion(A, B.Ctx, B.ResultRegion);
      if (!Region)
        continue; // slot missing: will be explored fresh (valid)
      const RegionTrack *Track = B.Ctx.Heap.lookup(*Region);
      if (!Track)
        ClassValid[C] = false;
      else if (Track->Pinned)
        ClassPinned[C] = true;
    }
  }
  for (size_t C = 0; C < Anchors.size(); ++C)
    if (!ClassWanted[C])
      ClassValid[C] = false;

  // Assign meet regions.
  Meet M;
  RegionId DeadId = Supply.fresh(); // never added to M's H
  std::vector<RegionId> ClassRegion(Anchors.size()); // invalid: unassigned
  for (size_t I = 0; I < Anchors.size(); ++I) {
    size_t C = Classes.find(I);
    if (ClassRegion[C].isValid())
      continue;
    if (ClassValid[C]) {
      RegionId R = Supply.fresh();
      M.Ctx.Heap.addRegion(R);
      M.Ctx.Heap.lookup(R)->Pinned = ClassPinned[C];
      ClassRegion[C] = R;
    } else {
      ClassRegion[C] = DeadId;
    }
  }

  auto RegionOfAnchor = [&](const Anchor &A) {
    auto It = std::find(Anchors.begin(), Anchors.end(), A);
    assert(It != Anchors.end());
    return ClassRegion[Classes.find(
        static_cast<size_t>(It - Anchors.begin()))];
  };

  // Γ.
  for (const auto &[Var, Binding] : First.Vars.entries()) {
    VarBinding NewBinding = Binding;
    if (Binding.Region.isValid())
      NewBinding.Region =
          RegionOfAnchor(Anchor{Anchor::Kind::Var, Var, Symbol{}});
    M.Ctx.Vars.bind(Var, NewBinding);
  }

  // Tracking: kept slots, grouped per variable. A slot on a variable whose
  // class is dead is omitted (conformance drops the region wholesale).
  // Variable pin: OR over branches.
  for (const Slot &S : Keep) {
    RegionId HostRegion =
        RegionOfAnchor(Anchor{Anchor::Kind::Var, S.first, Symbol{}});
    if (!M.Ctx.Heap.hasRegion(HostRegion))
      continue;
    RegionTrack *Track = M.Ctx.Heap.lookup(HostRegion);
    VarTrack &VTrack = Track->Vars[S.first];
    for (const BranchState &B : Branches) {
      auto Region = B.Ctx.Heap.trackingRegionOf(S.first);
      if (!Region)
        continue;
      if (B.Ctx.Heap.trackedVar(*Region, S.first)->Pinned)
        VTrack.Pinned = true;
    }
    VTrack.Fields[S.second] =
        RegionOfAnchor(Anchor{Anchor::Kind::Slot, S.first, S.second});
  }

  M.ResultRegion =
      HasResult
          ? RegionOfAnchor(Anchor{Anchor::Kind::Result, Symbol{}, Symbol{}})
          : RegionId();
  return M;
}

} // namespace

//===----------------------------------------------------------------------===//
// unifyBranches
//===----------------------------------------------------------------------===//

Expected<UnifyOutcome> fearless::unifyBranches(
    std::vector<BranchState> Branches, const Type &ResultType,
    const Continuation &Cont, const UnifyOptions &Opts,
    RegionSupply &Supply, const Interner &Names, SourceLoc Loc,
    size_t *StepCounter) {
  assert(!Branches.empty() && "unifying zero branches");

  // Γ domains must agree (the checker closes scopes before merging).
  for (const BranchState &B : Branches)
    for (const auto &[Var, Binding] : B.Ctx.Vars.entries()) {
      (void)Binding;
      if (!Branches.front().Ctx.Vars.contains(Var))
        return fail("internal: branch variable domains differ at merge",
                    Loc);
    }

  if (Branches.size() == 1) {
    UnifyOutcome Out;
    Out.Ctx = std::move(Branches.front().Ctx);
    Out.ResultRegion = Branches.front().ResultRegion;
    dropUnreachableRegions(Out.Ctx, Out.ResultRegion);
    return Out;
  }

  // Each candidate is first conformed on a trial copy of every branch;
  // one copy, reassigned, serves them all.
  Contexts Trial;
  auto TryKeepSet = [&](const FlatSet<Slot> &Keep, bool Apply,
                        std::string *Error) -> bool {
    Meet M = buildMeet(Branches, Keep, ResultType, Cont, Supply);
    for (BranchState &B : Branches) {
      Trial = B.Ctx;
      RegionId TrialResult = B.ResultRegion;
      auto Err = conformTo(Trial, TrialResult, M.Ctx, M.ResultRegion,
                           Supply, Names, DerivSink(), nullptr, Loc);
      if (!Err) {
        if (Error)
          *Error = Err.error().Message;
        return false;
      }
    }
    if (!Apply)
      return true;
    for (BranchState &B : Branches) {
      auto Err = conformTo(B.Ctx, B.ResultRegion, M.Ctx, M.ResultRegion,
                           Supply, Names, B.Sink, StepCounter, Loc);
      assert(Err && "conformance succeeded on copy but failed on branch");
      (void)Err;
      // Each branch keeps its own (equivalent) region names; the result
      // region stays whatever it was in that branch.
    }
    return true;
  };

  UnifyOutcome Out;
  std::string FirstError;

  if (Opts.UseLivenessOracle) {
    FlatSet<Slot> Keep = neededSlots(Branches, Cont);
    ++Out.CandidatesTried;
    if (TryKeepSet(Keep, /*Apply=*/true, &FirstError)) {
      // The branches now all equal the meet up to renaming; continue with
      // branch 0's conformed context (concrete names consistent with Γ).
      Out.Ctx = Branches.front().Ctx;
      Out.ResultRegion = Branches.front().ResultRegion;
      return Out;
    }
    // Fall through to search.
  }

  // Backtracking search over keep-subsets (largest first), as §4.6's
  // worst-case procedure.
  FlatSet<Slot> Union = slotUnion(Branches);
  FlatSet<Slot> Forced = forcedSlots(Branches, Cont);
  std::vector<Slot> Optional;
  for (const Slot &S : Union)
    if (!Forced.count(S))
      Optional.push_back(S);

  if (Optional.size() > 24)
    return fail("branch unification search space too large (" +
                    std::to_string(Optional.size()) + " tracked slots)",
                Loc);

  size_t N = Optional.size();
  // Enumerate subsets by ascending size. Keeping too little fails *at the
  // merge* (the conformance guards protect live capabilities), while
  // keeping too much only fails later (scope exits, signature outputs) —
  // so smallest-first is the complete order that needs no continuation
  // backtracking.
  for (size_t KeepCount = 0; KeepCount <= N; ++KeepCount) {
    // Iterate combinations of size KeepCount via bitmask enumeration.
    std::vector<bool> Select(N, false);
    std::fill(Select.begin(), Select.begin() + KeepCount, true);
    do {
      if (Out.CandidatesTried >= Opts.SearchLimit)
        return fail("branch unification exceeded the search limit (" +
                        std::to_string(Opts.SearchLimit) + " candidates)" +
                        (FirstError.empty() ? "" : "; first failure: " +
                                                       FirstError),
                    Loc);
      FlatSet<Slot> Keep = Forced;
      for (size_t I = 0; I < N; ++I)
        if (Select[I])
          Keep.insert(Optional[I]);
      ++Out.CandidatesTried;
      std::string Error;
      if (TryKeepSet(Keep, /*Apply=*/true, &Error)) {
        Out.Ctx = Branches.front().Ctx;
        Out.ResultRegion = Branches.front().ResultRegion;
        return Out;
      }
      if (FirstError.empty())
        FirstError = Error;
    } while (std::prev_permutation(Select.begin(), Select.end()));
  }

  return fail("branches do not unify" +
                  (FirstError.empty() ? std::string()
                                      : ": " + FirstError),
              Loc);
}
