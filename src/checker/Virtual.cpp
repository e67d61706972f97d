//===- checker/Virtual.cpp ------------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "checker/Virtual.h"

#include <algorithm>
#include <cassert>

using namespace fearless;

ExpectedVoid VirtualEngine::focus(Symbol Var, SourceLoc Loc) {
  const VarBinding *Binding = Ctx.Vars.lookup(Var);
  if (!Binding)
    return fail("cannot focus unbound variable '" + Names.spelling(Var) +
                    "'",
                Loc);
  if (!Binding->VarType.isStruct())
    return fail("cannot focus '" + Names.spelling(Var) +
                    "': not a (non-maybe) struct",
                Loc);
  RegionId R = Binding->Region;
  RegionTrack *Track = Ctx.Heap.lookup(R);
  if (!Track)
    return fail("cannot focus '" + Names.spelling(Var) +
                    "': its region is no longer in the reservation",
                Loc);
  if (Track->Pinned)
    return fail("cannot focus '" + Names.spelling(Var) +
                    "': region " + toString(R) + " is pinned",
                Loc);
  if (!Track->empty()) {
    std::string Others;
    for (const auto &[Other, VT] : Track->Vars) {
      (void)VT;
      if (!Others.empty())
        Others += ", ";
      Others += "'" + Names.spelling(Other) + "'";
    }
    return fail("cannot focus '" + Names.spelling(Var) + "': region " +
                    toString(R) + " already tracks " + Others +
                    " (possible alias)",
                Loc);
  }
  record(RuleId::V1Focus, {Var, {}, R, {}},
         [&] { Track->Vars.emplace(Var, VarTrack{}); });
  return success();
}

ExpectedVoid VirtualEngine::unfocus(Symbol Var, SourceLoc Loc) {
  auto Region = Ctx.Heap.trackingRegionOf(Var);
  if (!Region)
    return fail("cannot unfocus untracked variable '" +
                    Names.spelling(Var) + "'",
                Loc);
  VarTrack *Track = Ctx.Heap.trackedVar(*Region, Var);
  assert(Track && "tracking region without entry");
  if (!Track->Fields.empty())
    return fail("cannot unfocus '" + Names.spelling(Var) +
                    "': it still has tracked fields",
                Loc);
  record(RuleId::V2Unfocus, {Var, {}, *Region, {}},
         [&] { Ctx.Heap.lookup(*Region)->Vars.erase(Var); });
  return success();
}

Expected<RegionId> VirtualEngine::explore(Symbol Var, Symbol Field,
                                          SourceLoc Loc) {
  auto Region = Ctx.Heap.trackingRegionOf(Var);
  if (!Region)
    return fail("cannot explore field of untracked variable '" +
                    Names.spelling(Var) + "'",
                Loc);
  VarTrack *Track = Ctx.Heap.trackedVar(*Region, Var);
  assert(Track && "tracking region without entry");
  if (Track->Pinned)
    return fail("cannot explore field of pinned variable '" +
                    Names.spelling(Var) + "'",
                Loc);
  if (Track->Fields.count(Field))
    return fail("field '" + Names.spelling(Field) + "' of '" +
                    Names.spelling(Var) + "' is already tracked",
                Loc);
  RegionId Target = Supply.fresh();
  record(RuleId::V3Explore, {Var, Field, Target, {}},
         [&] {
           Ctx.Heap.trackedVar(*Region, Var)->Fields[Field] = Target;
           Ctx.Heap.addRegion(Target);
         });
  return Target;
}

ExpectedVoid VirtualEngine::retract(Symbol Var, Symbol Field,
                                    SourceLoc Loc) {
  auto Region = Ctx.Heap.trackingRegionOf(Var);
  if (!Region)
    return fail("cannot retract field of untracked variable '" +
                    Names.spelling(Var) + "'",
                Loc);
  VarTrack *Track = Ctx.Heap.trackedVar(*Region, Var);
  auto FieldIt = Track->Fields.find(Field);
  if (FieldIt == Track->Fields.end())
    return fail("field '" + Names.spelling(Field) + "' of '" +
                    Names.spelling(Var) + "' is not tracked",
                Loc);
  RegionId Target = FieldIt->second;
  const RegionTrack *TargetTrack = Ctx.Heap.lookup(Target);
  if (!TargetTrack)
    return fail("cannot retract '" + Names.spelling(Var) + "." +
                    Names.spelling(Field) +
                    "': its target was invalidated; reassign the field "
                    "first",
                Loc);
  if (!TargetTrack->empty())
    return fail("cannot retract '" + Names.spelling(Var) + "." +
                    Names.spelling(Field) + "': target region " +
                    toString(Target) + " still tracks variables",
                Loc);
  if (TargetTrack->Pinned)
    return fail("cannot retract '" + Names.spelling(Var) + "." +
                    Names.spelling(Field) + "': target region " +
                    toString(Target) + " is pinned",
                Loc);
  // The target region may not be shared with another tracked field or a
  // variable binding we are about to strand silently; V4 simply drops the
  // capability, which *invalidates* those references — legal, but the
  // region itself must only be dropped once.
  record(RuleId::V4Retract, {Var, Field, Target, {}},
         [&] {
           Ctx.Heap.trackedVar(*Region, Var)->Fields.erase(Field);
           Ctx.Heap.removeRegion(Target);
         });
  return success();
}

ExpectedVoid VirtualEngine::attach(RegionId From, RegionId To,
                                   SourceLoc Loc) {
  if (From == To)
    return success();
  if (!Ctx.Heap.hasRegion(From) || !Ctx.Heap.hasRegion(To))
    return fail("cannot attach " + toString(From) + " to " + toString(To) +
                    ": region not in the reservation",
                Loc);
  if (!Ctx.Heap.canAttach(From, To))
    return fail("cannot attach " + toString(From) + " to " + toString(To) +
                    ": pinned region or conflicting tracked variables",
                Loc);
  record(RuleId::V5Attach, {{}, {}, From, To}, [&] {
    Ctx.Heap.attach(From, To);
    Ctx.Vars.renameRegion(From, To);
  });
  return success();
}

ExpectedVoid VirtualEngine::dropRegion(RegionId R, SourceLoc Loc) {
  const RegionTrack *Track = Ctx.Heap.lookup(R);
  if (!Track)
    return fail("cannot drop absent region " + toString(R), Loc);
  if (Track->Pinned)
    return fail("cannot drop pinned region " + toString(R), Loc);
  record(RuleId::FDropRegion, {{}, {}, R, {}},
         [&] { Ctx.Heap.removeRegion(R); });
  return success();
}

ExpectedVoid VirtualEngine::pinRegion(RegionId R, SourceLoc Loc) {
  RegionTrack *Track = Ctx.Heap.lookup(R);
  if (!Track)
    return fail("cannot pin absent region " + toString(R), Loc);
  if (Track->Pinned)
    return success();
  record(RuleId::FPinRegion, {{}, {}, R, {}},
         [&] { Ctx.Heap.lookup(R)->Pinned = true; });
  return success();
}

ExpectedVoid VirtualEngine::pinVar(Symbol Var, SourceLoc Loc) {
  auto Region = Ctx.Heap.trackingRegionOf(Var);
  if (!Region)
    return fail("cannot pin untracked variable '" + Names.spelling(Var) +
                    "'",
                Loc);
  VarTrack *Track = Ctx.Heap.trackedVar(*Region, Var);
  if (Track->Pinned)
    return success();
  record(RuleId::FPinRegion, {Var, {}, {}, {}},
         [&] { Ctx.Heap.trackedVar(*Region, Var)->Pinned = true; });
  return success();
}

ExpectedVoid VirtualEngine::ensureFocused(Symbol Var, SourceLoc Loc) {
  if (Ctx.Heap.trackingRegionOf(Var))
    return success();
  return focus(Var, Loc);
}

Expected<RegionId> VirtualEngine::ensureFieldTracked(Symbol Var,
                                                     Symbol Field,
                                                     SourceLoc Loc) {
  if (auto Err = ensureFocused(Var, Loc); !Err)
    return Err.takeFailure();
  auto Region = Ctx.Heap.trackingRegionOf(Var);
  assert(Region && "just focused");
  const VarTrack *Track = Ctx.Heap.trackedVar(*Region, Var);
  auto FieldIt = Track->Fields.find(Field);
  if (FieldIt != Track->Fields.end())
    return FieldIt->second;
  return explore(Var, Field, Loc);
}

ExpectedVoid VirtualEngine::releaseRegion(RegionId R, SourceLoc Loc) {
  std::vector<RegionId> InProgress;
  return releaseRegionImpl(R, Loc, InProgress);
}

ExpectedVoid
VirtualEngine::releaseRegionImpl(RegionId R, SourceLoc Loc,
                                 std::vector<RegionId> &InProgress) {
  const RegionTrack *Track = Ctx.Heap.lookup(R);
  if (!Track)
    return fail("cannot release absent region " + toString(R), Loc);
  if (Track->Pinned)
    return fail("cannot release pinned region " + toString(R), Loc);
  if (std::find(InProgress.begin(), InProgress.end(), R) !=
      InProgress.end())
    return fail("cannot release region " + toString(R) +
                    ": cyclic tracked-region structure (repoint the "
                    "offending iso fields first)",
                Loc);
  InProgress.push_back(R);
  // Copy the variable list; retracts mutate the context.
  while (true) {
    const RegionTrack *Current = Ctx.Heap.lookup(R);
    assert(Current && "region vanished while releasing");
    if (Current->Vars.empty())
      break;
    Symbol Var = Current->Vars.begin()->first;
    const VarTrack &VTrack = Current->Vars.begin()->second;
    if (VTrack.Pinned)
      return fail("cannot release region " + toString(R) +
                      ": tracked variable '" + Names.spelling(Var) +
                      "' is pinned",
                  Loc);
    while (true) {
      const VarTrack *VT = Ctx.Heap.trackedVar(R, Var);
      assert(VT && "tracked variable vanished while releasing");
      if (VT->Fields.empty())
        break;
      Symbol Field = VT->Fields.begin()->first;
      RegionId Target = VT->Fields.begin()->second;
      if (Ctx.Heap.hasRegion(Target) &&
          !Ctx.Heap.lookup(Target)->empty()) {
        if (auto Err = releaseRegionImpl(Target, Loc, InProgress); !Err)
          return Err;
      }
      if (auto Err = retract(Var, Field, Loc); !Err)
        return Err;
    }
    if (auto Err = unfocus(Var, Loc); !Err)
      return Err;
  }
  InProgress.pop_back();
  return success();
}

ExpectedVoid VirtualEngine::releaseVar(Symbol Var, SourceLoc Loc) {
  auto Region = Ctx.Heap.trackingRegionOf(Var);
  if (!Region)
    return success();
  while (true) {
    const VarTrack *Track = Ctx.Heap.trackedVar(*Region, Var);
    assert(Track && "tracked variable vanished while releasing");
    if (Track->Fields.empty())
      break;
    Symbol Field = Track->Fields.begin()->first;
    RegionId Target = Track->Fields.begin()->second;
    if (Ctx.Heap.hasRegion(Target) && !Ctx.Heap.lookup(Target)->empty()) {
      if (auto Err = releaseRegion(Target, Loc); !Err)
        return Err;
    }
    if (auto Err = retract(Var, Field, Loc); !Err)
      return Err;
  }
  return unfocus(Var, Loc);
}

ExpectedVoid VirtualEngine::mergeRegions(RegionId From, RegionId To,
                                         SourceLoc Loc) {
  return attach(From, To, Loc);
}
