//===- regions/Canonical.cpp ----------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "regions/Canonical.h"

#include <cassert>
#include <vector>

using namespace fearless;

void fearless::dropUnreachableRegions(Contexts &Ctx, RegionId ExtraRoot) {
  // Iterate to a fixpoint: dropping a region never makes another region
  // reachable, so a single pass over a recomputed reachable set suffices.
  FlatMap<RegionId, bool> Reachable;
  for (const auto &[Region, Track] : Ctx.Heap.entries()) {
    (void)Track;
    Reachable.emplace(Region, false);
  }
  auto MarkIfPresent = [&](RegionId R) {
    auto It = Reachable.find(R);
    if (It != Reachable.end())
      It->second = true;
  };
  for (const auto &[Var, Binding] : Ctx.Vars.entries()) {
    (void)Var;
    if (Binding.Region.isValid())
      MarkIfPresent(Binding.Region);
  }
  if (ExtraRoot.isValid())
    MarkIfPresent(ExtraRoot);
  for (const auto &[Region, Track] : Ctx.Heap.entries()) {
    (void)Region;
    for (const auto &[Var, VTrack] : Track.Vars) {
      (void)Var;
      for (const auto &[Field, Target] : VTrack.Fields) {
        (void)Field;
        MarkIfPresent(Target);
      }
    }
  }
  // Regions only tracked *from* an unreachable region do not exist:
  // unreachable regions have empty tracking contexts (well-formedness ties
  // tracked variables to Γ), so no second pass is needed.
  for (const auto &[Region, IsReachable] : Reachable)
    if (!IsReachable) {
      assert(Ctx.Heap.lookup(Region)->empty() &&
             "unreachable region with non-empty tracking context");
      Ctx.Heap.removeRegion(Region);
    }
}

CanonicalForm fearless::canonicalize(const Contexts &Ctx,
                                     RegionId ExtraRoot) {
  CanonicalForm Result;
  uint32_t Next = 0;
  // Breadth-first queue: Worklist[Head..] is still to be visited.
  std::vector<RegionId> Worklist;
  size_t Head = 0;

  auto Assign = [&](RegionId R) -> RegionId {
    if (!R.isValid())
      return R;
    auto It = Result.Renaming.find(R);
    if (It != Result.Renaming.end())
      return It->second;
    RegionId Canon;
    if (Ctx.Heap.hasRegion(R)) {
      Canon = RegionId{++Next};
      Worklist.push_back(R);
    } else {
      Canon = RegionId{DeadCanonicalRegion};
    }
    Result.Renaming.emplace(R, Canon);
    return Canon;
  };

  // Seed: Γ bindings in symbol order, then the extra root.
  for (const auto &[Var, Binding] : Ctx.Vars.entries()) {
    (void)Var;
    Assign(Binding.Region);
  }
  if (ExtraRoot.isValid())
    Assign(ExtraRoot);

  // Breadth-first over tracked-field targets.
  while (Head < Worklist.size()) {
    RegionId R = Worklist[Head++];
    const RegionTrack *Track = Ctx.Heap.lookup(R);
    assert(Track && "worklist region vanished");
    for (const auto &[Var, VTrack] : Track->Vars) {
      (void)Var;
      for (const auto &[Field, Target] : VTrack.Fields) {
        (void)Field;
        Assign(Target);
      }
    }
  }

  assert(Result.Renaming.size() >=
             Ctx.Heap.entries().size() &&
         "canonicalize requires all regions reachable; run "
         "dropUnreachableRegions first");

  // Build the renamed contexts.
  for (const auto &[Var, Binding] : Ctx.Vars.entries()) {
    VarBinding NewBinding = Binding;
    if (Binding.Region.isValid())
      NewBinding.Region = Result.Renaming.at(Binding.Region);
    Result.Ctx.Vars.bind(Var, NewBinding);
  }
  for (const auto &[Region, Track] : Ctx.Heap.entries()) {
    RegionId Canon = Result.Renaming.at(Region);
    RegionTrack NewTrack;
    NewTrack.Pinned = Track.Pinned;
    for (const auto &[Var, VTrack] : Track.Vars) {
      VarTrack NewVTrack;
      NewVTrack.Pinned = VTrack.Pinned;
      for (const auto &[Field, Target] : VTrack.Fields) {
        auto It = Result.Renaming.find(Target);
        NewVTrack.Fields.emplace(Field, It != Result.Renaming.end()
                                            ? It->second
                                            : RegionId{DeadCanonicalRegion});
      }
      NewTrack.Vars.emplace(Var, std::move(NewVTrack));
    }
    // Canonical ids are unique per original region, so no clash.
    Result.Ctx.Heap.addRegion(Canon);
    *Result.Ctx.Heap.lookup(Canon) = std::move(NewTrack);
  }
  return Result;
}

bool fearless::equivalentUpToRenaming(const Contexts &A, RegionId RootA,
                                      const Contexts &B, RegionId RootB) {
  Contexts CopyA = A;
  Contexts CopyB = B;
  dropUnreachableRegions(CopyA, RootA);
  dropUnreachableRegions(CopyB, RootB);
  CanonicalForm FormA = canonicalize(CopyA, RootA);
  CanonicalForm FormB = canonicalize(CopyB, RootB);
  if (!(FormA.Ctx == FormB.Ctx))
    return false;
  // The roots must correspond under the renaming.
  auto CanonRoot = [](const CanonicalForm &Form, RegionId Root) {
    if (!Root.isValid())
      return RegionId();
    auto It = Form.Renaming.find(Root);
    return It == Form.Renaming.end() ? RegionId{DeadCanonicalRegion}
                                     : It->second;
  };
  return CanonRoot(FormA, RootA) == CanonRoot(FormB, RootB);
}
