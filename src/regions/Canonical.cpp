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

namespace {

constexpr uint32_t Unmatched = UINT32_MAX;

/// The region bijection under construction, by position in each heap.
/// Reused across calls so a comparison allocates nothing once warm.
struct Bijection {
  std::vector<uint32_t> PartnerOfA; ///< A's heap index -> B's, or Unmatched.
  std::vector<uint32_t> PartnerOfB; ///< B's heap index -> A's, or Unmatched.
  /// Matched pairs in discovery order; Queue[Head..] still to be visited.
  std::vector<std::pair<uint32_t, uint32_t>> Queue;
};

/// The position of \p R in \p Heap, or Unmatched when R is dead there.
uint32_t heapIndex(const HeapCtx &Heap, RegionId R) {
  auto It = Heap.entries().lower_bound(R);
  if (It == Heap.entries().end() || It->first != R)
    return Unmatched;
  return static_cast<uint32_t>(It - Heap.entries().begin());
}

} // namespace

bool fearless::equivalentUpToRenaming(const Contexts &A, RegionId RootA,
                                      const Contexts &B, RegionId RootB) {
  const auto &VarsA = A.Vars.entries();
  const auto &VarsB = B.Vars.entries();
  if (VarsA.size() != VarsB.size())
    return false;

  thread_local Bijection Map;
  Map.PartnerOfA.assign(A.Heap.entries().size(), Unmatched);
  Map.PartnerOfB.assign(B.Heap.entries().size(), Unmatched);
  Map.Queue.clear();

  // Pairs region RA of A with region RB of B: both absent (invalid), both
  // dead, or both live and either already paired with each other or both
  // still unpaired (then paired now, and queued for their tracking).
  auto Match = [&](RegionId RA, RegionId RB) {
    if (!RA.isValid() || !RB.isValid())
      return RA.isValid() == RB.isValid();
    uint32_t IA = heapIndex(A.Heap, RA);
    uint32_t IB = heapIndex(B.Heap, RB);
    if (IA == Unmatched || IB == Unmatched)
      return IA == IB;
    if (Map.PartnerOfA[IA] == Unmatched && Map.PartnerOfB[IB] == Unmatched) {
      Map.PartnerOfA[IA] = IB;
      Map.PartnerOfB[IB] = IA;
      Map.Queue.push_back({IA, IB});
      return true;
    }
    return Map.PartnerOfA[IA] == IB;
  };

  // Γ in symbol order, then the extra roots.
  for (auto ItA = VarsA.begin(), ItB = VarsB.begin(); ItA != VarsA.end();
       ++ItA, ++ItB) {
    const auto &[VarA, BindingA] = *ItA;
    const auto &[VarB, BindingB] = *ItB;
    if (VarA != VarB || !(BindingA.VarType == BindingB.VarType) ||
        !Match(BindingA.Region, BindingB.Region))
      return false;
  }
  if (!Match(RootA, RootB))
    return false;

  // Breadth-first over tracked-field targets: paired regions must track
  // the same variables and fields, with the same pins, and paired targets.
  for (size_t Head = 0; Head < Map.Queue.size(); ++Head) {
    auto [IA, IB] = Map.Queue[Head];
    const RegionTrack &TrackA = A.Heap.entries().begin()[IA].second;
    const RegionTrack &TrackB = B.Heap.entries().begin()[IB].second;
    if (TrackA.Pinned != TrackB.Pinned ||
        TrackA.Vars.size() != TrackB.Vars.size())
      return false;
    for (auto VA = TrackA.Vars.begin(), VB = TrackB.Vars.begin();
         VA != TrackA.Vars.end(); ++VA, ++VB) {
      const VarTrack &FieldsA = VA->second;
      const VarTrack &FieldsB = VB->second;
      if (VA->first != VB->first || FieldsA.Pinned != FieldsB.Pinned ||
          FieldsA.Fields.size() != FieldsB.Fields.size())
        return false;
      for (auto FA = FieldsA.Fields.begin(), FB = FieldsB.Fields.begin();
           FA != FieldsA.Fields.end(); ++FA, ++FB)
        if (FA->first != FB->first || !Match(FA->second, FB->second))
          return false;
    }
  }
  return true;
}
