//===- regions/Canonical.h - Canonical region renaming ---------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Region names are arbitrary; two contexts describe the same heap when
/// they are equal up to a bijective renaming of regions. This module
/// computes a canonical renaming (discovery order over Γ, then tracked
/// field targets) so that contexts can be compared with plain equality —
/// used by branch unification (T13/T15) and by function-application
/// matching (T9).
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_REGIONS_CANONICAL_H
#define FEARLESS_REGIONS_CANONICAL_H

#include "regions/Contexts.h"

namespace fearless {

/// The canonical id assigned to every *dead* field target (a region absent
/// from H, produced by the region split of `if disconnected`). All dead
/// targets are identified: their identity is meaningless.
inline constexpr uint32_t DeadCanonicalRegion = 0xFFFFFFFFu;

/// Removes regions that are neither bound by any Γ variable nor targeted
/// by any tracked field. Such regions always carry empty tracking contexts
/// (well-formedness ties tracked variables to Γ); dropping a capability is
/// frame-style weakening and always sound. \p ExtraRoot, if valid, is kept
/// (used for the pending result region).
void dropUnreachableRegions(Contexts &Ctx, RegionId ExtraRoot = RegionId());

/// A canonicalized context plus the renaming that produced it.
struct CanonicalForm {
  Contexts Ctx;
  FlatMap<RegionId, RegionId> Renaming; ///< original -> canonical
};

/// Renames regions to 1..n in deterministic discovery order: first the
/// regions of Γ bindings (in symbol order), then \p ExtraRoot (the result
/// region, if any), then tracked-field targets breadth-first. Dead targets
/// map to DeadCanonicalRegion. Precondition: every region in H is
/// reachable (call dropUnreachableRegions first); unreached regions would
/// make the renaming ambiguous, so this asserts.
CanonicalForm canonicalize(const Contexts &Ctx,
                           RegionId ExtraRoot = RegionId());

/// True when the two contexts are equal up to region renaming (and the two
/// extra roots correspond). This is the T9/T13 context-match test.
bool equivalentUpToRenaming(const Contexts &A, RegionId RootA,
                            const Contexts &B, RegionId RootB);

} // namespace fearless

#endif // FEARLESS_REGIONS_CANONICAL_H
