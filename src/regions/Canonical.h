//===- regions/Canonical.h - Equivalence up to renaming ---------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Region names are arbitrary; two contexts describe the same heap when
/// they are equal up to a bijective renaming of regions. This module
/// decides that equivalence — used by branch unification (T13/T15), loop
/// invariance, function-application matching (T9) and the verifier's
/// final check — and garbage-collects regions nothing refers to.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_REGIONS_CANONICAL_H
#define FEARLESS_REGIONS_CANONICAL_H

#include "regions/Contexts.h"

namespace fearless {

/// Removes regions that are neither bound by any Γ variable nor targeted
/// by any tracked field. Such regions always carry empty tracking contexts
/// (well-formedness ties tracked variables to Γ); dropping a capability is
/// frame-style weakening and always sound. \p ExtraRoot, if valid, is kept
/// (used for the pending result region).
void dropUnreachableRegions(Contexts &Ctx, RegionId ExtraRoot = RegionId());

/// True when the two contexts are equal up to a bijective renaming of
/// their regions under which the two extra roots correspond. This is the
/// T9/T13 context-match test. Regions that no Γ binding, extra root or
/// tracked field reaches are ignored, as if dropUnreachableRegions had
/// removed them; every dead region (a field target or binding absent from
/// H) corresponds to every other. The contexts are compared in place:
/// both are walked in lockstep, Γ in symbol order, then the extra root,
/// then tracked-field targets breadth-first, building the bijection as
/// regions are first met.
bool equivalentUpToRenaming(const Contexts &A, RegionId RootA,
                            const Contexts &B, RegionId RootB);

} // namespace fearless

#endif // FEARLESS_REGIONS_CANONICAL_H
