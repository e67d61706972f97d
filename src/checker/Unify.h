//===- checker/Unify.h - Branch unification and conformance ----*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unification of typing contexts at control-flow merges (T13 If, T15
/// If-Disconnected, let-some, while back-edges) and conformance of a
/// context to a declared target (function exit vs. the signature output).
///
/// §4.6: unification cannot be purely greedy — the choice of which linear
/// resources to preserve affects whether the continuation checks. Two
/// strategies are provided:
///  - Oracle mode (§5.1): liveness of variables and iso fields determines
///    the tracked slots to keep; one candidate is built and conformed to.
///  - Naive mode: enumerate keep-subsets of the tracked slots (largest
///    first) until one unifies — worst-case exponential, reproducing the
///    complexity contrast of §4.6 (benchmarked in bench_checker).
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_CHECKER_UNIFY_H
#define FEARLESS_CHECKER_UNIFY_H

#include "analysis/Liveness.h"
#include "checker/Derivation.h"
#include "regions/Contexts.h"
#include "support/Expected.h"

#include <vector>

namespace fearless {

/// Options controlling unification (a subset of CheckerOptions).
struct UnifyOptions {
  bool UseLivenessOracle = true;
  size_t SearchLimit = 1 << 14;
};

/// Ablation switches for the conformance engine's design choices
/// (DESIGN.md §"Key design decisions"; exercised by the ablation tests
/// and bench_checker). Production defaults: everything on.
struct ConformAblation {
  /// (b3): drop a whole region to eliminate tracking that cannot be
  /// retracted (preserves field-target capabilities such as the result's
  /// region). Without it, Fig. 5's remove_tail and pop_front fail.
  bool WholesaleDrops = true;
  /// (b): never retract a field whose target region the target context
  /// still needs (the live result, live variables). Without it, results
  /// that live under tracked fields are destroyed at merges.
  bool ProtectedGuard = true;
};

/// Process-wide ablation configuration (test/bench only; not thread-safe
/// against concurrent checking).
ConformAblation &conformAblation();

/// One branch arriving at a merge point.
struct BranchState {
  Contexts Ctx;
  RegionId ResultRegion; ///< Invalid when the result is a primitive.
  DerivSink Sink; ///< Where this branch's conformance steps go.
};

/// The merged continuation state.
struct UnifyOutcome {
  Contexts Ctx;
  RegionId ResultRegion;
  size_t CandidatesTried = 0;
};

/// Drives \p Current to be equal (up to region renaming) to \p Target.
/// Anchors for the correspondence are the shared Γ variables, the tracked
/// field slots of Target, and the result regions. Mutates Current through
/// a VirtualEngine recording into \p Sink. Used for branch conformance and
/// for matching a function body's final context against the signature
/// output.
ExpectedVoid conformTo(Contexts &Current, RegionId &CurrentResult,
                       const Contexts &Target, RegionId TargetResult,
                       RegionSupply &Supply, const Interner &Names,
                       DerivSink Sink, size_t *StepCounter, SourceLoc Loc);

/// Unifies the given branches into one continuation context. \p ResultType
/// is the merge's value type (anchor only when regionful); \p Cont is the
/// liveness information after the merge (oracle).
Expected<UnifyOutcome> unifyBranches(std::vector<BranchState> Branches,
                                     const Type &ResultType,
                                     const Continuation &Cont,
                                     const UnifyOptions &Opts,
                                     RegionSupply &Supply,
                                     const Interner &Names, SourceLoc Loc,
                                     size_t *StepCounter);

} // namespace fearless

#endif // FEARLESS_CHECKER_UNIFY_H
