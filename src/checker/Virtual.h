//===- checker/Virtual.h - Virtual transformations (V1–V5) ------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The virtual transformation rules of Fig. 11, applied on demand by the
/// checker: transformations that change the *representation* of the static
/// heap context without changing the heap it describes.
///
///   V1 Focus    — start tracking a variable in an empty, unpinned region.
///   V2 Unfocus  — stop tracking a variable with no tracked fields.
///   V3 Explore  — start tracking an iso field, introducing a fresh region
///                 for its (dominating) target.
///   V4 Retract  — stop tracking an iso field whose target region is empty,
///                 dropping the target region (restores domination and
///                 invalidates other references into the target).
///   V5 Attach   — merge two regions into one (coarsens separation).
///
/// The VirtualEngine applies single rules with full legality checks and
/// records every application into a derivation sink; compound helpers
/// (ensureFocused, ensureFieldTracked, releaseRegion, mergeRegions) build
/// the greedy "transform on demand" decision procedure of §4.6.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_CHECKER_VIRTUAL_H
#define FEARLESS_CHECKER_VIRTUAL_H

#include "checker/Derivation.h"
#include "regions/Contexts.h"
#include "support/Expected.h"

namespace fearless {

/// Applies V-rules to a Contexts, recording derivation steps.
class VirtualEngine {
public:
  /// \p Sink may be empty (no derivation recording, used by benchmarks).
  VirtualEngine(Contexts &Ctx, RegionSupply &Supply, const Interner &Names,
                DerivSink Sink, size_t *StepCounter = nullptr)
      : Ctx(Ctx), Supply(Supply), Names(Names), Sink(Sink),
        StepCounter(StepCounter) {}

  //===--------------------------------------------------------------------===
  // Single rules
  //===--------------------------------------------------------------------===

  /// V1: focuses \p Var in its region. Requires: Var bound to a region
  /// present in H whose tracking context is empty and unpinned.
  ExpectedVoid focus(Symbol Var, SourceLoc Loc);

  /// V2: unfocuses \p Var. Requires: tracked with an empty field map.
  ExpectedVoid unfocus(Symbol Var, SourceLoc Loc);

  /// V3: tracks iso field \p Field of focused \p Var, returning the fresh
  /// target region. Requires: Var tracked and unpinned; field not already
  /// tracked.
  Expected<RegionId> explore(Symbol Var, Symbol Field, SourceLoc Loc);

  /// V4: untracks \p Field of \p Var, dropping its target region from H.
  /// Requires: the target region present, empty, unpinned, and not
  /// targeted by any other tracked field.
  ExpectedVoid retract(Symbol Var, Symbol Field, SourceLoc Loc);

  /// V5: merges region \p From into \p To (renaming From everywhere).
  /// Requires: both present and unpinned; merged context well-formed.
  ExpectedVoid attach(RegionId From, RegionId To, SourceLoc Loc);

  //===--------------------------------------------------------------------===
  // Framing-style weakenings (TS2)
  //===--------------------------------------------------------------------===

  /// Drops region \p R from H entirely, discarding its tracking context.
  /// Objects in R become permanently inaccessible (strict weakening).
  /// Requires: R present and unpinned.
  ExpectedVoid dropRegion(RegionId R, SourceLoc Loc);

  /// Pins region \p R (weakening to partial information).
  ExpectedVoid pinRegion(RegionId R, SourceLoc Loc);

  /// Pins the tracking entry of \p Var (no new fields may be explored).
  ExpectedVoid pinVar(Symbol Var, SourceLoc Loc);

  //===--------------------------------------------------------------------===
  // Compound, on-demand helpers (the greedy decision procedure)
  //===--------------------------------------------------------------------===

  /// Ensures \p Var is tracked, focusing if needed.
  ExpectedVoid ensureFocused(Symbol Var, SourceLoc Loc);

  /// Ensures \p Var.\p Field is tracked, focusing and exploring as needed.
  /// Returns the target region (may be a dead region if the field was
  /// invalidated; the caller decides whether that is acceptable).
  Expected<RegionId> ensureFieldTracked(Symbol Var, Symbol Field,
                                        SourceLoc Loc);

  /// Drives region \p R's tracking context to empty: recursively retracts
  /// every tracked field of every tracked variable in R (releasing the
  /// target regions), then unfocuses the variables. Fails on pinned
  /// entries, dead field targets, and cyclic tracked-region structure.
  ExpectedVoid releaseRegion(RegionId R, SourceLoc Loc);

  /// Unfocuses \p Var if tracked, first retracting all its fields (each
  /// target released recursively).
  ExpectedVoid releaseVar(Symbol Var, SourceLoc Loc);

  /// Makes \p From and \p To the same region via V5 (no-op when equal).
  ExpectedVoid mergeRegions(RegionId From, RegionId To, SourceLoc Loc);

private:
  ExpectedVoid releaseRegionImpl(RegionId R, SourceLoc Loc,
                                 std::vector<RegionId> &InProgress);

  /// Records a derivation step with rule \p Rule and operands \p Ops
  /// around mutation \p Mutate.
  template <typename Fn>
  void record(RuleId Rule, StepOperands Ops, Fn &&Mutate) {
    if (StepCounter)
      ++*StepCounter;
    if (!Sink) {
      Mutate();
      return;
    }
    Derivation &D = *Sink.D;
    StepId Step = D.addStep(Rule, Ops);
    D[Step].Before = D.snapshot(Sink.Parent, Ctx);
    Mutate();
    D[Step].After = D.snapshot(Step, Ctx);
    D.addChild(Sink.Parent, Step);
  }

  Contexts &Ctx;
  RegionSupply &Supply;
  const Interner &Names;
  DerivSink Sink;
  size_t *StepCounter;
};

} // namespace fearless

#endif // FEARLESS_CHECKER_VIRTUAL_H
