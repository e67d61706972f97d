//===- regions/Contexts.h - Static typing contexts H and Γ -----*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static contexts of the paper's typing judgment
///     H; Γ ⊢ e : r τ ⊣ H'; Γ'      (Fig. 9)
///
/// - Γ (VarCtx) binds variables to a region and a type.
/// - H (HeapCtx) is a set of tracking contexts  r°⟨ x°[f ↦ r, ...] ... ⟩:
///   each region capability r may carry tracked (focused) variables, each
///   with a map from tracked iso fields to their target regions. Regions
///   and tracked variables carry a "pinned" flag (§4.7): pinned entries
///   hold only partial information and forbid new tracking.
///
/// Regions are purely compile-time names. A region's presence in H is the
/// capability to access objects in that region; removing a region from H
/// invalidates every variable bound to it and every tracked field
/// targeting it.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_REGIONS_CONTEXTS_H
#define FEARLESS_REGIONS_CONTEXTS_H

#include "ast/Types.h"
#include "support/FlatMap.h"
#include "support/Interner.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace fearless {

/// A compile-time region name. Id 0 is invalid; region-less bindings
/// (primitives) use RegionId::none().
struct RegionId {
  uint32_t Id = 0;

  static RegionId none() { return RegionId{}; }
  bool isValid() const { return Id != 0; }
  bool operator==(const RegionId &) const = default;
  auto operator<=>(const RegionId &) const = default;
};

/// Renders a region as "r<id>".
std::string toString(RegionId R);

/// Allocates fresh region names; one per function-check (and one per
/// runtime machine for live-set queries).
class RegionSupply {
public:
  RegionId fresh() { return RegionId{++Last}; }

private:
  uint32_t Last = 0;
};

//===----------------------------------------------------------------------===//
// Γ — variable context
//===----------------------------------------------------------------------===//

/// One Γ entry: the variable's type and (for regionful types) its region.
struct VarBinding {
  RegionId Region; ///< Invalid for primitive-typed variables.
  Type VarType;

  bool operator==(const VarBinding &) const = default;
};

/// Γ: a sorted flat vector from variable symbols to bindings. Ordered so
/// that printing and canonicalization are deterministic; flat because
/// every derivation snapshot copies and compares it whole. Binding a new
/// variable or erasing one invalidates pointers returned by lookup().
class VarCtx {
public:
  using MapTy = FlatMap<Symbol, VarBinding>;

  bool contains(Symbol Var) const { return Vars.count(Var) != 0; }
  const VarBinding *lookup(Symbol Var) const;

  /// Binds or rebinds \p Var.
  void bind(Symbol Var, VarBinding Binding) { Vars[Var] = Binding; }
  void erase(Symbol Var) { Vars.erase(Var); }

  /// Renames every occurrence of region \p From to \p To (Attach).
  void renameRegion(RegionId From, RegionId To);

  const MapTy &entries() const { return Vars; }
  bool operator==(const VarCtx &) const = default;

private:
  MapTy Vars;
};

//===----------------------------------------------------------------------===//
// H — heap context
//===----------------------------------------------------------------------===//

/// Tracking entry for one focused variable: x°[f ↦ r, ...].
struct VarTrack {
  bool Pinned = false;
  /// Tracked iso fields and their target regions. A target region that is
  /// no longer present in H denotes an *invalidated* field (e.g. after the
  /// region split of `if disconnected`): the field must be reassigned
  /// before it can be read or retracted.
  FlatMap<Symbol, RegionId> Fields;

  bool operator==(const VarTrack &) const = default;
};

/// Tracking context for one region: r°⟨X⟩.
struct RegionTrack {
  bool Pinned = false;
  FlatMap<Symbol, VarTrack> Vars;

  bool empty() const { return Vars.empty(); }
  bool operator==(const RegionTrack &) const = default;
};

/// H: a sorted flat vector from region capabilities to tracking contexts.
/// Adding or removing a region, or a tracked variable or field, moves
/// entries: pointers from lookup() and trackedVar() do not survive it.
class HeapCtx {
public:
  using MapTy = FlatMap<RegionId, RegionTrack>;

  bool hasRegion(RegionId R) const { return Regions.count(R) != 0; }
  const RegionTrack *lookup(RegionId R) const;
  RegionTrack *lookup(RegionId R);

  /// Adds a fresh region with an empty, unpinned tracking context.
  /// Precondition: the region is not already present.
  void addRegion(RegionId R);

  /// Removes the region capability entirely (invalidates its objects).
  void removeRegion(RegionId R) { Regions.erase(R); }

  /// Finds the region in which \p Var is tracked, if any. Well-formedness
  /// guarantees at most one.
  std::optional<RegionId> trackingRegionOf(Symbol Var) const;

  /// Returns the tracking entry for \p Var in \p R, or nullptr.
  const VarTrack *trackedVar(RegionId R, Symbol Var) const;
  VarTrack *trackedVar(RegionId R, Symbol Var);

  /// V5 Attach: renames region \p From to \p To, merging From's tracking
  /// context into To's and substituting From in every field target.
  /// Precondition: both regions present; neither pinned; the merged
  /// context must remain well-formed (no variable tracked twice) — the
  /// caller checks this via canAttach.
  void attach(RegionId From, RegionId To);

  /// True when attach(From, To) would preserve well-formedness.
  bool canAttach(RegionId From, RegionId To) const;

  /// Substitutes region \p From with \p To in all field targets (without
  /// touching region keys). Used by attach and by signature instantiation.
  void renameFieldTargets(RegionId From, RegionId To);

  /// True when any tracked field in any region targets \p R.
  bool isFieldTarget(RegionId R) const;

  const MapTy &entries() const { return Regions; }
  bool operator==(const HeapCtx &) const = default;

private:
  MapTy Regions;
};

//===----------------------------------------------------------------------===//
// Combined state and utilities
//===----------------------------------------------------------------------===//

/// The pair (H; Γ) the checker threads through expressions.
struct Contexts {
  HeapCtx Heap;
  VarCtx Vars;

  bool operator==(const Contexts &) const = default;
};

/// Checks the well-formedness conditions of §4.3 (no duplicate bindings):
/// - no variable is tracked in more than one region;
/// - every tracked variable is bound in Γ, to the region tracking it;
/// - every tracked variable's type is a struct type.
/// Returns an explanatory message on failure.
std::optional<std::string> checkWellFormed(const Contexts &Ctx,
                                           const Interner &Names);

/// Renders H in paper notation, e.g. "r1⟨x[next ↦ r2]⟩, r2⟨⟩".
std::string toString(const HeapCtx &Heap, const Interner &Names);

/// Renders Γ, e.g. "x : r1 sll_node, n : int".
std::string toString(const VarCtx &Vars, const Interner &Names);

/// Renders "H ; Γ".
std::string toString(const Contexts &Ctx, const Interner &Names);

} // namespace fearless

#endif // FEARLESS_REGIONS_CONTEXTS_H
