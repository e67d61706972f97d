//===- analysis/RegionGraph.h - Abstract heap for region analysis -*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract domain of the static disconnect analysis: a per-program-
/// point graph of abstract nodes (one per allocation site, parameter,
/// receive, or call result) with may-point-to edges labeled by field and
/// kind (iso / non-iso), plus a points-to map for the regionful variables
/// in scope. StaticDisconnect.cpp interprets the typed AST over this
/// domain; the queries here (reachability, incoming-edge closure, must-
/// path search) are what the verdict engine is built from.
///
/// Precision flags:
///  - AbsNode::Exact — the node stands for at most one concrete object per
///    activation (false for loop-allocated nodes and summaries), so an
///    intersection of must-paths at an exact node names one physical
///    object.
///  - FieldEdge::Must — the field of the (unique) concrete object denoted
///    by the source definitely holds exactly the listed target set
///    (established by strong updates, destroyed by joins and call havoc).
///  - PointsTo::Definite — the variable's value is exactly the single
///    listed exact node (or definitely none when the target set is empty).
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_ANALYSIS_REGIONGRAPH_H
#define FEARLESS_ANALYSIS_REGIONGRAPH_H

#include "support/Diagnostics.h"
#include "support/FlatMap.h"
#include "support/Interner.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <vector>

namespace fearless {

/// Dense index of one abstract node in a NodeTable.
struct AbsNodeId {
  uint32_t Id = UINT32_MAX;

  bool isValid() const { return Id != UINT32_MAX; }
  bool operator==(const AbsNodeId &) const = default;
  auto operator<=>(const AbsNodeId &) const = default;
};

/// What a node stands for.
enum class AbsNodeKind {
  Alloc,      ///< A `new S(...)` site — locally allocated objects.
  Param,      ///< One function parameter's root object.
  Summary,    ///< The unknown entry contents of one input region group.
  Recv,       ///< The root of a `recv<T>()`'d graph.
  RecvRest,   ///< The rest of a received graph (summary).
  CallResult, ///< The root returned by a call.
  CallRest,   ///< The unknown structure behind a call result (summary).
  Glue,       ///< Havoc hub for one call's may-connected argument group.
};

/// One abstract node. Only Alloc nodes may appear in a must-disconnected
/// side: every other kind admits concrete incoming references the function
/// body cannot see (entry-region siblings, the sender's stale iso edges,
/// callee-made links), which the refcount check observes as count
/// mismatches.
struct AbsNode {
  AbsNodeKind Kind = AbsNodeKind::Alloc;
  bool Exact = false;
  /// Set once the node's object may be denoted by another node too (same-
  /// group parameters, call results aliasing arguments, anything exposed
  /// to a call). Havocked nodes never receive strong updates, and a call
  /// may leave stale stored-reference counts on them, so they are excluded
  /// from must-disconnected sides. Monotone: never cleared.
  bool Havocked = false;
  Symbol StructName; ///< Invalid for summaries and glue.
  Symbol Origin;     ///< Parameter / callee name, for rendering.
  SourceLoc Loc;     ///< Originating site.
};

/// Registry of the abstract nodes of one function analysis. Node ids are
/// stable across the while-loop fixpoint because every site materializes
/// its node at most once.
class NodeTable {
public:
  AbsNodeId add(AbsNode N) {
    Nodes.push_back(N);
    return AbsNodeId{static_cast<uint32_t>(Nodes.size() - 1)};
  }
  const AbsNode &operator[](AbsNodeId Id) const { return Nodes[Id.Id]; }
  AbsNode &operator[](AbsNodeId Id) { return Nodes[Id.Id]; }
  size_t size() const { return Nodes.size(); }

private:
  std::vector<AbsNode> Nodes;
};

/// A set of node ids of one function analysis, as a bitset over the dense
/// AbsNodeIds: bit I of word I / 64. The first word is inline, so a
/// function with at most 64 nodes never allocates for a set; words past
/// it live on the heap. Iteration is in ascending id order, which is
/// std::set's order, so everything rendered from a set is unchanged.
/// Equality ignores trailing zero words: two sets that spilled to
/// different lengths but hold the same ids are equal.
class NodeSet {
public:
  class const_iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = AbsNodeId;
    using difference_type = std::ptrdiff_t;
    using pointer = const AbsNodeId *;
    using reference = AbsNodeId;

    AbsNodeId operator*() const {
      return AbsNodeId{static_cast<uint32_t>(
          Word * 64 + static_cast<size_t>(std::countr_zero(Bits)))};
    }
    const_iterator &operator++() {
      Bits &= Bits - 1;
      skipEmpty();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator Old = *this;
      ++*this;
      return Old;
    }
    bool operator==(const const_iterator &O) const {
      return Word == O.Word && Bits == O.Bits;
    }

  private:
    friend class NodeSet;
    const_iterator(const NodeSet *S, size_t Word)
        : S(S), Word(Word), Bits(Word < S->words() ? S->word(Word) : 0) {
      skipEmpty();
    }
    void skipEmpty() {
      while (Bits == 0 && ++Word < S->words())
        Bits = S->word(Word);
      if (Bits == 0)
        Word = S->words();
    }

    const NodeSet *S;
    size_t Word;
    uint64_t Bits;
  };

  NodeSet() = default;
  NodeSet(std::initializer_list<AbsNodeId> Ids) {
    for (AbsNodeId Id : Ids)
      insert(Id);
  }

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, words()); }

  bool empty() const {
    if (First)
      return false;
    for (uint64_t W : Rest)
      if (W)
        return false;
    return true;
  }
  size_t size() const {
    size_t N = static_cast<size_t>(std::popcount(First));
    for (uint64_t W : Rest)
      N += static_cast<size_t>(std::popcount(W));
    return N;
  }
  bool contains(AbsNodeId Id) const {
    size_t W = Id.Id / 64;
    return W < words() && ((word(W) >> (Id.Id % 64)) & 1) != 0;
  }

  /// Adds \p Id; returns true when it was not yet present.
  bool insert(AbsNodeId Id) {
    size_t W = Id.Id / 64;
    if (W >= words())
      Rest.resize(W, 0);
    uint64_t &Word = wordRef(W);
    uint64_t Bit = uint64_t{1} << (Id.Id % 64);
    if (Word & Bit)
      return false;
    Word |= Bit;
    return true;
  }

  /// Removes \p Id. The words keep their count, so a set may end in zero
  /// words; every query treats them as absent.
  void erase(AbsNodeId Id) {
    size_t W = Id.Id / 64;
    if (W < words())
      wordRef(W) &= ~(uint64_t{1} << (Id.Id % 64));
  }

  /// Adds every element of \p Other (set union, one pass over its words).
  void merge(const NodeSet &Other) {
    First |= Other.First;
    if (Other.Rest.size() > Rest.size())
      Rest.resize(Other.Rest.size(), 0);
    for (size_t I = 0; I < Other.Rest.size(); ++I)
      Rest[I] |= Other.Rest[I];
  }

  /// True when the two sets share an element.
  bool intersects(const NodeSet &Other) const {
    if (First & Other.First)
      return true;
    size_t N = std::min(Rest.size(), Other.Rest.size());
    for (size_t I = 0; I < N; ++I)
      if (Rest[I] & Other.Rest[I])
        return true;
    return false;
  }

  bool operator==(const NodeSet &Other) const {
    if (First != Other.First)
      return false;
    const std::vector<uint64_t> &Short =
        Rest.size() <= Other.Rest.size() ? Rest : Other.Rest;
    const std::vector<uint64_t> &Long =
        Rest.size() <= Other.Rest.size() ? Other.Rest : Rest;
    for (size_t I = 0; I < Short.size(); ++I)
      if (Short[I] != Long[I])
        return false;
    for (size_t I = Short.size(); I < Long.size(); ++I)
      if (Long[I])
        return false;
    return true;
  }

private:
  size_t words() const { return 1 + Rest.size(); }
  uint64_t word(size_t W) const { return W == 0 ? First : Rest[W - 1]; }
  uint64_t &wordRef(size_t W) { return W == 0 ? First : Rest[W - 1]; }

  uint64_t First = 0;
  std::vector<uint64_t> Rest; ///< Words 1, 2, ...: ids 64 and up.
};

/// Every node reachable from \p Roots, \p Roots included, where
/// \p ForEachSucc(N, Visit) calls Visit(T) for every successor T of N.
template <typename SuccFn>
NodeSet reachableClosure(const NodeSet &Roots, SuccFn ForEachSucc) {
  NodeSet Seen = Roots;
  NodeSet Frontier = Roots;
  while (!Frontier.empty()) {
    AbsNodeId N = *Frontier.begin();
    Frontier.erase(N);
    ForEachSucc(N, [&](AbsNodeId T) {
      if (Seen.insert(T))
        Frontier.insert(T);
    });
  }
  return Seen;
}

/// Abstract value of a regionful expression / variable.
struct PointsTo {
  NodeSet Targets;
  bool Definite = false;

  bool operator==(const PointsTo &) const = default;
};

/// Least upper bound of two variable values.
PointsTo joinPointsTo(const PointsTo &A, const PointsTo &B);

/// One field's may-target set. The wildcard field (invalid Symbol) models
/// "any field of this node may point here" and backs the lazily-defaulted
/// entry contents of parameters, receives, and call results; field reads
/// fall back to it when no specific entry exists, and it participates in
/// reachability and closure queries unconditionally.
struct FieldEdge {
  NodeSet Targets;
  bool Must = false;
  bool Iso = false;

  bool operator==(const FieldEdge &) const = default;
};

/// The abstract state at one program point.
///
/// Both maps are FlatMaps (support/FlatMap.h): an insert invalidates every
/// reference into the map that receives it, so look an entry up again
/// after adding to the same map.
class RegionGraph {
public:
  using FieldMap = FlatMap<Symbol, FieldEdge>;

  FlatMap<Symbol, PointsTo> Vars;
  FlatMap<AbsNodeId, FieldMap> Edges;

  /// Adds a may edge (unions targets; clears Must if already present).
  void addMayEdge(AbsNodeId From, Symbol Field, AbsNodeId To,
                  bool Iso = false);

  /// Reads field \p Field over every node in \p Bases, falling back to
  /// each node's wildcard edge when the field was never written.
  PointsTo readField(const NodeSet &Bases, Symbol Field,
                     const NodeTable &Nodes) const;

  /// Writes field \p Field of \p Base. A strong write replaces the entry
  /// (Must iff \p V is a definite singleton / definite none); a weak write
  /// unions with the previous contents (including the wildcard fallback)
  /// and clears Must.
  void writeField(AbsNodeId Base, Symbol Field, const PointsTo &V,
                  bool Strong, bool Iso);

  /// All nodes reachable from \p Roots over every edge, wildcard and iso
  /// included (matching the naive exact-reachability spec of E15A/E15B).
  NodeSet reachableFrom(const NodeSet &Roots) const;

  /// True when any edge whose source lies outside \p Side targets a node
  /// inside it. A side with no external in-edges is "reference-closed":
  /// the refcount comparison on it cannot see a count surplus.
  bool hasExternalEdgeInto(const NodeSet &Side) const;

  /// Must-reachability: the closure of \p Root over non-iso Must edges
  /// whose targets are Exact nodes, with the discovering edge recorded per
  /// node (for witness paths). Indexed by node id, one entry per node of
  /// \p Nodes; \p Root itself is reached with an invalid predecessor.
  struct MustStep {
    bool Reached = false;
    AbsNodeId Prev; ///< Invalid for the root.
    Symbol Field;
  };
  std::vector<MustStep> mustClosure(AbsNodeId Root,
                                    const NodeTable &Nodes) const;

  /// Least upper bound (branch merge / loop head). Edge entries present on
  /// one side only are widened with the other side's wildcard fallback.
  void join(const RegionGraph &Other);

  bool operator==(const RegionGraph &) const = default;
};

} // namespace fearless

#endif // FEARLESS_ANALYSIS_REGIONGRAPH_H
