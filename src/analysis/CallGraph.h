//===- analysis/CallGraph.h - Program call graph + SCC order ----*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The syntactic call graph of a program and its strongly-connected-
/// component condensation, in bottom-up (callees-before-callers) order.
/// This is the skeleton the interprocedural summary engine (Summary.h)
/// walks: each SCC is analyzed to a fixpoint before any of its callers,
/// so a callee's region-effect summary is always available (or soundly
/// pessimized) when a call site is interpreted.
///
/// The graph is purely syntactic — every `f(...)` call expression adds an
/// edge to `f` if a function of that name exists; calls to unknown names
/// (rejected later by the checker anyway) are ignored. Ordering is
/// deterministic: callee lists keep first-occurrence order, and the SCC
/// order is the reverse of Tarjan's completion order over functions
/// visited in program declaration order, which is a topological order of
/// the condensation.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_ANALYSIS_CALLGRAPH_H
#define FEARLESS_ANALYSIS_CALLGRAPH_H

#include "support/Interner.h"

#include <vector>

namespace fearless {

struct Program;

/// Call graph over the named functions of one program. Its tables are
/// indexed by Program::Functions position; the Symbol queries find the
/// position through Program::findFunction, so the graph must not outlive
/// the program it was built from.
class CallGraph {
public:
  /// Builds the graph by walking every function body.
  static CallGraph build(const Program &P);

  /// The distinct functions \p Fn may call, in first-occurrence order.
  /// Empty for leaf functions and unknown names.
  const std::vector<Symbol> &callees(Symbol Fn) const;

  /// Call sites in \p Fn's body (not deduplicated) — the edge count.
  size_t callSiteCount(Symbol Fn) const;

  /// The strongly connected components in bottom-up order: every callee
  /// of a member of sccs()[i] outside the component itself belongs to
  /// some sccs()[j] with j < i. Members keep declaration order.
  const std::vector<std::vector<Symbol>> &sccs() const { return Sccs; }

  /// True when the SCC at \p SccIndex needs a fixpoint: more than one
  /// member, or a single member that calls itself.
  bool isRecursiveScc(size_t SccIndex) const;

  /// Index into sccs() of the component containing \p Fn.
  size_t sccOf(Symbol Fn) const;

  /// Total distinct call edges (sum of callees() sizes).
  size_t edgeCount() const;

private:
  /// The declaration position of \p Fn, or SIZE_MAX for an unknown name.
  size_t positionOf(Symbol Fn) const;

  const Program *Prog = nullptr;
  // Per declaration position.
  std::vector<std::vector<Symbol>> Callees;
  std::vector<size_t> CallSites;
  std::vector<size_t> SccIndex;
  std::vector<std::vector<Symbol>> Sccs;
};

} // namespace fearless

#endif // FEARLESS_ANALYSIS_CALLGRAPH_H
