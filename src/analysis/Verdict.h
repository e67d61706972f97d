//===- analysis/Verdict.h - Static disconnect verdicts ----------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The verdict lattice of the static region-graph analysis and the per-site
/// verdict table the runtime consults to elide `if disconnected` traversals.
/// Kept dependency-free so the runtime can include it without pulling in
/// the checker.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_ANALYSIS_VERDICT_H
#define FEARLESS_ANALYSIS_VERDICT_H

#include <map>

namespace fearless {

class Expr;

/// Classification of one `if disconnected(a, b)` site.
///
///  - MustDisconnected: on every execution reaching the site, the graphs
///    reachable from a and b are disjoint (the then-branch always runs).
///  - MustConnected: on every execution they share an object (the
///    else-branch always runs).
///  - Unknown: the verdict depends on the dynamic heap.
///
/// Must-verdicts are sound with respect to *both* runtime algorithms
/// (naive exact reachability and the §5.2 refcount check): the analysis
/// only claims must-disconnected when the subgraphs are locally allocated,
/// closed under incoming references, and provably disjoint — exactly the
/// conditions under which the refcount comparison cannot conservatively
/// report "connected". See docs/ANALYSIS.md.
enum class DisconnectVerdict { Unknown, MustDisconnected, MustConnected };

/// Renders "unknown", "must-disconnected", or "must-connected".
const char *toString(DisconnectVerdict V);

/// Per-site verdicts keyed by the IfDisconnectedExpr node. The VM
/// lowering folds must-* entries, skipping the dynamic traversal.
using DisconnectVerdictTable = std::map<const Expr *, DisconnectVerdict>;

} // namespace fearless

#endif // FEARLESS_ANALYSIS_VERDICT_H
