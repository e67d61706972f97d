//===- checker/Derivation.h - Explicit typing derivations -------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checker (the "prover" of §5) emits an explicit derivation: a tree
/// of rule applications, each recording the full input and output contexts
/// and, for expression rules, the result region and type. The independent
/// verifier re-checks every node against the declarative rules without
/// trusting the prover's search — mirroring the paper's OCaml-prover /
/// Coq-verifier architecture.
///
/// Contexts are recorded as shared, immutable snapshots: most steps leave
/// H;Γ unchanged, so a step takes the snapshot recorded just before it
/// whenever the context still equals it, and copies H;Γ only when it
/// changed. A snapshot is never edited once recorded; a step that needs a
/// different context gets a new snapshot.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_CHECKER_DERIVATION_H
#define FEARLESS_CHECKER_DERIVATION_H

#include "ast/Ast.h"
#include "regions/Contexts.h"

#include <memory>
#include <string>
#include <vector>

namespace fearless {

/// Names of rules as they appear in derivations. Kept as strings for
/// direct correspondence with the paper's rule labels.
namespace rules {
inline constexpr const char *V1Focus = "V1-Focus";
inline constexpr const char *V2Unfocus = "V2-Unfocus";
inline constexpr const char *V3Explore = "V3-Explore";
inline constexpr const char *V4Retract = "V4-Retract";
inline constexpr const char *V5Attach = "V5-Attach";
inline constexpr const char *FDropRegion = "F-Drop-Region";
inline constexpr const char *FPinRegion = "F-Pin-Region";
} // namespace rules

/// One derivation node. Expression rules carry the expression and result;
/// virtual-transformation / framing steps carry only contexts.
struct DerivStep {
  std::string Rule;
  std::string Detail; ///< Human-readable instantiation, e.g. "focus x in r3".
  const Expr *E = nullptr;
  std::shared_ptr<const Contexts> Before;
  std::shared_ptr<const Contexts> After;
  RegionId ResultRegion; ///< Invalid for primitives and V/F steps.
  Type ResultType;       ///< Invalid for V/F steps.
  std::vector<std::unique_ptr<DerivStep>> Children;

  DerivStep *addChild(std::unique_ptr<DerivStep> Child) {
    Children.push_back(std::move(Child));
    return Children.back().get();
  }

  /// The snapshot of \p Ctx for the next context recorded in this step:
  /// the snapshot recorded just before it (the last child's After, else
  /// this step's Before) when that equals \p Ctx, otherwise a new copy.
  std::shared_ptr<const Contexts> snapshot(const Contexts &Ctx) const {
    const std::shared_ptr<const Contexts> &Last =
        Children.empty() ? Before : Children.back()->After;
    if (Last && *Last == Ctx)
      return Last;
    return std::make_shared<const Contexts>(Ctx);
  }
};

/// Renders the derivation tree, indented, for debugging and docs.
std::string printDerivation(const DerivStep &Root, const Interner &Names);

/// Renders the derivation as a Graphviz digraph: one node per rule
/// application (virtual transformations highlighted), labeled with the
/// rule, the instantiation detail, and the output context.
std::string printDerivationDot(const DerivStep &Root,
                               const Interner &Names);

/// Counts nodes whose rule name matches \p Rule (nullptr: all nodes).
size_t countSteps(const DerivStep &Root, const char *Rule = nullptr);

} // namespace fearless

#endif // FEARLESS_CHECKER_DERIVATION_H
