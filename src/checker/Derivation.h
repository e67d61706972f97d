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
/// A derivation is one arena per checked function: its steps and its H;Γ
/// snapshots sit in chunked storage and refer to each other by index, so
/// recording a step allocates nothing of its own, and dropping the
/// function frees a few chunks. A step names its rule with a one-byte
/// RuleId and keeps the operands of its instantiation ("focus x in r3")
/// rather than their text, which is rendered only when printed.
///
/// Contexts are recorded as shared, immutable snapshots: most steps leave
/// H;Γ unchanged, so a step takes the snapshot recorded just before it
/// whenever the context still equals it, and copies H;Γ only when it
/// changed. A snapshot is never edited once recorded; a step that needs a
/// different context gets a new snapshot. A snapshot lives as long as the
/// arena, or until a rollback to a mark taken before it.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_CHECKER_DERIVATION_H
#define FEARLESS_CHECKER_DERIVATION_H

#include "ast/Ast.h"
#include "regions/Contexts.h"
#include "support/ChunkedVector.h"

#include <cstdint>
#include <string>

namespace fearless {

/// The rule a derivation step applies. ruleName() gives the paper's
/// label, the text printed in derivations.
enum class RuleId : uint8_t {
  // Expression rules (Fig. 9/10).
  T0FunctionDefinition,
  TIntLiteral,
  TBoolLiteral,
  TUnit,
  T2VariableRef,
  TFieldReference,
  T5IsolatedFieldReference,
  T8AssignVar,
  TFieldAssignment,
  T7IsolatedFieldAssignment,
  TLet,
  TLetSome,
  T13IfStatement,
  T15IfDisconnected,
  TWhile,
  TWhileBody,
  T3Sequence,
  T10NewLoc,
  TSome,
  TNone,
  TIsNone,
  T16Send,
  T17Receive,
  T9FunctionApplication,
  TBinary,
  TUnary,
  // Virtual transformations (Fig. 11).
  V1Focus,
  V2Unfocus,
  V3Explore,
  V4Retract,
  V5Attach,
  // Framing weakenings (TS2).
  FDropRegion,
  FPinRegion,
};

/// The paper's label of \p Rule, e.g. "V1-Focus".
const char *ruleName(RuleId Rule);

/// True for the virtual transformations V1–V5.
inline bool isVirtualRule(RuleId Rule) {
  return Rule >= RuleId::V1Focus && Rule <= RuleId::V5Attach;
}

/// True for the framing weakenings (F-rules).
inline bool isFramingRule(RuleId Rule) {
  return Rule >= RuleId::FDropRegion;
}

/// Index of a step in its Derivation.
using StepId = uint32_t;
/// Index of an H;Γ snapshot in its Derivation.
using SnapshotId = uint32_t;
inline constexpr StepId NoStep = UINT32_MAX;
inline constexpr SnapshotId NoSnapshot = UINT32_MAX;

/// The instantiation of a V/F rule (and the function a T0 step defines).
/// Which operands a rule uses, and how they print:
///   T0  Var                    "<Var>"
///   V1  Var, Region            "focus <Var> in <Region>"
///   V2  Var, Region            "unfocus <Var> in <Region>"
///   V3  Var, Field, Region     "explore <Var>.<Field> -> <Region>"
///   V4  Var, Field, Region     "retract <Var>.<Field>, dropping <Region>"
///   V5  Region, Region2        "attach <Region> -> <Region2>"
///   F-Drop-Region  Region      "drop <Region>"
///   F-Pin-Region   Region      "pin <Region>", or Var: "pin var <Var>"
struct StepOperands {
  Symbol Var;
  Symbol Field;
  RegionId Region;
  RegionId Region2;
};

/// One derivation node. Expression rules carry the expression and result;
/// virtual-transformation / framing steps carry only contexts. Children
/// form a list: FirstChild, then each child's NextSibling.
struct DerivStep {
  const Expr *E = nullptr;
  StepOperands Ops;
  SnapshotId Before = NoSnapshot;
  SnapshotId After = NoSnapshot;
  RegionId ResultRegion; ///< Invalid for primitives and V/F steps.
  Type ResultType;       ///< Invalid for V/F steps.
  StepId FirstChild = NoStep;
  StepId LastChild = NoStep;
  StepId NextSibling = NoStep;
  RuleId Rule = RuleId::T0FunctionDefinition;
};

/// One function's derivation: the arena holding its steps and snapshots.
/// Step 0, the first one added, is the root.
class Derivation {
public:
  bool empty() const { return Steps.empty(); }
  StepId root() const { return 0; }
  size_t numSteps() const { return Steps.size(); }
  size_t numSnapshots() const { return Snapshots.size(); }

  DerivStep &operator[](StepId Step) { return Steps[Step]; }
  const DerivStep &operator[](StepId Step) const { return Steps[Step]; }
  const Contexts &context(SnapshotId Snapshot) const {
    return Snapshots[Snapshot];
  }
  const Contexts &before(const DerivStep &Step) const {
    return Snapshots[Step.Before];
  }
  const Contexts &after(const DerivStep &Step) const {
    return Snapshots[Step.After];
  }

  /// Adds an unlinked step; addChild links it into the tree.
  StepId addStep(RuleId Rule, StepOperands Ops = {}) {
    StepId Id = static_cast<StepId>(Steps.size());
    DerivStep &Step = Steps.emplace_back();
    Step.Rule = Rule;
    Step.Ops = Ops;
    return Id;
  }

  /// Appends \p Child to \p Parent's children.
  void addChild(StepId Parent, StepId Child) {
    DerivStep &P = Steps[Parent];
    if (P.LastChild == NoStep)
      P.FirstChild = Child;
    else
      Steps[P.LastChild].NextSibling = Child;
    P.LastChild = Child;
  }

  /// Records a copy of \p Ctx as a new snapshot.
  SnapshotId addSnapshot(const Contexts &Ctx) {
    SnapshotId Id = static_cast<SnapshotId>(Snapshots.size());
    Snapshots.emplace_back(Ctx);
    return Id;
  }

  /// The snapshot of \p Ctx for the next context recorded in \p Step: the
  /// snapshot recorded just before it (the last child's After, else the
  /// step's own Before) when that equals \p Ctx, otherwise a new copy.
  SnapshotId snapshot(StepId Step, const Contexts &Ctx) {
    const DerivStep &S = Steps[Step];
    SnapshotId Last =
        S.LastChild == NoStep ? S.Before : Steps[S.LastChild].After;
    if (Last != NoSnapshot && Snapshots[Last] == Ctx)
      return Last;
    return addSnapshot(Ctx);
  }

  /// A point to roll back to: every step and snapshot added after it can
  /// be discarded at once, provided none of them was linked under a step
  /// that existed at the mark.
  struct Mark {
    size_t Steps = 0;
    size_t Snapshots = 0;
  };
  Mark mark() const { return Mark{Steps.size(), Snapshots.size()}; }
  void rollback(Mark M) {
    Steps.truncate(M.Steps);
    Snapshots.truncate(M.Snapshots);
  }

  /// Calls \p F(StepId) on each child of \p Step, in order.
  template <typename F> void forEachChild(StepId Step, F &&Fn) const {
    for (StepId C = Steps[Step].FirstChild; C != NoStep;
         C = Steps[C].NextSibling)
      Fn(C);
  }

private:
  // On the generated corpora a function records about 13 steps and 5
  // distinct snapshots, so the first chunks hold 16 and 8.
  ChunkedVector<DerivStep, 4> Steps;
  ChunkedVector<Contexts, 3> Snapshots;
};

/// Where steps are recorded: as children of step Parent of derivation D.
/// A default-constructed sink records nothing.
struct DerivSink {
  Derivation *D = nullptr;
  StepId Parent = NoStep;

  explicit operator bool() const { return D != nullptr; }
};

/// Renders the instantiation of \p Step ("focus x in r3"; empty for
/// expression steps other than T0).
std::string stepDetail(const DerivStep &Step, const Interner &Names);

/// Renders the derivation tree, indented, for debugging and docs.
std::string printDerivation(const Derivation &D, const Interner &Names);

/// Renders the derivation as a Graphviz digraph: one node per rule
/// application (virtual transformations highlighted), labeled with the
/// rule, the instantiation detail, and the output context.
std::string printDerivationDot(const Derivation &D, const Interner &Names);

/// Counts the steps in the derivation tree.
size_t countSteps(const Derivation &D);

} // namespace fearless

#endif // FEARLESS_CHECKER_DERIVATION_H
