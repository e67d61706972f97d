//===- analysis/Liveness.h - Liveness of vars and iso fields ----*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unification oracle of §5.1: "by employing liveness analysis of
/// variables and isolated fields as a unification oracle, our checker can
/// verify our largest examples in a handful of seconds."
///
/// This module computes, per expression, the set of variables read or
/// written and the set of (variable, field) pairs whose tracking a
/// continuation may need: direct accesses `x.f`, assignments `x.f = e`,
/// and calls whose signature demands `x.f` tracked via an `after:` path.
/// The checker threads a Continuation (liveness after the current point)
/// downward and consults it when deciding which linear resources to
/// preserve at branch merges.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_ANALYSIS_LIVENESS_H
#define FEARLESS_ANALYSIS_LIVENESS_H

#include "ast/Ast.h"
#include "support/FlatMap.h"

#include <unordered_map>
#include <utility>

namespace fearless {

/// Variables and field slots an expression (sub)tree may use, as sorted
/// flat vectors: merging is one linear set union.
struct UseSet {
  FlatSet<Symbol> Vars;
  FlatSet<std::pair<Symbol, Symbol>> FieldUses; ///< (var, field)

  void merge(const UseSet &Other);
  bool usesVar(Symbol Var) const { return Vars.count(Var) != 0; }
  bool usesField(Symbol Var, Symbol Field) const {
    return FieldUses.count({Var, Field}) != 0;
  }
};

/// Liveness information at a program point: what the continuation still
/// needs. ResultLive distinguishes value position from statement position.
struct Continuation {
  UseSet Live;
  bool ResultLive = true;
  /// Variables whose region capability must survive merges even when the
  /// variable itself is dead: function parameters (the signature's output
  /// context mentions them) — the "wanted" set of the unification oracle.
  FlatSet<Symbol> AlwaysValid;

  /// True when the continuation (or the function contract) still cares
  /// about \p Var's capability.
  bool wants(Symbol Var) const {
    return Live.usesVar(Var) || AlwaysValid.count(Var) != 0;
  }

  /// Continuation extended with the uses of expressions evaluated later
  /// in the same sequence.
  Continuation withUses(const UseSet &Uses) const {
    Continuation Out = *this;
    Out.Live.merge(Uses);
    return Out;
  }
};

/// Memoizing computer of UseSets. Calls contribute the callee's `after`
/// field paths applied to the actual argument variables.
///
/// One cache serves one function check: only that function's expressions
/// are ever queried, so the checker builds a cache per function and the
/// memory is released as soon as the function is done.
class UseCache {
public:
  explicit UseCache(const Program &P) : P(P) {}

  /// The uses of \p E (computed once, cached by node identity). The
  /// reference stays valid for the cache's lifetime.
  const UseSet &uses(const Expr &E);

private:
  UseSet compute(const Expr &E);

  const Program &P;
  std::unordered_map<const Expr *, UseSet> Cache;
};

} // namespace fearless

#endif // FEARLESS_ANALYSIS_LIVENESS_H
