//===- checker/Checker.h - The region type checker --------------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's type checker (the "prover" of §5): syntax-directed T rules
/// over (H; Γ) contexts, with virtual transformations (Fig. 11) inserted
/// on demand, framing at calls (TS2/T9), liveness-guided unification at
/// merges (§4.6/§5.1), and emission of explicit derivations that the
/// verifier re-checks independently.
///
/// Entry points: checkProgram and checkSource. Well-typed programs are
/// guaranteed free of destructive data races (Theorems 6.1/6.2); the
/// runtime's dynamic reservation checks never fire on them (validated by
/// tests).
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_CHECKER_CHECKER_H
#define FEARLESS_CHECKER_CHECKER_H

#include "checker/Derivation.h"
#include "sema/Signature.h"
#include "sema/StructTable.h"
#include "support/Expected.h"

#include <functional>
#include <map>
#include <memory>

namespace fearless {

/// Tuning knobs; defaults match the paper's configuration (liveness
/// oracle enabled, derivations emitted).
struct CheckerOptions {
  bool UseLivenessOracle = true;
  bool EmitDerivations = true;
  size_t UnifySearchLimit = 1 << 14;
  size_t MaxLoopIterations = 64;
};

/// Counters describing one function's check.
struct CheckStats {
  size_t VirtualSteps = 0;        ///< V/F rule applications.
  size_t UnifyCandidates = 0;     ///< Unification targets tried (§4.6).
  size_t LoopIterations = 0;      ///< While fixpoint refinements.
};

/// One successfully checked function.
struct CheckedFunction {
  FnSignature Sig;
  /// Empty if not emitted, or if checkProgram handed it to a
  /// continuation.
  Derivation Deriv;
  CheckStats Stats;
};

/// A successfully checked program: everything the runtime and verifier
/// need.
struct CheckedProgram {
  const Program *Prog = nullptr;
  StructTable Structs;
  std::map<Symbol, FnSignature> Signatures;
  std::map<Symbol, CheckedFunction> Functions;
  /// Static operand type of every send expression (the τ of send-τ); the
  /// runtime pairs senders and receivers by exact type.
  std::map<const Expr *, Type> SendTypes;
};

/// Runs on each function as soon as it is checked, while its derivation
/// is still in the checker's arena. \p Program holds every signature but
/// only the functions declared before \p Fn. A failure stops the check.
using FunctionContinuation = std::function<ExpectedVoid(
    const CheckedProgram &Program, const CheckedFunction &Fn)>;

/// Checks all functions of \p P, in declaration order. On failure the
/// diagnostic names the rule that could not be applied and the offending
/// contexts.
///
/// Without \p Then every function keeps its derivation. With it, the
/// functions are checked one at a time in a single derivation arena that
/// is handed to \p Then and emptied before the next function, so every
/// returned Deriv is empty: compile() passes the verifier here.
Expected<CheckedProgram> checkProgram(const Program &P,
                                      const CheckerOptions &Opts = {},
                                      const FunctionContinuation &Then = {});

/// Convenience: parse + sema + check. Returns the program (owned) and the
/// checked artifacts, or diagnostics rendered in the failure message.
/// \p Then is passed to checkProgram.
struct FrontendResult {
  std::unique_ptr<Program> Prog;
  CheckedProgram Checked;
};
Expected<FrontendResult> checkSource(std::string_view Source,
                                     const CheckerOptions &Opts = {},
                                     const FunctionContinuation &Then = {});

} // namespace fearless

#endif // FEARLESS_CHECKER_CHECKER_H
