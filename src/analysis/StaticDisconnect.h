//===- analysis/StaticDisconnect.h - Static disconnect verdicts -*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static region-graph analysis: a flow-sensitive abstract interpreter
/// over the typed AST (domain in analysis/RegionGraph.h) that classifies
/// every `if disconnected(a, b)` site as must-disconnected, must-connected,
/// or unknown, flags the resulting dead branches, and lints region misuse
/// (use-after-`consumes`, regions created but never populated).
///
/// Verdicts are sound with respect to *both* runtime disconnect algorithms
/// (naive exact reachability and the §5.2 refcount check) so the VM
/// lowering may fold must-* sites, skipping the traversal, and a debug
/// cross-check re-running the real traversal never disagrees. The
/// soundness argument lives in docs/ANALYSIS.md.
///
/// Entry points:
///  - analyzeProgram: the full abstract interpretation of a checked
///    program, producing per-site verdicts and diagnostics;
///  - lintProgram: the syntactic lint pass, usable even when the region
///    checker rejects the program;
///  - analyzeSourceText: parse + sema + check + analyze with rendered
///    output — shared verbatim by `fearlessc analyze` and the golden-file
///    tests.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_ANALYSIS_STATICDISCONNECT_H
#define FEARLESS_ANALYSIS_STATICDISCONNECT_H

#include "analysis/Summary.h"
#include "analysis/Verdict.h"
#include "checker/Checker.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fearless {

/// The diagnostic kinds the analysis emits, ordered by rendering rank
/// within one source line.
enum class AnalysisDiagKind {
  SiteVerdict,     ///< One `if disconnected` site's classification.
  DeadBranch,      ///< A branch a must-verdict proves unreachable.
  UseAfterConsume, ///< A variable used after `send` / a consuming call.
  NeverPopulated,  ///< A fresh region never populated or read.
};

/// One rendered-ready diagnostic.
struct AnalysisDiag {
  AnalysisDiagKind Kind = AnalysisDiagKind::SiteVerdict;
  SourceLoc Loc;
  std::string Message; ///< Full message text after "file:line:col: ".
};

/// The classification of one `if disconnected` site.
struct SiteReport {
  const Expr *Site = nullptr; ///< The IfDisconnectedExpr.
  Symbol Function;            ///< Enclosing function.
  SourceLoc Loc;
  DisconnectVerdict Verdict = DisconnectVerdict::Unknown;
  /// For must-connected: a human-readable witness, e.g.
  /// "a.next and b reach the object allocated at 3:11".
  std::string Witness;
};

/// The site verdicts and diagnostics of one function's abstract
/// interpretation.
struct FnReport {
  std::vector<SiteReport> Sites;
  std::vector<AnalysisDiag> Diags;
};

/// How many `if disconnected` sites received each verdict.
struct VerdictCounts {
  uint64_t MustDisconnected = 0;
  uint64_t MustConnected = 0;
  uint64_t Unknown = 0;
};

/// Everything the analysis produced for one program.
struct AnalysisReport {
  std::vector<SiteReport> Sites;
  std::vector<AnalysisDiag> Diags;
  /// Per-function region-effect summaries (empty in intra-procedural
  /// mode) and the statistics of their bottom-up computation.
  SummaryTable Summaries;
  SummaryStats SummaryInfo;

  /// The per-site verdict table the runtime elision hook consumes.
  DisconnectVerdictTable verdictTable() const;
  /// The verdict split over Sites.
  VerdictCounts countVerdicts() const;
};

/// Analysis knobs. Interprocedural mode (the default) computes bottom-up
/// function summaries first and instantiates them at call sites;
/// switching it off restores the pure signature-havoc treatment of
/// calls (the sound bottom every summary falls back to).
struct AnalysisOptions {
  bool Interprocedural = true;
};

/// Runs the abstract interpretation over every checked function of \p CP
/// and the syntactic lints over its program.
AnalysisReport analyzeProgram(const CheckedProgram &CP,
                              const AnalysisOptions &Opts = {});

/// The syntactic lint pass alone (use-after-consumes, never-populated
/// regions). Works on any parsed program — in particular on programs the
/// region checker rejects, where the lints explain the misuse.
std::vector<AnalysisDiag> lintProgram(const Program &P);

/// Renders \p Diags in deterministic order, one "file:line:col: message"
/// line each, using only the basename of \p FileName (golden-test
/// stability across checkouts).
std::string renderDiags(const std::vector<AnalysisDiag> &Diags,
                        std::string_view FileName);

/// How `fearlessc analyze` reports.
struct SourceAnalysisOptions {
  /// Append the per-function summary dump to the rendered report.
  bool DumpSummaries = false;
  /// Render a machine-readable JSON document (schema
  /// "fearless-analysis-v1") instead of the human-readable listing.
  bool Json = false;
  /// Lint diagnostics fail the analyze with the check exit code. Not
  /// read here: the request handler (driver/CompilePipeline.h) owns
  /// exit codes.
  bool Werror = false;
};

/// The `fearlessc analyze` pipeline over a source buffer: parse + resolve,
/// then check + analyze (or, when the checker rejects the program, the
/// syntactic lints with the checker's diagnostic as a note).
struct SourceAnalysis {
  std::string Rendered;     ///< The full diagnostic listing (or JSON).
  bool HardError = false;   ///< Parse / resolution failure.
  bool CheckedOk = false;   ///< The region checker accepted the program.
  VerdictCounts Verdicts;
  size_t FunctionCount = 0;
  /// Lint diagnostics (use-after-consume, never-populated) — the count
  /// `fearlessc analyze --werror` turns into a check-stage failure.
  size_t LintDiags = 0;
};
SourceAnalysis analyzeSourceText(std::string_view Source,
                                 std::string_view FileName,
                                 const AnalysisOptions &AOpts = {},
                                 const SourceAnalysisOptions &Opts = {});

} // namespace fearless

#endif // FEARLESS_ANALYSIS_STATICDISCONNECT_H
