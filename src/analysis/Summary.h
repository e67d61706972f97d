//===- analysis/Summary.h - Interprocedural region-effect summaries -*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-function region-effect summaries and the bottom-up engine that
/// computes them over the call graph (analysis/CallGraph.h). A summary
/// records, for each regionful parameter of a function, whether the
/// function provably leaves the parameter's region graph untouched
/// (Preserved: no field writes into it, no new stored references to its
/// objects, no havoc from inner calls) and which parameter/result slots
/// the function may leave physically connected (MayConnect). Call sites
/// in StaticDisconnect.cpp instantiate the callee's summary instead of
/// applying the signature-derived havoc: groups made purely of preserved
/// parameters are skipped entirely, so the caller's must-edges and
/// never-havocked allocation nodes survive the call and must-* verdicts
/// propagate across call boundaries.
///
/// Recursion is handled per SCC with an optimistic fixpoint: members
/// start fully preserved / fully disconnected and monotonically degrade
/// until stable (the lattice is finite — one bit per parameter plus one
/// bit per slot pair — so the loop terminates; an iteration cap
/// invalidates the whole SCC as a backstop, falling back to the
/// signature havoc, which is the sound bottom). Summaries describe
/// effects that are only consumed after the callee *returns*, so the
/// least fixpoint is sound for every terminating execution by induction
/// on call depth; a non-terminating call never reaches the site that
/// would have trusted its summary. docs/ANALYSIS.md spells the argument
/// out.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_ANALYSIS_SUMMARY_H
#define FEARLESS_ANALYSIS_SUMMARY_H

#include "checker/Checker.h"

#include <cstdint>
#include <map>
#include <vector>

namespace fearless {

/// One function's region-effect summary. Slot indices 0..Params.size()-1
/// are the regionful parameters in declaration order; slot Params.size()
/// is the result (meaningful only when ResultRegionful).
struct FnSummary {
  /// False = no usable summary: the call site must fall back to the
  /// signature-derived havoc (the sound bottom). Set for functions whose
  /// SCC fixpoint hit the iteration cap and for unresolvable callees.
  bool Valid = false;
  /// Regionful parameter names in declaration order.
  std::vector<Symbol> Params;
  /// Per parameter: the callee releases the region (send / retraction —
  /// from the signature's output image, exactly as the havoc path
  /// computes it).
  std::vector<bool> Consumed;
  /// Per parameter: the callee provably performs no field write into the
  /// parameter's region graph, stores no new reference to any of its
  /// objects, and exposes none of it to an unsummarized call. A call
  /// group made purely of preserved parameters (with no result in the
  /// group) is left untouched by evalCall.
  std::vector<bool> Preserved;
  /// Symmetric (Params.size()+1)^2 matrix over parameter slots plus the
  /// result slot, row-major: mayConnect(i, j) is true when the callee may
  /// leave the two slots' graphs physically connected (reach overlap at
  /// exit in the callee's own abstract graph, accumulated over all
  /// program points). The diagonal is true by convention.
  std::vector<bool> MayConnect;
  bool ResultRegionful = false;

  bool operator==(const FnSummary &) const = default;

  size_t resultSlot() const { return Params.size(); }
  size_t slotCount() const { return Params.size() + 1; }
  bool mayConnect(size_t I, size_t J) const {
    size_t N = slotCount();
    return I < N && J < N && I * N + J < MayConnect.size() &&
           MayConnect[I * N + J];
  }
};

using SummaryTable = std::map<Symbol, FnSummary>;

/// Aggregate statistics of one computeSummaries run, for reporting.
struct SummaryStats {
  size_t Functions = 0;
  size_t Sccs = 0;
  size_t RecursiveSccs = 0;
  /// Every abstract interpretation of a function body: one per function
  /// in an acyclic component, one per member per fixpoint round in a
  /// recursive one, plus the re-runs of components that hit the cap.
  /// analyzeProgram performs no others (in intra-procedural mode, one
  /// per function and the only field it sets).
  size_t EffectRuns = 0;
  /// Functions whose SCC hit the iteration cap (summary invalidated).
  size_t Invalidated = 0;
  size_t PreservedParams = 0;
  size_t TotalParams = 0;
};

/// The raw effects one abstract interpretation of a function body
/// observed, from which Summary.cpp derives the FnSummary. Computed by
/// the FnAnalyzer in StaticDisconnect.cpp (analyzeFunction):
/// Touched[i] is true when any node ever reachable from parameter i's
/// entry cohort was the base of a field write, was stored as a field
/// value, was sent, or was havocked by an inner call; SlotOverlap is the
/// ever-reach overlap over parameter slots plus the result slot, a
/// row-major (Params.size()+1)^2 matrix like FnSummary::MayConnect.
struct FnEffects {
  std::vector<Symbol> Params;
  std::vector<bool> Touched;
  std::vector<bool> SlotOverlap;
  bool ResultRegionful = false;
};

/// One regionful parameter of a signature, as the callee's entry state,
/// every call site and its summary see it.
struct SignatureSlot {
  size_t ParamIndex = 0; ///< Position in FnDecl::Params.
  Symbol Name;
  /// The callee releases the region (send / retraction): its input region
  /// has no valid output image, or the parameter has no input region.
  bool Consumed = true;
  std::vector<RegionId> InRegions;  ///< Input-region closure, ascending.
  std::vector<RegionId> OutRegions; ///< Valid output images, ascending.
};

/// What the analysis reads of one function.
struct FunctionEntry {
  const FnSignature *Sig = nullptr;       ///< Null when not elaborated.
  const CheckedFunction *Checked = nullptr; ///< Null when not checked.
  std::vector<SignatureSlot> Slots; ///< Regionful parameters, in order.
};

/// The per-function facts of one checked program, computed once per
/// analysis and indexed by Program::Functions position; a Symbol finds
/// its entry through Program::findFunction.
class FunctionTable {
public:
  explicit FunctionTable(const CheckedProgram &CP);

  size_t size() const { return Entries.size(); }
  const FunctionEntry &operator[](size_t Pos) const { return Entries[Pos]; }
  /// The declaration position of \p Fn, or SIZE_MAX for an unknown name.
  size_t positionOf(Symbol Fn) const;

private:
  const Program *Prog;
  std::vector<FunctionEntry> Entries;
};

struct FnReport; // analysis/StaticDisconnect.h

/// Runs the abstract interpreter once over the function at position
/// \p Pos of \p Fns, resolving inner calls against \p Summaries (by
/// position; invalid entries fall back to signature havoc): replaces
/// \p Report with the function's site verdicts and diagnostics, counts
/// the run in \p Stats, and returns the effects it observed. Implemented
/// in StaticDisconnect.cpp.
FnEffects analyzeFunction(const CheckedProgram &CP, const FunctionTable &Fns,
                          size_t Pos, const std::vector<FnSummary> &Summaries,
                          FnReport &Report, SummaryStats &Stats);

/// Computes the summary of every checked function of \p CP bottom-up
/// over the SCC condensation of its call graph, interpreting each
/// function once against its callees' final summaries (a recursive
/// component once per fixpoint round). When \p Reports is non-null it
/// must hold one entry per CP.Prog->Functions position; each receives the
/// report of the run against the final table.
SummaryTable computeSummaries(const CheckedProgram &CP,
                              SummaryStats *Stats = nullptr,
                              std::vector<FnReport> *Reports = nullptr);

/// Renders one summary as a single human-readable line (the `fearlessc
/// analyze --summaries` dump), e.g.
/// "summary `walk(list, n)`: preserved {list}, consumed {}, connects {},
/// result int".
std::string renderSummary(Symbol Fn, const FnSummary &S,
                          const Interner &Names);

} // namespace fearless

#endif // FEARLESS_ANALYSIS_SUMMARY_H
