//===- analysis/Summary.cpp - Interprocedural region-effect summaries -----===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "analysis/Summary.h"

#include "analysis/CallGraph.h"
#include "analysis/StaticDisconnect.h"
#include "ast/Ast.h"

#include <sstream>

using namespace fearless;

namespace {

/// The regionful parameters of \p Sig in declaration order, with the
/// consumed bit derived from the output image exactly as the call-site
/// havoc derives it (an input region with no valid output image was
/// released by the callee).
void signatureSlots(const FnSignature &Sig, std::vector<Symbol> &Params,
                    std::vector<bool> &Consumed) {
  for (const ParamDecl &P : Sig.Decl->Params) {
    if (!P.ParamType.isRegionful())
      continue;
    Params.push_back(P.Name);
    bool IsConsumed = true;
    auto RIt = Sig.ParamRegion.find(P.Name);
    if (RIt != Sig.ParamRegion.end()) {
      auto OIt = Sig.OutputImage.find(RIt->second);
      IsConsumed = OIt == Sig.OutputImage.end() || !OIt->second.isValid();
    }
    Consumed.push_back(IsConsumed);
  }
}

/// The optimistic starting point for an SCC member: every non-consumed
/// parameter preserved, nothing connected beyond the diagonal. Degraded
/// monotonically by the fixpoint below.
FnSummary optimisticSummary(const FnSignature &Sig) {
  FnSummary S;
  S.Valid = true;
  signatureSlots(Sig, S.Params, S.Consumed);
  S.Preserved.resize(S.Params.size());
  for (size_t I = 0; I < S.Params.size(); ++I)
    S.Preserved[I] = !S.Consumed[I];
  S.ResultRegionful = Sig.ReturnType.isRegionful();
  size_t N = S.Params.size() + 1;
  S.MayConnect.assign(N, std::vector<bool>(N, false));
  for (size_t I = 0; I < N; ++I)
    S.MayConnect[I][I] = true;
  return S;
}

/// Folds one effects run into \p S, returning true when anything
/// degraded. Degradation is one-directional (Preserved only clears,
/// MayConnect only sets), which makes the SCC iteration monotone over a
/// finite lattice regardless of any non-monotonicity in the underlying
/// abstract interpretation.
bool degradeWith(FnSummary &S, const FnEffects &E) {
  bool Changed = false;
  if (E.Params.size() != S.Params.size()) {
    // Shape mismatch (should not happen for checked programs): give up
    // on precision but stay sound.
    if (S.Valid) {
      S.Valid = false;
      Changed = true;
    }
    return Changed;
  }
  for (size_t I = 0; I < S.Params.size(); ++I)
    if (E.Touched[I] && S.Preserved[I]) {
      S.Preserved[I] = false;
      Changed = true;
    }
  size_t N = S.Params.size() + 1;
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J)
      if (I < E.SlotOverlap.size() && J < E.SlotOverlap[I].size() &&
          E.SlotOverlap[I][J] && !S.MayConnect[I][J]) {
        S.MayConnect[I][J] = true;
        Changed = true;
      }
  return Changed;
}

} // namespace

SummaryTable fearless::computeSummaries(const CheckedProgram &CP,
                                        SummaryStats *Stats,
                                        std::vector<FnReport> *Reports) {
  SummaryTable Table;
  SummaryStats Local;
  CallGraph CG = CallGraph::build(*CP.Prog);
  Local.Functions = CP.Prog->Functions.size();
  Local.Sccs = CG.sccs().size();

  // Each run overwrites the function's report, so after the loop below
  // every report comes from the run against the final table.
  FnReport Scratch;
  auto analyze = [&](Symbol Fn) {
    FnReport &Out =
        Reports ? (*Reports)[CP.Prog->findFunction(Fn) -
                             CP.Prog->Functions.data()]
                : Scratch;
    return analyzeFunction(CP, CP.Functions.at(Fn), Table, Out, Local);
  };

  for (size_t SccI = 0; SccI < CG.sccs().size(); ++SccI) {
    const std::vector<Symbol> &Scc = CG.sccs()[SccI];
    bool Recursive = CG.isRecursiveScc(SccI);
    if (Recursive)
      ++Local.RecursiveSccs;

    // Optimistic initialization for every member, so intra-SCC call
    // sites resolve against the current approximation instead of the
    // havoc bottom.
    bool Usable = true;
    for (Symbol Fn : Scc) {
      auto SigIt = CP.Signatures.find(Fn);
      auto FnIt = CP.Functions.find(Fn);
      if (SigIt == CP.Signatures.end() || FnIt == CP.Functions.end()) {
        Usable = false;
        continue;
      }
      Table[Fn] = optimisticSummary(SigIt->second);
    }

    // One pass suffices for non-recursive components: their callees'
    // summaries are final, so that pass is also the final run. Recursive
    // ones iterate to a fixpoint, and the round that changes nothing ran
    // every member against the final table. The lattice height is
    // bounded by the members' parameter and slot-pair counts, so the cap
    // below is a backstop, not a tuning knob.
    size_t Cap = Recursive ? 4 * Scc.size() + 4 : 1;
    bool Stable = false;
    for (size_t Iter = 0; Usable && Iter < Cap && !Stable; ++Iter) {
      Stable = true;
      for (Symbol Fn : Scc) {
        FnEffects E = analyze(Fn);
        if (degradeWith(Table[Fn], E))
          Stable = false;
      }
      if (!Recursive)
        Stable = true;
    }
    if (!Stable) {
      // Unusable or not converged under the cap: drop to the sound
      // bottom, and re-run the members against it so their reports
      // describe the table their call sites see.
      for (Symbol Fn : Scc)
        Table[Fn].Valid = false;
      Local.Invalidated += Scc.size();
      for (Symbol Fn : Scc)
        if (CP.Functions.contains(Fn))
          analyze(Fn);
    }
  }

  for (const auto &[Fn, S] : Table) {
    (void)Fn;
    if (!S.Valid)
      continue;
    Local.TotalParams += S.Params.size();
    for (size_t I = 0; I < S.Params.size(); ++I)
      if (S.Preserved[I])
        ++Local.PreservedParams;
  }
  if (Stats)
    *Stats = Local;
  return Table;
}

std::string fearless::renderSummary(Symbol Fn, const FnSummary &S,
                                    const Interner &Names) {
  std::ostringstream OS;
  OS << "summary `" << Names.spelling(Fn) << "(";
  for (size_t I = 0; I < S.Params.size(); ++I)
    OS << (I ? ", " : "") << Names.spelling(S.Params[I]);
  OS << ")`: ";
  if (!S.Valid) {
    OS << "no summary (signature havoc)";
    return OS.str();
  }
  auto List = [&](const std::vector<bool> &Bits) {
    OS << "{";
    bool First = true;
    for (size_t I = 0; I < Bits.size(); ++I)
      if (Bits[I]) {
        OS << (First ? "" : ", ") << Names.spelling(S.Params[I]);
        First = false;
      }
    OS << "}";
  };
  OS << "preserved ";
  List(S.Preserved);
  OS << ", consumed ";
  List(S.Consumed);
  OS << ", connects {";
  bool First = true;
  size_t N = S.Params.size() + 1;
  auto SlotName = [&](size_t I) {
    return I == S.Params.size() ? std::string("result")
                                : Names.spelling(S.Params[I]);
  };
  for (size_t I = 0; I < N; ++I)
    for (size_t J = I + 1; J < N; ++J)
      if (S.MayConnect[I][J]) {
        if (J == S.Params.size() && !S.ResultRegionful)
          continue;
        OS << (First ? "" : ", ") << SlotName(I) << "~" << SlotName(J);
        First = false;
      }
  OS << "}, result "
     << (S.ResultRegionful ? "regionful" : "primitive");
  return OS.str();
}
