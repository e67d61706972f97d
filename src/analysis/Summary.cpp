//===- analysis/Summary.cpp - Interprocedural region-effect summaries -----===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "analysis/Summary.h"

#include "analysis/CallGraph.h"
#include "analysis/StaticDisconnect.h"
#include "ast/Ast.h"
#include "support/FlatMap.h"

#include <algorithm>
#include <sstream>

using namespace fearless;

namespace {

/// The closure of \p Root over the tracked-field edges of \p Adj, in
/// ascending order.
std::vector<RegionId>
regionClosure(const FlatMap<RegionId, std::vector<RegionId>> &Adj,
              RegionId Root) {
  std::vector<RegionId> Seen{Root};
  std::vector<RegionId> Frontier{Root};
  while (!Frontier.empty()) {
    RegionId R = Frontier.back();
    Frontier.pop_back();
    auto It = Adj.find(R);
    if (It == Adj.end())
      continue;
    for (RegionId T : It->second)
      if (std::find(Seen.begin(), Seen.end(), T) == Seen.end()) {
        Seen.push_back(T);
        Frontier.push_back(T);
      }
  }
  std::sort(Seen.begin(), Seen.end());
  return Seen;
}

/// The regionful parameters of \p Sig in declaration order, each with
/// its input-region closure, the closure's output image, and the
/// consumed bit (an input region with no valid output image was released
/// by the callee).
std::vector<SignatureSlot> signatureSlots(const FnSignature &Sig) {
  // Region adjacency of the input heap context: region -> tracked-field
  // target regions.
  FlatMap<RegionId, std::vector<RegionId>> Adj;
  for (const auto &[R, Track] : Sig.Input.Heap.entries())
    for (const auto &[Var, VT] : Track.Vars)
      for (const auto &[Field, Target] : VT.Fields) {
        std::vector<RegionId> &Targets = Adj[R];
        if (std::find(Targets.begin(), Targets.end(), Target) ==
            Targets.end())
          Targets.push_back(Target);
      }

  std::vector<SignatureSlot> Slots;
  for (size_t I = 0; I < Sig.Decl->Params.size(); ++I) {
    const ParamDecl &P = Sig.Decl->Params[I];
    if (!P.ParamType.isRegionful())
      continue;
    SignatureSlot S;
    S.ParamIndex = I;
    S.Name = P.Name;
    auto RIt = Sig.ParamRegion.find(P.Name);
    if (RIt != Sig.ParamRegion.end()) {
      S.InRegions = regionClosure(Adj, RIt->second);
      auto OIt = Sig.OutputImage.find(RIt->second);
      S.Consumed = OIt == Sig.OutputImage.end() || !OIt->second.isValid();
      for (RegionId R : S.InRegions) {
        auto Img = Sig.OutputImage.find(R);
        if (Img != Sig.OutputImage.end() && Img->second.isValid())
          S.OutRegions.push_back(Img->second);
      }
      std::sort(S.OutRegions.begin(), S.OutRegions.end());
      S.OutRegions.erase(
          std::unique(S.OutRegions.begin(), S.OutRegions.end()),
          S.OutRegions.end());
    }
    Slots.push_back(std::move(S));
  }
  return Slots;
}

/// The optimistic starting point for an SCC member: every non-consumed
/// parameter preserved, nothing connected beyond the diagonal. Degraded
/// monotonically by the fixpoint below.
FnSummary optimisticSummary(const FunctionEntry &F) {
  FnSummary S;
  S.Valid = true;
  for (const SignatureSlot &Slot : F.Slots) {
    S.Params.push_back(Slot.Name);
    S.Consumed.push_back(Slot.Consumed);
    S.Preserved.push_back(!Slot.Consumed);
  }
  S.ResultRegionful = F.Sig->ReturnType.isRegionful();
  size_t N = S.slotCount();
  S.MayConnect.assign(N * N, false);
  for (size_t I = 0; I < N; ++I)
    S.MayConnect[I * N + I] = true;
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
  for (size_t I = 0; I < S.MayConnect.size() && I < E.SlotOverlap.size();
       ++I)
    if (E.SlotOverlap[I] && !S.MayConnect[I]) {
      S.MayConnect[I] = true;
      Changed = true;
    }
  return Changed;
}

} // namespace

FunctionTable::FunctionTable(const CheckedProgram &CP)
    : Prog(CP.Prog), Entries(CP.Prog->Functions.size()) {
  for (const auto &[Name, Sig] : CP.Signatures)
    if (size_t Pos = positionOf(Name); Pos != SIZE_MAX) {
      Entries[Pos].Sig = &Sig;
      Entries[Pos].Slots = signatureSlots(Sig);
    }
  for (const auto &[Name, Fn] : CP.Functions)
    if (size_t Pos = positionOf(Name); Pos != SIZE_MAX)
      Entries[Pos].Checked = &Fn;
}

size_t FunctionTable::positionOf(Symbol Fn) const {
  const FnDecl *D = Prog->findFunction(Fn);
  return D ? static_cast<size_t>(D - Prog->Functions.data()) : SIZE_MAX;
}

SummaryTable fearless::computeSummaries(const CheckedProgram &CP,
                                        SummaryStats *Stats,
                                        std::vector<FnReport> *Reports) {
  FunctionTable Fns(CP);
  // The working summaries, by declaration position; converted to a
  // SummaryTable once at the end.
  std::vector<FnSummary> Work(Fns.size());
  SummaryStats Local;
  CallGraph CG = CallGraph::build(*CP.Prog);
  Local.Functions = CP.Prog->Functions.size();
  Local.Sccs = CG.sccs().size();

  // Each run overwrites the function's report, so after the loop below
  // every report comes from the run against the final table.
  FnReport Scratch;
  auto analyze = [&](size_t Pos) {
    FnReport &Out = Reports ? (*Reports)[Pos] : Scratch;
    return analyzeFunction(CP, Fns, Pos, Work, Out, Local);
  };

  std::vector<size_t> Members;
  for (size_t SccI = 0; SccI < CG.sccs().size(); ++SccI) {
    Members.clear();
    for (Symbol Fn : CG.sccs()[SccI])
      Members.push_back(Fns.positionOf(Fn));
    bool Recursive = CG.isRecursiveScc(SccI);
    if (Recursive)
      ++Local.RecursiveSccs;

    // Optimistic initialization for every member, so intra-SCC call
    // sites resolve against the current approximation instead of the
    // havoc bottom.
    bool Usable = true;
    for (size_t Pos : Members) {
      if (!Fns[Pos].Sig || !Fns[Pos].Checked) {
        Usable = false;
        continue;
      }
      Work[Pos] = optimisticSummary(Fns[Pos]);
    }

    // One pass suffices for non-recursive components: their callees'
    // summaries are final, so that pass is also the final run. Recursive
    // ones iterate to a fixpoint, and the round that changes nothing ran
    // every member against the final table. The lattice height is
    // bounded by the members' parameter and slot-pair counts, so the cap
    // below is a backstop, not a tuning knob.
    size_t Cap = Recursive ? 4 * Members.size() + 4 : 1;
    bool Stable = false;
    for (size_t Iter = 0; Usable && Iter < Cap && !Stable; ++Iter) {
      Stable = true;
      for (size_t Pos : Members) {
        FnEffects E = analyze(Pos);
        if (degradeWith(Work[Pos], E))
          Stable = false;
      }
      if (!Recursive)
        Stable = true;
    }
    if (!Stable) {
      // Unusable or not converged under the cap: drop to the sound
      // bottom, and re-run the members against it so their reports
      // describe the table their call sites see.
      for (size_t Pos : Members)
        Work[Pos].Valid = false;
      Local.Invalidated += Members.size();
      for (size_t Pos : Members)
        if (Fns[Pos].Checked)
          analyze(Pos);
    }
  }

  SummaryTable Table;
  for (size_t Pos = 0; Pos < Work.size(); ++Pos) {
    const FnSummary &S = Work[Pos];
    if (S.Valid) {
      Local.TotalParams += S.Params.size();
      for (size_t I = 0; I < S.Params.size(); ++I)
        if (S.Preserved[I])
          ++Local.PreservedParams;
    }
    Table.emplace(CP.Prog->Functions[Pos].Name, std::move(Work[Pos]));
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
      if (S.mayConnect(I, J)) {
        if (J == S.Params.size() && !S.ResultRegionful)
          continue;
        OS << (First ? "" : ", ") << SlotName(I) << "~" << SlotName(J);
        First = false;
      }
  OS << "}, result "
     << (S.ResultRegionful ? "regionful" : "primitive");
  return OS.str();
}
