//===- analysis/StaticDisconnect.cpp - Static disconnect verdicts --------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// The abstract interpreter over the typed AST. Per function it threads a
// RegionGraph through the body (branch join, while fixpoint), derives the
// entry state from the checker's elaborated signature (parameter cohorts
// from the input (H; Γ) contexts), applies signature-derived havoc at
// calls, and classifies every `if disconnected` site.
//
// The must-verdict side conditions are chosen so that the verdicts agree
// with BOTH runtime algorithms (runtime/Disconnected.cpp):
//
//  * must-disconnected requires, for each side, that every node is a
//    locally allocated, never-call-exposed object (Kind == Alloc and
//    !Havocked), that the side has no incoming abstract edge from outside
//    itself, that it contains no iso edges, and that the two sides'
//    full-edge reachability sets are disjoint. Under these conditions the
//    naive check trivially reports disconnected, and the §5.2 refcount
//    check cannot see a stored-count surplus (StoredRefCount counts only
//    non-iso stored fields, all of which originate inside the side and are
//    traversed), so it reports disconnected too.
//
//  * must-connected requires both operands to be definite single exact
//    nodes whose closures over non-iso Must edges through exact nodes
//    intersect. The shared object makes the naive check report connected;
//    the refcount check either observes the frontier intersection or,
//    when one side exhausts first, a count surplus from the other side's
//    witness edge — both of which it reports as connected.
//
// docs/ANALYSIS.md spells the argument out in full.
//
//===----------------------------------------------------------------------===//

#include "analysis/StaticDisconnect.h"

#include "analysis/RegionGraph.h"
#include "parser/Parser.h"
#include "sema/Resolver.h"
#include "support/JsonEscape.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <sstream>

namespace fearless {

const char *toString(DisconnectVerdict V) {
  switch (V) {
  case DisconnectVerdict::Unknown:
    return "unknown";
  case DisconnectVerdict::MustDisconnected:
    return "must-disconnected";
  case DisconnectVerdict::MustConnected:
    return "must-connected";
  }
  return "unknown";
}

namespace {

bool isHubKind(AbsNodeKind K) {
  switch (K) {
  case AbsNodeKind::Summary:
  case AbsNodeKind::RecvRest:
  case AbsNodeKind::CallRest:
  case AbsNodeKind::Glue:
    return true;
  default:
    return false;
  }
}

/// True when the ascending region lists \p A and \p B share a region.
bool sharesRegion(const std::vector<RegionId> &A,
                  const std::vector<RegionId> &B) {
  auto IA = A.begin(), IB = B.begin();
  while (IA != A.end() && IB != B.end()) {
    if (*IA == *IB)
      return true;
    if (*IA < *IB)
      ++IA;
    else
      ++IB;
  }
  return false;
}

/// Union-find over the slots 0..N-1 of one signature or call site.
class SlotGroups {
public:
  /// One buffer: the parent links, then forEachClass's member list.
  explicit SlotGroups(size_t N) : N(N), Buf(2 * N) {
    for (size_t I = 0; I < N; ++I)
      Buf[I] = I;
  }

  size_t find(size_t I) {
    while (Buf[I] != I)
      I = Buf[I] = Buf[Buf[I]];
    return I;
  }
  /// Merges the classes; \p B's representative represents the union.
  void unite(size_t A, size_t B) { Buf[find(A)] = find(B); }

  /// Calls \p Visit(Rep, Members) once per class of the slots
  /// 0..Count-1, by ascending representative, members ascending.
  template <typename VisitFn> void forEachClass(size_t Count, VisitFn Visit) {
    size_t *Members = Buf.data() + N;
    for (size_t Rep = 0; Rep < N; ++Rep) {
      size_t K = 0;
      for (size_t I = 0; I < Count; ++I)
        if (find(I) == Rep)
          Members[K++] = I;
      if (K)
        Visit(Rep, std::span<const size_t>(Members, K));
    }
  }

private:
  size_t N;
  std::vector<size_t> Buf;
};

//===----------------------------------------------------------------------===//
// Per-function abstract interpreter
//===----------------------------------------------------------------------===//

class FnAnalyzer {
public:
  /// Analyzes the function at position \p Pos of \p Fns, which must be
  /// checked. \p Summaries, by position, may be null (intra-procedural
  /// mode: every call applies the signature-derived havoc).
  FnAnalyzer(const CheckedProgram &CP, const FunctionTable &Fns, size_t Pos,
             const std::vector<FnSummary> *Summaries, SummaryStats &Stats)
      : CP(CP), Fns(Fns), Info(Fns[Pos]), Fn(*Info.Checked),
        Summaries(Summaries), Stats(Stats), Names(CP.Prog->Names) {}

  /// Interprets the body once, counted in Stats.EffectRuns, replacing
  /// \p Report with its site verdicts and diagnostics; returns the body's
  /// value.
  PointsTo run(FnReport &Report);
  /// The effects the run observed, for the summary engine.
  FnEffects effects(const PointsTo &Exit) const;

private:
  const CheckedProgram &CP;
  const FunctionTable &Fns;
  const FunctionEntry &Info;
  const CheckedFunction &Fn;
  const std::vector<FnSummary> *Summaries;
  SummaryStats &Stats;
  const Interner &Names;

  NodeTable Nodes;
  RegionGraph G;
  int LoopDepth = 0;

  // Effect collection for the interprocedural summary engine. EverSucc
  // is the monotone union of every edge ever added to any program
  // point's graph (as untyped may-edges), as successor sets by node id,
  // so reachability over it over-approximates reachability at *every*
  // point of the execution — strong updates remove edges from G but
  // never from EverSucc.
  // WriteTouched holds every node that was the base of a field write,
  // was sent, or was havocked by a call; StoredValues every node that
  // was stored as a field value (a new stored reference the §5.2
  // refcount check would observe).
  std::vector<NodeSet> EverSucc;
  NodeSet WriteTouched;
  NodeSet StoredValues;
  // Per regionful parameter (declaration order): its entry cohort (the
  // parameter node plus its group's summary hub) — the roots the
  // effects computation measures reach from.
  std::vector<Symbol> ParamNames;
  std::vector<NodeSet> ParamCohorts;

  void noteEdges(AbsNodeId From, const NodeSet &Targets) {
    if (Targets.empty())
      return;
    if (From.Id >= EverSucc.size())
      EverSucc.resize(From.Id + 1);
    EverSucc[From.Id].merge(Targets);
  }
  /// Every node reachable from \p Roots over EverSucc.
  NodeSet everReachableFrom(const NodeSet &Roots) const {
    return reachableClosure(Roots, [this](AbsNodeId N, auto Visit) {
      if (N.Id < EverSucc.size())
        for (AbsNodeId T : EverSucc[N.Id])
          Visit(T);
    });
  }

  // Site-memoized nodes, so fixpoint revisits reuse ids.
  std::map<const NewExpr *, AbsNodeId> AllocNodes;
  std::map<const RecvExpr *, std::pair<AbsNodeId, AbsNodeId>> RecvNodes;
  std::map<const CallExpr *, std::pair<AbsNodeId, AbsNodeId>> ResultNodes;
  std::map<std::pair<const CallExpr *, size_t>, AbsNodeId> GlueNodes;

  // Verdicts, overwritten on each visit; the last visit (under the stable
  // loop state) wins.
  std::map<const IfDisconnectedExpr *, SiteReport> SiteVerdicts;
  // Sites in first-visit order, for deterministic reporting.
  std::vector<const IfDisconnectedExpr *> SiteOrder;

  void buildEntryState();
  PointsTo evaluate(const Expr *E);
  PointsTo evalNew(const NewExpr &E);
  PointsTo evalCall(const CallExpr &E);
  PointsTo evalRecv(const RecvExpr &E);
  void evalIfDisconnected(const IfDisconnectedExpr &E, PointsTo &Value);
  void classify(const IfDisconnectedExpr &E);

  /// Writes \p V into field \p F of every node the base may denote, with
  /// the strong/weak decision per node, and keeps call/entry cohorts
  /// closed under mutation: if a base node's wildcard entry mentions a hub
  /// node, the written value becomes reachable from that hub too.
  void assignField(const PointsTo &Base, Symbol F, const PointsTo &V);

  bool fieldIsIso(AbsNodeId N, Symbol F) const;
  std::string describeNode(AbsNodeId N) const;
  std::string
  renderMustPath(Symbol Var, AbsNodeId Target,
                 const std::vector<RegionGraph::MustStep> &Closure) const;
};

void FnAnalyzer::buildEntryState() {
  const FnDecl &Decl = *Fn.Sig.Decl;
  const std::vector<SignatureSlot> &Ps = Info.Slots;

  // Group parameters whose input-region closures intersect (before:
  // relations, tracked fields targeting a shared region): such parameters
  // may alias or reach one another at entry.
  SlotGroups Groups(Ps.size());
  for (size_t I = 0; I < Ps.size(); ++I)
    for (size_t J = I + 1; J < Ps.size(); ++J)
      if (sharesRegion(Ps[I].InRegions, Ps[J].InRegions))
        Groups.unite(J, I);

  // Materialize one node per parameter and one summary node per group for
  // the unknown rest of the group's entry regions.
  std::vector<AbsNodeId> ParamNode(Ps.size());
  ParamNames.reserve(Ps.size());
  ParamCohorts.reserve(Ps.size());
  for (size_t I = 0; I < Ps.size(); ++I) {
    const ParamDecl &P = Decl.Params[Ps[I].ParamIndex];
    AbsNode N;
    N.Kind = AbsNodeKind::Param;
    N.Exact = true;
    N.StructName = P.ParamType.StructName;
    N.Origin = P.Name;
    N.Loc = P.Loc;
    ParamNode[I] = Nodes.add(N);
  }
  for (size_t I = 0; I < Ps.size(); ++I) {
    ParamNames.push_back(Ps[I].Name);
    ParamCohorts.push_back(NodeSet{ParamNode[I]});
  }
  Groups.forEachClass(Ps.size(), [&](size_t Rep,
                                     std::span<const size_t> Members) {
    AbsNode S;
    S.Kind = AbsNodeKind::Summary;
    S.Havocked = true;
    S.Origin = Ps[Rep].Name;
    S.Loc = Decl.Params[Ps[Rep].ParamIndex].Loc;
    AbsNodeId Sum = Nodes.add(S);

    NodeSet Cohort{Sum};
    for (size_t I : Members)
      Cohort.insert(ParamNode[I]);
    for (AbsNodeId M : Cohort) {
      FieldEdge &W = G.Edges[M][Symbol{}];
      W.Targets = Cohort;
      W.Must = false;
      noteEdges(M, Cohort);
      if (Members.size() > 1)
        Nodes[M].Havocked = true;
    }
    Nodes[Sum].Havocked = true;
    for (size_t I : Members)
      ParamCohorts[I].insert(Sum);
  });

  for (size_t I = 0; I < Ps.size(); ++I) {
    PointsTo V;
    V.Targets = {ParamNode[I]};
    V.Definite = Decl.Params[Ps[I].ParamIndex].ParamType.isStruct();
    G.Vars[Ps[I].Name] = V;
  }
}

PointsTo FnAnalyzer::evalNew(const NewExpr &E) {
  // Evaluate argument expressions first (they may have effects) and
  // remember the values of regionful initializers.
  std::vector<PointsTo> ArgVals;
  ArgVals.reserve(E.Args.size());
  for (const ExprPtr &A : E.Args)
    ArgVals.push_back(evaluate(A.get()));

  auto It = AllocNodes.find(&E);
  AbsNodeId Self;
  if (It != AllocNodes.end()) {
    Self = It->second;
  } else {
    AbsNode N;
    N.Kind = AbsNodeKind::Alloc;
    N.Exact = LoopDepth == 0;
    N.StructName = E.StructName;
    N.Loc = E.loc();
    Self = Nodes.add(N);
    AllocNodes[&E] = Self;
  }
  bool Exact = Nodes[Self].Exact && !Nodes[Self].Havocked;

  const StructInfo *SI = CP.Structs.lookup(E.StructName);
  if (!SI)
    return PointsTo{{Self}, Exact};

  // Map arguments to field slots: one per field, or one per required
  // field with the rest defaulted (StructTable's `new` contract).
  std::vector<int> ArgOfField(SI->Fields.size(), -1);
  if (E.Args.size() == SI->Fields.size()) {
    for (size_t I = 0; I < SI->Fields.size(); ++I)
      ArgOfField[I] = static_cast<int>(I);
  } else if (!E.Args.empty()) {
    std::vector<uint32_t> Req = SI->requiredFieldIndices();
    for (size_t I = 0; I < Req.size() && I < E.Args.size(); ++I)
      ArgOfField[Req[I]] = static_cast<int>(I);
  }

  for (size_t FI = 0; FI < SI->Fields.size(); ++FI) {
    const FieldInfo &F = SI->Fields[FI];
    if (!F.FieldType.isRegionful())
      continue;
    PointsTo V;
    if (ArgOfField[FI] >= 0) {
      V = ArgVals[ArgOfField[FI]];
    } else if (F.FieldType.isMaybe()) {
      V.Definite = true; // definitely none
    } else if (!F.Iso && F.FieldType.StructName == E.StructName) {
      // Argless-new self-reference default (Fig. 3's size-1 circle).
      V.Targets = {Self};
      V.Definite = Exact;
    } else {
      V.Definite = false;
    }
    G.writeField(Self, F.Name, V, /*Strong=*/Exact, F.Iso);
    noteEdges(Self, V.Targets);
    StoredValues.merge(V.Targets);
  }
  return PointsTo{{Self}, Exact};
}

PointsTo FnAnalyzer::evalRecv(const RecvExpr &E) {
  auto It = RecvNodes.find(&E);
  AbsNodeId Root, Rest;
  if (It != RecvNodes.end()) {
    Root = It->second.first;
    Rest = It->second.second;
  } else {
    AbsNode R;
    R.Kind = AbsNodeKind::Recv;
    R.Exact = LoopDepth == 0;
    if (E.ValueType.isRegionful())
      R.StructName = E.ValueType.StructName;
    R.Loc = E.loc();
    Root = Nodes.add(R);
    AbsNode S;
    S.Kind = AbsNodeKind::RecvRest;
    S.Havocked = true;
    S.Loc = E.loc();
    Rest = Nodes.add(S);
    RecvNodes[&E] = {Root, Rest};
  }
  // The received graph is isolated from everything local, but its
  // internal structure is unknown: root and rest may reference each other
  // arbitrarily.
  NodeSet Cohort{Root, Rest};
  for (AbsNodeId M : Cohort) {
    FieldEdge &W = G.Edges[M][Symbol{}];
    W.Targets.merge(Cohort);
    W.Must = false;
    noteEdges(M, Cohort);
  }
  if (!E.ValueType.isRegionful())
    return PointsTo{};
  PointsTo V;
  V.Targets = {Root};
  V.Definite = E.ValueType.isStruct() && Nodes[Root].Exact;
  return V;
}

PointsTo FnAnalyzer::evalCall(const CallExpr &E) {
  std::vector<PointsTo> ArgVals;
  ArgVals.reserve(E.Args.size());
  for (const ExprPtr &A : E.Args)
    ArgVals.push_back(evaluate(A.get()));

  size_t CalleePos = Fns.positionOf(E.Callee);
  const FunctionEntry *Callee =
      CalleePos == SIZE_MAX ? nullptr : &Fns[CalleePos];
  const FnSignature *Sig = Callee ? Callee->Sig : nullptr;
  bool ResultRegionful = Sig ? Sig->ReturnType.isRegionful() : true;

  // Regionful argument slots: the callee's signature slots that receive
  // an argument. An unresolvable callee (cannot happen in a checked
  // program) havocs every argument together with the result.
  std::vector<SignatureSlot> Unresolved;
  std::span<const SignatureSlot> Slots;
  if (Sig) {
    size_t N = 0;
    while (N < Callee->Slots.size() &&
           Callee->Slots[N].ParamIndex < E.Args.size())
      ++N;
    Slots = std::span<const SignatureSlot>(Callee->Slots).first(N);
  } else {
    Unresolved.resize(E.Args.size());
    for (size_t I = 0; I < E.Args.size(); ++I)
      Unresolved[I].ParamIndex = I;
    Slots = Unresolved;
  }

  // Interprocedural mode: a valid callee summary replaces both the
  // signature-derived grouping and — for groups made purely of preserved
  // parameters — the havoc itself. A shape mismatch against the slots
  // (cannot happen for a checked program) falls back to the signature
  // path, the sound bottom.
  const FnSummary *Sum = nullptr;
  if (Summaries && Sig) {
    const FnSummary &S = (*Summaries)[CalleePos];
    if (S.Valid && S.Params.size() == Slots.size()) {
      Sum = &S;
      for (size_t I = 0; I < Slots.size(); ++I)
        if (Slots[I].Name != S.Params[I]) {
          Sum = nullptr;
          break;
        }
    }
  }

  // Union-find over slot indices plus a virtual result slot: two slots
  // group when the callee may leave their graphs connected.
  size_t NumGroups = Slots.size() + 1; // last = result
  size_t ResultSlot = Slots.size();
  SlotGroups Groups(NumGroups);

  if (Sum) {
    // Summary-driven grouping: the callee's measured may-connect
    // relation, usually far sparser than what the signature admits. In
    // particular a consumed-and-sent region connects to nothing, and a
    // read-only callee connects nothing at all.
    for (size_t I = 0; I < Slots.size(); ++I)
      for (size_t J = I + 1; J < Slots.size(); ++J)
        if (Sum->mayConnect(I, J))
          Groups.unite(I, J);
    if (ResultRegionful)
      for (size_t I = 0; I < Slots.size(); ++I)
        if (Sum->mayConnect(I, Sum->resultSlot()))
          Groups.unite(I, ResultSlot);
  } else {
    for (size_t I = 0; I < Slots.size(); ++I)
      for (size_t J = I + 1; J < Slots.size(); ++J)
        if (sharesRegion(Slots[I].InRegions, Slots[J].InRegions) ||
            sharesRegion(Slots[I].OutRegions, Slots[J].OutRegions))
          Groups.unite(I, J);
    for (size_t I = 0; I < Slots.size(); ++I) {
      if (Slots[I].Consumed) {
        // A consumed region may have been sent away — or retracted into
        // any other argument or the result. Group with everything.
        for (size_t J = 0; J < NumGroups; ++J)
          Groups.unite(I, J);
      }
      if (Sig && ResultRegionful &&
          std::binary_search(Slots[I].OutRegions.begin(),
                             Slots[I].OutRegions.end(), Sig->ResultRegion))
        Groups.unite(I, ResultSlot);
    }
    if (!Sig)
      for (size_t I = 0; I < NumGroups; ++I)
        Groups.unite(I, 0);
  }

  // Result nodes (memoized per site).
  AbsNodeId Root, Rest;
  if (ResultRegionful) {
    auto RIt = ResultNodes.find(&E);
    if (RIt != ResultNodes.end()) {
      Root = RIt->second.first;
      Rest = RIt->second.second;
    } else {
      AbsNode R;
      R.Kind = AbsNodeKind::CallResult;
      R.Exact = LoopDepth == 0;
      if (Sig && Sig->ReturnType.isRegionful())
        R.StructName = Sig->ReturnType.StructName;
      R.Origin = E.Callee;
      R.Loc = E.loc();
      Root = Nodes.add(R);
      AbsNode S;
      S.Kind = AbsNodeKind::CallRest;
      S.Havocked = true;
      S.Origin = E.Callee;
      S.Loc = E.loc();
      Rest = Nodes.add(S);
      ResultNodes[&E] = {Root, Rest};
    }
    NodeSet Cohort{Root, Rest};
    for (AbsNodeId M : Cohort) {
      FieldEdge &W = G.Edges[M][Symbol{}];
      W.Targets.merge(Cohort);
      W.Must = false;
      noteEdges(M, Cohort);
    }
  }

  // Per group with at least one argument slot: a bidirectional glue hub
  // over everything reachable from the group's arguments (plus the result
  // cohort when the result belongs to the group). The hub models every
  // connection the callee may have created, including through objects it
  // allocated itself.
  Groups.forEachClass(Slots.size(), [&](size_t Rep,
                                        std::span<const size_t> Members) {
    bool HasResult = ResultRegionful && Groups.find(ResultSlot) == Rep;
    // Preserved groups: the summary proves the callee neither wrote into
    // nor stored a new reference to anything reachable from these
    // arguments, and the result does not alias them — leave the caller's
    // abstract graph completely untouched. This is where cross-call
    // must-* verdicts come from. Result-aliasing groups (identity-like
    // callees) deliberately stay on the havoc path: a later write
    // through the returned alias would otherwise leave stale must-edges
    // on the argument's nodes.
    if (Sum && !HasResult &&
        std::all_of(Members.begin(), Members.end(),
                    [&](size_t I) { return Sum->Preserved[I]; }))
      return;
    NodeSet Reach;
    for (size_t I : Members)
      Reach.merge(G.reachableFrom(ArgVals[Slots[I].ParamIndex].Targets));
    if (HasResult)
      Reach.merge(G.reachableFrom({Root, Rest}));
    if (Reach.empty())
      return;

    AbsNodeId Glue;
    auto GIt = GlueNodes.find({&E, Rep});
    if (GIt != GlueNodes.end()) {
      Glue = GIt->second;
    } else {
      AbsNode N;
      N.Kind = AbsNodeKind::Glue;
      N.Havocked = true;
      N.Origin = E.Callee;
      N.Loc = E.loc();
      Glue = Nodes.add(N);
      GlueNodes[{&E, Rep}] = Glue;
    }

    for (AbsNodeId N : Reach) {
      Nodes[N].Havocked = true;
      WriteTouched.insert(N);
      {
        // The callee may have rewritten any field of any reachable object
        // to point anywhere in the (merged) region: degrade every named
        // entry and widen it with the hub. The references die before the
        // hub's own entry is added below, which may shift G.Edges.
        RegionGraph::FieldMap &FieldMap = G.Edges[N];
        for (auto &[Field, Edge] : FieldMap) {
          Edge.Must = false;
          if (Field.isValid())
            Edge.Targets.insert(Glue);
        }
        FieldEdge &W = FieldMap[Symbol{}];
        W.Targets.insert(Glue);
        W.Must = false;
      }
      FieldEdge &GW = G.Edges[Glue][Symbol{}];
      GW.Targets.insert(N);
      GW.Must = false;
      noteEdges(N, {Glue});
      noteEdges(Glue, {N});
    }
    G.Edges[Glue][Symbol{}].Targets.insert(Glue);
  });

  if (!ResultRegionful)
    return PointsTo{};
  PointsTo V;
  V.Targets = {Root};
  V.Definite = Sig && Sig->ReturnType.isStruct() && Nodes[Root].Exact;
  return V;
}

bool FnAnalyzer::fieldIsIso(AbsNodeId N, Symbol F) const {
  Symbol SN = Nodes[N].StructName;
  if (!SN.isValid())
    return false;
  const StructInfo *SI = CP.Structs.lookup(SN);
  if (!SI)
    return false;
  const FieldInfo *FI = SI->findField(F);
  return FI && FI->Iso;
}

void FnAnalyzer::assignField(const PointsTo &Base, Symbol F,
                             const PointsTo &V) {
  bool Strong = Base.Definite && Base.Targets.size() == 1;
  WriteTouched.merge(Base.Targets);
  StoredValues.merge(V.Targets);
  for (AbsNodeId N : Base.Targets) {
    bool NodeStrong = Strong && Nodes[N].Exact && !Nodes[N].Havocked;
    G.writeField(N, F, V, NodeStrong, fieldIsIso(N, F));
    noteEdges(N, V.Targets);
    // Keep cohorts closed under mutation: if this node belongs to an
    // entry/call cohort (its wildcard mentions a hub), objects denoted by
    // cohort mates may be the one actually written — make the value
    // reachable from the hub so their may-information stays sound. The
    // hubs are copied out first: addMayEdge may shift G.Edges.
    auto It = G.Edges.find(N);
    if (It == G.Edges.end())
      continue;
    auto WIt = It->second.find(Symbol{});
    if (WIt == It->second.end())
      continue;
    NodeSet Hubs;
    for (AbsNodeId T : WIt->second.Targets)
      if (isHubKind(Nodes[T].Kind))
        Hubs.insert(T);
    for (AbsNodeId H : Hubs) {
      for (AbsNodeId T : V.Targets)
        G.addMayEdge(H, Symbol{}, T);
      noteEdges(H, V.Targets);
    }
  }
}

std::string FnAnalyzer::describeNode(AbsNodeId N) const {
  const AbsNode &Node = Nodes[N];
  std::ostringstream OS;
  switch (Node.Kind) {
  case AbsNodeKind::Alloc:
    OS << "the object allocated at " << toString(Node.Loc);
    break;
  case AbsNodeKind::Param:
    OS << "parameter `" << Names.spelling(Node.Origin) << "`'s object";
    break;
  case AbsNodeKind::Recv:
    OS << "the object received at " << toString(Node.Loc);
    break;
  case AbsNodeKind::CallResult:
    OS << "the object returned by `" << Names.spelling(Node.Origin)
       << "` at " << toString(Node.Loc);
    break;
  default:
    OS << "an unknown object";
    break;
  }
  return OS.str();
}

std::string FnAnalyzer::renderMustPath(
    Symbol Var, AbsNodeId Target,
    const std::vector<RegionGraph::MustStep> &Closure) const {
  std::vector<Symbol> Fields;
  AbsNodeId N = Target;
  while (Closure[N.Id].Reached && Closure[N.Id].Prev.isValid()) {
    Fields.push_back(Closure[N.Id].Field);
    N = Closure[N.Id].Prev;
  }
  std::string Out = "`" + Names.spelling(Var);
  for (auto It = Fields.rbegin(); It != Fields.rend(); ++It)
    Out += "." + Names.spelling(*It);
  Out += "`";
  return Out;
}

void FnAnalyzer::classify(const IfDisconnectedExpr &E) {
  SiteReport R;
  R.Site = &E;
  R.Function = Fn.Sig.Name;
  R.Loc = E.loc();
  R.Verdict = DisconnectVerdict::Unknown;

  PointsTo PA, PB;
  if (auto It = G.Vars.find(E.VarA); It != G.Vars.end())
    PA = It->second;
  if (auto It = G.Vars.find(E.VarB); It != G.Vars.end())
    PB = It->second;

  // Must-connected: definite single exact operands whose non-iso must
  // closures share a node.
  if (R.Verdict == DisconnectVerdict::Unknown && PA.Definite &&
      PA.Targets.size() == 1 && PB.Definite && PB.Targets.size() == 1) {
    AbsNodeId NA = *PA.Targets.begin();
    AbsNodeId NB = *PB.Targets.begin();
    if (NA == NB) {
      R.Verdict = DisconnectVerdict::MustConnected;
      R.Witness = "`" + Names.spelling(E.VarA) + "` and `" +
                  Names.spelling(E.VarB) + "` are the same object";
    } else if (Nodes[NA].Exact && Nodes[NB].Exact) {
      auto CA = G.mustClosure(NA, Nodes);
      auto CB = G.mustClosure(NB, Nodes);
      // The lowest shared node id, as the closures' node order gives it.
      AbsNodeId Shared;
      for (size_t N = 0; N < CA.size(); ++N)
        if (CA[N].Reached && CB[N].Reached) {
          Shared = AbsNodeId{static_cast<uint32_t>(N)};
          break;
        }
      if (Shared.isValid()) {
        R.Verdict = DisconnectVerdict::MustConnected;
        R.Witness = renderMustPath(E.VarA, Shared, CA) + " and " +
                    renderMustPath(E.VarB, Shared, CB) + " reach " +
                    describeNode(Shared);
      }
    }
  }

  // Must-disconnected: disjoint full-edge reach over sides made purely of
  // local, never-call-exposed allocations, closed under incoming edges,
  // with no iso edges inside (see the file header for why each condition
  // is needed for agreement with the refcount algorithm).
  if (R.Verdict == DisconnectVerdict::Unknown && !PA.Targets.empty() &&
      !PB.Targets.empty()) {
    NodeSet RA = G.reachableFrom(PA.Targets);
    NodeSet RB = G.reachableFrom(PB.Targets);
    bool Disjoint = !RA.intersects(RB);
    auto sideOk = [&](const NodeSet &Side) {
      for (AbsNodeId N : Side) {
        const AbsNode &Node = Nodes[N];
        if (Node.Kind != AbsNodeKind::Alloc || Node.Havocked)
          return false;
        auto It = G.Edges.find(N);
        if (It == G.Edges.end())
          continue;
        for (const auto &[Field, Edge] : It->second)
          if (Edge.Iso && !Edge.Targets.empty())
            return false;
      }
      return true;
    };
    if (Disjoint && sideOk(RA) && sideOk(RB) &&
        !G.hasExternalEdgeInto(RA) && !G.hasExternalEdgeInto(RB))
      R.Verdict = DisconnectVerdict::MustDisconnected;
  }

  if (!SiteVerdicts.contains(&E))
    SiteOrder.push_back(&E);
  SiteVerdicts[&E] = std::move(R);
}

void FnAnalyzer::evalIfDisconnected(const IfDisconnectedExpr &E,
                                    PointsTo &Value) {
  classify(E);
  // Both branches are analyzed regardless of the verdict (the dead one is
  // reported, not skipped): the runtime split in the then-branch does not
  // change the physical heap, so no abstract transfer is needed beyond
  // the join.
  RegionGraph Saved = G;
  PointsTo VThen = evaluate(E.Then.get());
  RegionGraph GThen = std::move(G);
  G = std::move(Saved);
  PointsTo VElse = E.Else ? evaluate(E.Else.get()) : PointsTo{};
  G.join(GThen);
  Value = joinPointsTo(VThen, VElse);
}

PointsTo FnAnalyzer::evaluate(const Expr *E) {
  if (!E)
    return PointsTo{};
  switch (E->kind()) {
  case ExprKind::IntLit:
  case ExprKind::BoolLit:
  case ExprKind::UnitLit:
  case ExprKind::NoneLit: {
    PointsTo V;
    V.Definite = E->kind() == ExprKind::NoneLit;
    return V;
  }
  case ExprKind::VarRef: {
    const auto &VR = cast<VarRefExpr>(*E);
    auto It = G.Vars.find(VR.Name);
    return It == G.Vars.end() ? PointsTo{} : It->second;
  }
  case ExprKind::FieldRef: {
    const auto &FR = cast<FieldRefExpr>(*E);
    PointsTo Base = evaluate(FR.Base.get());
    return G.readField(Base.Targets, FR.Field, Nodes);
  }
  case ExprKind::AssignVar: {
    const auto &AV = cast<AssignVarExpr>(*E);
    G.Vars[AV.Name] = evaluate(AV.Value.get());
    return PointsTo{};
  }
  case ExprKind::AssignField: {
    const auto &AF = cast<AssignFieldExpr>(*E);
    PointsTo Base = evaluate(AF.Base.get());
    PointsTo V = evaluate(AF.Value.get());
    assignField(Base, AF.Field, V);
    return PointsTo{};
  }
  case ExprKind::Let: {
    const auto &L = cast<LetExpr>(*E);
    G.Vars[L.Name] = evaluate(L.Init.get());
    return evaluate(L.Body.get());
  }
  case ExprKind::LetSome: {
    const auto &LS = cast<LetSomeExpr>(*E);
    PointsTo Scrut = evaluate(LS.Scrutinee.get());
    RegionGraph Saved = G;
    G.Vars[LS.Name] = Scrut;
    PointsTo VSome = evaluate(LS.SomeBody.get());
    RegionGraph GSome = std::move(G);
    G = std::move(Saved);
    PointsTo VNone =
        LS.NoneBody ? evaluate(LS.NoneBody.get()) : PointsTo{};
    G.join(GSome);
    return joinPointsTo(VSome, VNone);
  }
  case ExprKind::If: {
    const auto &I = cast<IfExpr>(*E);
    evaluate(I.Cond.get());
    RegionGraph Saved = G;
    PointsTo VThen = evaluate(I.Then.get());
    RegionGraph GThen = std::move(G);
    G = std::move(Saved);
    PointsTo VElse = I.Else ? evaluate(I.Else.get()) : PointsTo{};
    G.join(GThen);
    return joinPointsTo(VThen, VElse);
  }
  case ExprKind::IfDisconnected: {
    PointsTo V;
    evalIfDisconnected(cast<IfDisconnectedExpr>(*E), V);
    return V;
  }
  case ExprKind::While: {
    const auto &W = cast<WhileExpr>(*E);
    evaluate(W.Cond.get());
    RegionGraph H = G;
    // Monotone join-at-head fixpoint; the domain is finite once all sites
    // have materialized their nodes, so this terminates well inside the
    // iteration cap.
    for (int Iter = 0; Iter < 64; ++Iter) {
      ++LoopDepth;
      G = H;
      evaluate(W.Body.get());
      evaluate(W.Cond.get());
      --LoopDepth;
      RegionGraph Next = H;
      Next.join(G);
      if (Next == H)
        break;
      H = std::move(Next);
    }
    G = std::move(H);
    return PointsTo{};
  }
  case ExprKind::Seq: {
    const auto &S = cast<SeqExpr>(*E);
    PointsTo Last;
    for (const ExprPtr &Elem : S.Elems)
      Last = evaluate(Elem.get());
    return Last;
  }
  case ExprKind::New:
    return evalNew(cast<NewExpr>(*E));
  case ExprKind::SomeExpr:
    return evaluate(cast<SomeExpr>(*E).Operand.get());
  case ExprKind::IsNone:
    evaluate(cast<IsNoneExpr>(*E).Operand.get());
    return PointsTo{};
  case ExprKind::Send: {
    PointsTo Op = evaluate(cast<SendExpr>(*E).Operand.get());
    // The sent subgraph leaves the thread: everything reachable from the
    // operand counts as touched for the effects summary (a caller must
    // not treat the argument's region as preserved).
    WriteTouched.merge(G.reachableFrom(Op.Targets));
    return PointsTo{};
  }
  case ExprKind::Recv:
    return evalRecv(cast<RecvExpr>(*E));
  case ExprKind::Call:
    return evalCall(cast<CallExpr>(*E));
  case ExprKind::Binary: {
    const auto &B = cast<BinaryExpr>(*E);
    evaluate(B.Lhs.get());
    evaluate(B.Rhs.get());
    return PointsTo{};
  }
  case ExprKind::Unary:
    evaluate(cast<UnaryExpr>(*E).Operand.get());
    return PointsTo{};
  }
  return PointsTo{};
}

PointsTo FnAnalyzer::run(FnReport &Report) {
  ++Stats.EffectRuns;
  buildEntryState();
  PointsTo Exit = evaluate(Fn.Sig.Decl->Body.get());

  Report = FnReport{};
  for (const IfDisconnectedExpr *Site : SiteOrder) {
    const SiteReport &R = SiteVerdicts.at(Site);
    Report.Sites.push_back(R);

    std::string Args = "`if disconnected(" + Names.spelling(Site->VarA) +
                       ", " + Names.spelling(Site->VarB) + ")`";
    AnalysisDiag D;
    D.Kind = AnalysisDiagKind::SiteVerdict;
    D.Loc = R.Loc;
    switch (R.Verdict) {
    case DisconnectVerdict::MustDisconnected:
      D.Message = Args + " is must-disconnected: the then-branch always "
                         "runs and the traversal can be elided";
      break;
    case DisconnectVerdict::MustConnected:
      D.Message = Args + " is must-connected: the else-branch always runs "
                         "(witness: " +
                  R.Witness + ")";
      break;
    case DisconnectVerdict::Unknown:
      D.Message = Args + " is unknown: the runtime traversal decides";
      break;
    }
    Report.Diags.push_back(D);

    if (R.Verdict != DisconnectVerdict::Unknown) {
      const Expr *Dead = R.Verdict == DisconnectVerdict::MustDisconnected
                             ? Site->Else.get()
                             : Site->Then.get();
      const char *Which =
          R.Verdict == DisconnectVerdict::MustDisconnected ? "else" : "then";
      if (Dead) {
        AnalysisDiag DB;
        DB.Kind = AnalysisDiagKind::DeadBranch;
        DB.Loc = Dead->loc();
        DB.Message = std::string("dead ") + Which +
                     "-branch: the `if disconnected` at " + toString(R.Loc) +
                     " is " + toString(R.Verdict);
        Report.Diags.push_back(DB);
      }
    }
  }
  return Exit;
}

FnEffects FnAnalyzer::effects(const PointsTo &Exit) const {
  FnEffects E;
  E.Params = ParamNames;
  E.ResultRegionful = Fn.Sig.ReturnType.isRegionful();

  // Ever-reach per slot: reachability over the monotone union of every
  // edge any program point had, so a write into a subgraph the function
  // later strong-updated away from is still charged to the parameter.
  std::vector<NodeSet> Reach;
  Reach.reserve(ParamCohorts.size() + 1);
  for (const NodeSet &Cohort : ParamCohorts)
    Reach.push_back(everReachableFrom(Cohort));
  Reach.push_back(everReachableFrom(Exit.Targets)); // result slot

  for (size_t I = 0; I < ParamCohorts.size(); ++I)
    E.Touched.push_back(Reach[I].intersects(WriteTouched) ||
                        Reach[I].intersects(StoredValues));

  size_t N = Reach.size();
  E.SlotOverlap.assign(N * N, false);
  for (size_t I = 0; I < N; ++I) {
    E.SlotOverlap[I * N + I] = true;
    for (size_t J = I + 1; J < N; ++J)
      E.SlotOverlap[I * N + J] = E.SlotOverlap[J * N + I] =
          Reach[I].intersects(Reach[J]);
  }
  return E;
}

//===----------------------------------------------------------------------===//
// Syntactic lints
//===----------------------------------------------------------------------===//

bool mentionsVar(const Expr &E, Symbol Var) {
  if (const auto *V = dyn_cast<VarRefExpr>(&E))
    return V->Name == Var;
  if (const auto *AV = dyn_cast<AssignVarExpr>(&E); AV && AV->Name == Var)
    return true;
  if (const auto *ID = dyn_cast<IfDisconnectedExpr>(&E);
      ID && (ID->VarA == Var || ID->VarB == Var))
    return true;
  bool Found = false;
  forEachChild(E, [&](const Expr &Child) {
    Found = Found || mentionsVar(Child, Var);
  });
  return Found;
}

/// Tracks definitely-consumed variables through one function body.
class LintWalker {
public:
  LintWalker(const Program &P, std::vector<AnalysisDiag> &Diags)
      : P(P), Diags(Diags) {}

  void walk(const Expr &E);

private:
  const Program &P;
  std::vector<AnalysisDiag> &Diags;
  std::map<Symbol, SourceLoc> Consumed; ///< var -> consuming site

  void walkChildren(const Expr &E) {
    forEachChild(E, [this](const Expr &Child) { walk(Child); });
  }

  void flagUse(Symbol Var, SourceLoc Loc) {
    auto It = Consumed.find(Var);
    if (It == Consumed.end())
      return;
    AnalysisDiag D;
    D.Kind = AnalysisDiagKind::UseAfterConsume;
    D.Loc = Loc;
    D.Message = "`" + P.Names.spelling(Var) +
                "` is used here but its region was consumed at " +
                toString(It->second);
    Diags.push_back(D);
  }

  static std::map<Symbol, SourceLoc>
  intersect(const std::map<Symbol, SourceLoc> &A,
            const std::map<Symbol, SourceLoc> &B) {
    std::map<Symbol, SourceLoc> Out;
    for (const auto &[Var, Loc] : A)
      if (B.contains(Var))
        Out.emplace(Var, Loc);
    return Out;
  }
};

void LintWalker::walk(const Expr &E) {
  switch (E.kind()) {
  case ExprKind::VarRef:
    flagUse(cast<VarRefExpr>(E).Name, E.loc());
    return;
  case ExprKind::AssignVar: {
    const auto &AV = cast<AssignVarExpr>(E);
    walk(*AV.Value);
    Consumed.erase(AV.Name); // Rebound: the old region no longer matters.
    return;
  }
  case ExprKind::Let: {
    const auto &L = cast<LetExpr>(E);
    walk(*L.Init);
    if (const auto *N = dyn_cast<NewExpr>(L.Init.get());
        N && N->Args.empty() && !mentionsVar(*L.Body, L.Name)) {
      AnalysisDiag D;
      D.Kind = AnalysisDiagKind::NeverPopulated;
      D.Loc = E.loc();
      D.Message = "the region of `" + P.Names.spelling(L.Name) +
                  "` (fresh `new " + P.Names.spelling(N->StructName) +
                  "`) is never populated or read";
      Diags.push_back(D);
    }
    Consumed.erase(L.Name);
    walk(*L.Body);
    return;
  }
  case ExprKind::LetSome: {
    const auto &LS = cast<LetSomeExpr>(E);
    walk(*LS.Scrutinee);
    auto Saved = Consumed;
    Consumed.erase(LS.Name);
    walk(*LS.SomeBody);
    auto AfterSome = std::move(Consumed);
    Consumed = Saved;
    walk(*LS.NoneBody);
    Consumed = intersect(AfterSome, Consumed);
    return;
  }
  case ExprKind::If: {
    const auto &I = cast<IfExpr>(E);
    walk(*I.Cond);
    auto Saved = Consumed;
    walk(*I.Then);
    auto AfterThen = std::move(Consumed);
    Consumed = Saved;
    if (I.Else)
      walk(*I.Else);
    Consumed = intersect(AfterThen, Consumed);
    return;
  }
  case ExprKind::IfDisconnected: {
    const auto &ID = cast<IfDisconnectedExpr>(E);
    flagUse(ID.VarA, E.loc());
    flagUse(ID.VarB, E.loc());
    auto Saved = Consumed;
    walk(*ID.Then);
    auto AfterThen = std::move(Consumed);
    Consumed = Saved;
    walk(*ID.Else);
    Consumed = intersect(AfterThen, Consumed);
    return;
  }
  case ExprKind::While: {
    const auto &W = cast<WhileExpr>(E);
    walk(*W.Cond);
    auto Saved = Consumed;
    walk(*W.Body);
    Consumed = std::move(Saved); // The body may not run at all.
    return;
  }
  case ExprKind::Send: {
    const auto &S = cast<SendExpr>(E);
    walk(*S.Operand);
    if (const auto *V = dyn_cast<VarRefExpr>(S.Operand.get()))
      Consumed.emplace(V->Name, E.loc());
    return;
  }
  case ExprKind::Call: {
    walkChildren(E);
    const auto &C = cast<CallExpr>(E);
    if (const FnDecl *Callee = P.findFunction(C.Callee))
      for (size_t I = 0; I < C.Args.size() && I < Callee->Params.size();
           ++I)
        if (const auto *V = dyn_cast<VarRefExpr>(C.Args[I].get());
            V && Callee->isConsumed(Callee->Params[I].Name))
          Consumed.emplace(V->Name, E.loc());
    return;
  }
  default:
    walkChildren(E);
    return;
  }
}

} // namespace

std::vector<AnalysisDiag> lintProgram(const Program &P) {
  std::vector<AnalysisDiag> Diags;
  for (const FnDecl &F : P.Functions) {
    LintWalker W(P, Diags);
    W.walk(*F.Body);
  }
  return Diags;
}

//===----------------------------------------------------------------------===//
// Program analysis and rendering
//===----------------------------------------------------------------------===//

DisconnectVerdictTable AnalysisReport::verdictTable() const {
  DisconnectVerdictTable T;
  for (const SiteReport &S : Sites)
    T[S.Site] = S.Verdict;
  return T;
}

VerdictCounts AnalysisReport::countVerdicts() const {
  VerdictCounts C;
  for (const SiteReport &S : Sites) {
    switch (S.Verdict) {
    case DisconnectVerdict::MustDisconnected:
      ++C.MustDisconnected;
      break;
    case DisconnectVerdict::MustConnected:
      ++C.MustConnected;
      break;
    case DisconnectVerdict::Unknown:
      ++C.Unknown;
      break;
    }
  }
  return C;
}

FnEffects analyzeFunction(const CheckedProgram &CP, const FunctionTable &Fns,
                          size_t Pos, const std::vector<FnSummary> &Summaries,
                          FnReport &Report, SummaryStats &Stats) {
  FnAnalyzer A(CP, Fns, Pos, &Summaries, Stats);
  return A.effects(A.run(Report));
}

AnalysisReport analyzeProgram(const CheckedProgram &CP,
                              const AnalysisOptions &Opts) {
  AnalysisReport Report;
  // Per declaration position: the report of the function's final run.
  std::vector<FnReport> FnReports(CP.Prog->Functions.size());
  if (Opts.Interprocedural) {
    Report.Summaries =
        computeSummaries(CP, &Report.SummaryInfo, &FnReports);
  } else {
    FunctionTable Fns(CP);
    for (size_t I = 0; I < FnReports.size(); ++I)
      if (Fns[I].Checked)
        FnAnalyzer(CP, Fns, I, nullptr, Report.SummaryInfo)
            .run(FnReports[I]);
  }
  for (FnReport &F : FnReports) {
    std::move(F.Sites.begin(), F.Sites.end(),
              std::back_inserter(Report.Sites));
    std::move(F.Diags.begin(), F.Diags.end(),
              std::back_inserter(Report.Diags));
  }
  auto Lints = lintProgram(*CP.Prog);
  Report.Diags.insert(Report.Diags.end(), Lints.begin(), Lints.end());
  return Report;
}

static std::string basenameOf(std::string_view Path) {
  size_t Slash = Path.find_last_of('/');
  return std::string(Slash == std::string_view::npos
                         ? Path
                         : Path.substr(Slash + 1));
}

static int diagRank(AnalysisDiagKind K) {
  switch (K) {
  case AnalysisDiagKind::SiteVerdict:
    return 0;
  case AnalysisDiagKind::DeadBranch:
    return 1;
  case AnalysisDiagKind::UseAfterConsume:
    return 2;
  case AnalysisDiagKind::NeverPopulated:
    return 3;
  }
  return 4;
}

std::string renderDiags(const std::vector<AnalysisDiag> &Diags,
                        std::string_view FileName) {
  std::string Base = basenameOf(FileName);
  std::vector<const AnalysisDiag *> Sorted;
  Sorted.reserve(Diags.size());
  for (const AnalysisDiag &D : Diags)
    Sorted.push_back(&D);
  std::stable_sort(Sorted.begin(), Sorted.end(),
                   [](const AnalysisDiag *A, const AnalysisDiag *B) {
                     auto KeyA = std::make_tuple(A->Loc.Line, A->Loc.Column,
                                                 diagRank(A->Kind));
                     auto KeyB = std::make_tuple(B->Loc.Line, B->Loc.Column,
                                                 diagRank(B->Kind));
                     return KeyA < KeyB;
                   });
  std::string Out;
  for (const AnalysisDiag *D : Sorted) {
    Out += Base + ":" + toString(D->Loc) + ": " + D->Message + "\n";
  }
  return Out;
}

static const char *diagKindName(AnalysisDiagKind K) {
  switch (K) {
  case AnalysisDiagKind::SiteVerdict:
    return "site-verdict";
  case AnalysisDiagKind::DeadBranch:
    return "dead-branch";
  case AnalysisDiagKind::UseAfterConsume:
    return "use-after-consume";
  case AnalysisDiagKind::NeverPopulated:
    return "never-populated";
  }
  return "unknown";
}

static bool isLintDiag(AnalysisDiagKind K) {
  return K == AnalysisDiagKind::UseAfterConsume ||
         K == AnalysisDiagKind::NeverPopulated;
}

/// Renders the stable machine-readable document of one analyze run
/// (schema "fearless-analysis-v1"). Error paths keep the same envelope
/// with "error" set, so tooling can parse every exit uniformly.
static std::string renderJson(const SourceAnalysis &Out, std::string_view Base,
                              const AnalysisOptions &AOpts,
                              const AnalysisReport *R, const Interner *Names,
                              std::string_view Error) {
  std::ostringstream OS;
  OS << "{\n";
  OS << "  \"schema\": \"fearless-analysis-v1\",\n";
  OS << "  \"file\": \"" << escapeJson(Base) << "\",\n";
  OS << "  \"interprocedural\": "
     << (AOpts.Interprocedural ? "true" : "false") << ",\n";
  OS << "  \"hard_error\": " << (Out.HardError ? "true" : "false") << ",\n";
  OS << "  \"checked\": " << (Out.CheckedOk ? "true" : "false") << ",\n";
  OS << "  \"error\": \"" << escapeJson(Error) << "\",\n";
  OS << "  \"functions\": " << Out.FunctionCount << ",\n";
  OS << "  \"lint_diags\": " << Out.LintDiags << ",\n";
  OS << "  \"verdicts\": {\"must_disconnected\": "
     << Out.Verdicts.MustDisconnected
     << ", \"must_connected\": " << Out.Verdicts.MustConnected
     << ", \"unknown\": " << Out.Verdicts.Unknown << "},\n";
  OS << "  \"sites\": [";
  if (R && Names) {
    bool First = true;
    for (const SiteReport &S : R->Sites) {
      OS << (First ? "" : ",") << "\n    {\"function\": \""
         << escapeJson(Names->spelling(S.Function)) << "\", \"line\": "
         << S.Loc.Line << ", \"col\": " << S.Loc.Column << ", \"verdict\": \""
         << toString(S.Verdict) << "\", \"witness\": \""
         << escapeJson(S.Witness) << "\"}";
      First = false;
    }
    if (!First)
      OS << "\n  ";
  }
  OS << "],\n";
  OS << "  \"diags\": [";
  if (R) {
    bool First = true;
    for (const AnalysisDiag &D : R->Diags) {
      OS << (First ? "" : ",") << "\n    {\"kind\": \""
         << diagKindName(D.Kind) << "\", \"line\": " << D.Loc.Line
         << ", \"col\": " << D.Loc.Column << ", \"message\": \""
         << escapeJson(D.Message) << "\"}";
      First = false;
    }
    if (!First)
      OS << "\n  ";
  }
  OS << "],\n";
  OS << "  \"summaries\": [";
  if (R && Names) {
    bool First = true;
    for (const auto &[Fn, S] : R->Summaries) {
      OS << (First ? "" : ",") << "\n    {\"function\": \""
         << escapeJson(Names->spelling(Fn)) << "\", \"valid\": "
         << (S.Valid ? "true" : "false") << ", \"params\": [";
      for (size_t I = 0; I < S.Params.size(); ++I)
        OS << (I ? ", " : "") << "\""
           << escapeJson(Names->spelling(S.Params[I])) << "\"";
      OS << "], \"preserved\": [";
      bool FirstBit = true;
      for (size_t I = 0; S.Valid && I < S.Params.size(); ++I)
        if (S.Preserved[I]) {
          OS << (FirstBit ? "" : ", ") << "\""
             << escapeJson(Names->spelling(S.Params[I])) << "\"";
          FirstBit = false;
        }
      OS << "], \"consumed\": [";
      FirstBit = true;
      for (size_t I = 0; S.Valid && I < S.Params.size(); ++I)
        if (S.Consumed[I]) {
          OS << (FirstBit ? "" : ", ") << "\""
             << escapeJson(Names->spelling(S.Params[I])) << "\"";
          FirstBit = false;
        }
      OS << "], \"connects\": [";
      FirstBit = true;
      size_t NSlots = S.Params.size() + 1;
      auto SlotName = [&](size_t I) {
        return I == S.Params.size() ? std::string("result")
                                    : Names->spelling(S.Params[I]);
      };
      for (size_t I = 0; S.Valid && I < NSlots; ++I)
        for (size_t J = I + 1; J < NSlots; ++J) {
          if (!S.mayConnect(I, J))
            continue;
          if (J == S.Params.size() && !S.ResultRegionful)
            continue;
          OS << (FirstBit ? "" : ", ") << "[\"" << escapeJson(SlotName(I))
             << "\", \"" << escapeJson(SlotName(J)) << "\"]";
          FirstBit = false;
        }
      OS << "], \"result_regionful\": "
         << (S.ResultRegionful ? "true" : "false") << "}";
      First = false;
    }
    if (!First)
      OS << "\n  ";
  }
  OS << "]\n";
  OS << "}\n";
  return OS.str();
}

SourceAnalysis analyzeSourceText(std::string_view Source,
                                 std::string_view FileName,
                                 const AnalysisOptions &AOpts,
                                 const SourceAnalysisOptions &Opts) {
  SourceAnalysis Out;
  std::string Base = basenameOf(FileName);

  DiagnosticEngine Diags;
  auto ProgOpt = parseProgram(Source, Diags);
  if (!ProgOpt) {
    Out.HardError = true;
    if (Opts.Json)
      Out.Rendered = renderJson(Out, Base, AOpts, nullptr, nullptr,
                                "parsing failed");
    else
      Out.Rendered = Base + ": error: parsing failed\n" + Diags.renderAll();
    return Out;
  }
  Program P = std::move(*ProgOpt);
  StructTable Structs;
  if (!Structs.build(P, Diags) || !resolveProgram(P, Structs, Diags)) {
    Out.HardError = true;
    if (Opts.Json)
      Out.Rendered = renderJson(Out, Base, AOpts, nullptr, nullptr,
                                "resolution failed");
    else
      Out.Rendered = Base + ": error: resolution failed\n" + Diags.renderAll();
    return Out;
  }
  Out.FunctionCount = P.Functions.size();

  // Nothing here reads a derivation, so none is recorded.
  CheckerOptions CO;
  CO.EmitDerivations = false;
  auto Checked = checkProgram(P, CO);
  if (!Checked) {
    // The region checker rejected the program: fall back to the syntactic
    // lints, which usually explain the misuse more directly.
    auto Lints = lintProgram(P);
    for (const AnalysisDiag &D : Lints)
      if (isLintDiag(D.Kind))
        ++Out.LintDiags;
    std::string Error = "region check failed: " + Checked.error().Message +
                        " at " + toString(Checked.error().Loc);
    if (Opts.Json) {
      AnalysisReport LintOnly;
      LintOnly.Diags = std::move(Lints);
      Out.Rendered =
          renderJson(Out, Base, AOpts, &LintOnly, &P.Names, Error);
    } else {
      Out.Rendered = Base + ": note: region check failed (" +
                     Checked.error().Message + " at " +
                     toString(Checked.error().Loc) +
                     "); syntactic lints only\n" +
                     renderDiags(Lints, FileName);
    }
    return Out;
  }
  Out.CheckedOk = true;

  AnalysisReport R = analyzeProgram(*Checked, AOpts);
  Out.Verdicts = R.countVerdicts();
  for (const AnalysisDiag &D : R.Diags)
    if (isLintDiag(D.Kind))
      ++Out.LintDiags;

  if (Opts.Json) {
    Out.Rendered = renderJson(Out, Base, AOpts, &R, &P.Names, "");
    return Out;
  }

  std::ostringstream Header;
  Header << Base << ": analyzed " << Checked->Functions.size()
         << " function(s), " << R.Sites.size()
         << " `if disconnected` site(s): " << Out.Verdicts.MustDisconnected
         << " must-disconnected, " << Out.Verdicts.MustConnected
         << " must-connected, " << Out.Verdicts.Unknown << " unknown\n";
  Out.Rendered = Header.str() + renderDiags(R.Diags, FileName);
  if (Opts.DumpSummaries) {
    Out.Rendered += "--- summaries (" +
                    std::to_string(R.Summaries.size()) + " function(s), " +
                    std::to_string(R.SummaryInfo.Sccs) + " scc(s), " +
                    std::to_string(R.SummaryInfo.RecursiveSccs) +
                    " recursive)\n";
    for (const auto &[Fn, S] : R.Summaries)
      Out.Rendered += renderSummary(Fn, S, P.Names) + "\n";
  }
  return Out;
}

} // namespace fearless
