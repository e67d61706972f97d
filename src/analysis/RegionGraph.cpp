//===- analysis/RegionGraph.cpp - Abstract heap for region analysis ------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "analysis/RegionGraph.h"

namespace fearless {

PointsTo joinPointsTo(const PointsTo &A, const PointsTo &B) {
  PointsTo Out;
  Out.Targets = A.Targets;
  Out.Targets.merge(B.Targets);
  Out.Definite = A.Definite && B.Definite && A.Targets == B.Targets;
  return Out;
}

void RegionGraph::addMayEdge(AbsNodeId From, Symbol Field, AbsNodeId To,
                             bool Iso) {
  FieldEdge &E = Edges[From][Field];
  if (!E.Targets.empty() && !E.Targets.contains(To))
    E.Must = false;
  if (E.Targets.empty())
    E.Must = false; // A may edge alone never establishes a must fact.
  E.Targets.insert(To);
  E.Iso = E.Iso || Iso;
}

PointsTo RegionGraph::readField(const NodeSet &Bases, Symbol Field,
                                const NodeTable &Nodes) const {
  PointsTo Out;
  bool First = true;
  for (AbsNodeId B : Bases) {
    PointsTo V;
    auto NodeIt = Edges.find(B);
    const FieldEdge *E = nullptr;
    if (NodeIt != Edges.end()) {
      auto FieldIt = NodeIt->second.find(Field);
      if (FieldIt != NodeIt->second.end())
        E = &FieldIt->second;
      else {
        auto WildIt = NodeIt->second.find(Symbol{});
        if (WildIt != NodeIt->second.end())
          E = &WildIt->second;
      }
    }
    if (E) {
      V.Targets = E->Targets;
      // A must edge to a single exact node reads back as a definite value;
      // a must edge with an empty target set is a definite none.
      V.Definite = E->Must && (V.Targets.empty() ||
                               (V.Targets.size() == 1 &&
                                Nodes[*V.Targets.begin()].Exact));
    }
    // Never-written field with no wildcard fallback (the analyzer eagerly
    // initializes allocation-site fields, so this is a corner): no targets,
    // and conservatively not definite.
    Out = First ? V : joinPointsTo(Out, V);
    First = false;
  }
  if (Bases.empty())
    Out.Definite = false;
  return Out;
}

void RegionGraph::writeField(AbsNodeId Base, Symbol Field, const PointsTo &V,
                             bool Strong, bool Iso) {
  auto &FieldMap = Edges[Base];
  if (Strong) {
    FieldEdge E;
    E.Targets = V.Targets;
    E.Must = V.Definite;
    E.Iso = Iso;
    FieldMap[Field] = E;
    return;
  }
  // Weak write: the field may retain any previous contents. If the named
  // entry does not exist yet, its previous contents are the wildcard
  // fallback (or nothing for plain allocation sites).
  FieldEdge &E = FieldMap[Field];
  if (E.Targets.empty() && !E.Must) {
    auto WildIt = FieldMap.find(Symbol{});
    if (WildIt != FieldMap.end() && Field.isValid())
      E.Targets = WildIt->second.Targets;
  }
  E.Targets.merge(V.Targets);
  E.Must = false;
  E.Iso = E.Iso || Iso;
}

NodeSet RegionGraph::reachableFrom(const NodeSet &Roots) const {
  return reachableClosure(Roots, [this](AbsNodeId N, auto Visit) {
    auto It = Edges.find(N);
    if (It == Edges.end())
      return;
    for (const auto &[Field, E] : It->second)
      for (AbsNodeId T : E.Targets)
        Visit(T);
  });
}

bool RegionGraph::hasExternalEdgeInto(const NodeSet &Side) const {
  for (const auto &[From, FieldMap] : Edges) {
    if (Side.contains(From))
      continue;
    for (const auto &[Field, E] : FieldMap)
      if (E.Targets.intersects(Side))
        return true;
  }
  return false;
}

std::vector<RegionGraph::MustStep>
RegionGraph::mustClosure(AbsNodeId Root, const NodeTable &Nodes) const {
  std::vector<MustStep> Out(Nodes.size());
  Out[Root.Id] = MustStep{true, AbsNodeId{}, Symbol{}};
  // Breadth-first, so each node's recorded step lies on a shortest path.
  std::vector<AbsNodeId> Frontier{Root};
  for (size_t Next = 0; Next < Frontier.size(); ++Next) {
    AbsNodeId N = Frontier[Next];
    auto It = Edges.find(N);
    if (It == Edges.end())
      continue;
    for (const auto &[Field, E] : It->second) {
      // The wildcard entry and iso fields never carry must facts we can
      // use: the runtime traversal skips iso fields (refcount algorithm),
      // and wildcard targets are may-information only.
      if (!Field.isValid() || E.Iso || !E.Must || E.Targets.size() != 1)
        continue;
      AbsNodeId T = *E.Targets.begin();
      if (!Nodes[T].Exact)
        continue;
      if (!Out[T.Id].Reached) {
        Out[T.Id] = MustStep{true, N, Field};
        Frontier.push_back(T);
      }
    }
  }
  return Out;
}

void RegionGraph::join(const RegionGraph &Other) {
  // Variables: union of keys; a var bound on one side only keeps its value
  // but loses definiteness (the other path may not reach this point with
  // the var in scope — the checker guarantees it does for uses, but the
  // conservative join is simpler and sound).
  for (const auto &[Var, V] : Other.Vars) {
    auto It = Vars.find(Var);
    if (It == Vars.end())
      Vars[Var] = V;
    else
      It->second = joinPointsTo(It->second, V);
  }

  // Helper: the fallback contents of (Node, Field) on a graph where the
  // entry is absent — the node's wildcard entry if any, else empty.
  auto Fallback = [](const RegionGraph &G, AbsNodeId N) -> const FieldEdge * {
    auto It = G.Edges.find(N);
    if (It == G.Edges.end())
      return nullptr;
    auto WildIt = It->second.find(Symbol{});
    return WildIt == It->second.end() ? nullptr : &WildIt->second;
  };

  for (const auto &[N, OtherFields] : Other.Edges) {
    auto &MyFields = Edges[N];
    for (const auto &[Field, OE] : OtherFields) {
      auto It = MyFields.find(Field);
      if (It == MyFields.end()) {
        FieldEdge E = OE;
        if (Field.isValid()) {
          if (const FieldEdge *W = Fallback(*this, N)) {
            E.Targets.merge(W->Targets);
            E.Must = false;
            E.Iso = E.Iso || W->Iso;
          }
        }
        MyFields[Field] = E;
        continue;
      }
      FieldEdge &E = It->second;
      bool SameTargets = E.Targets == OE.Targets;
      E.Targets.merge(OE.Targets);
      E.Must = E.Must && OE.Must && SameTargets;
      E.Iso = E.Iso || OE.Iso;
    }
    // Entries present here but not on the other side: widen with the other
    // side's wildcard fallback and drop must.
    for (auto &[Field, E] : MyFields) {
      if (OtherFields.count(Field))
        continue;
      if (Field.isValid()) {
        if (const FieldEdge *W = Fallback(Other, N)) {
          E.Targets.merge(W->Targets);
          E.Iso = E.Iso || W->Iso;
        }
      }
      E.Must = false;
    }
  }
  // Nodes with edges here but absent entirely on the other side: their
  // entries are one-sided facts; drop must.
  for (auto &[N, MyFields] : Edges) {
    if (Other.Edges.count(N))
      continue;
    for (auto &[Field, E] : MyFields)
      E.Must = false;
  }
}

} // namespace fearless
