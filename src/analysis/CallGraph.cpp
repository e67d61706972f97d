//===- analysis/CallGraph.cpp - Program call graph + SCC order ------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"

#include "ast/Ast.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

using namespace fearless;

namespace {

/// Appends the callee of every call in \p Root's tree to \p Out, in
/// preorder, left to right. Iterative over the caller's \p Stack (empty
/// on entry and exit) so pathological bodies cannot overflow the C++
/// stack and no walk allocates once the buffers have grown.
void collectCalls(const Expr &Root, std::vector<const Expr *> &Stack,
                  std::vector<Symbol> &Out) {
  Stack.push_back(&Root);
  while (!Stack.empty()) {
    const Expr *E = Stack.back();
    Stack.pop_back();
    if (const auto *C = dyn_cast<CallExpr>(E))
      Out.push_back(C->Callee);
    // Reversed once pushed, so the children pop in source order.
    size_t First = Stack.size();
    forEachChild(*E, [&Stack](const Expr &Child) { Stack.push_back(&Child); });
    std::reverse(Stack.begin() + First, Stack.end());
  }
}

} // namespace

CallGraph CallGraph::build(const Program &P) {
  CallGraph G;
  G.Prog = &P;
  size_t NumFns = P.Functions.size();
  G.Callees.resize(NumFns);
  G.CallSites.resize(NumFns);
  G.SccIndex.resize(NumFns);

  std::vector<const Expr *> Stack;
  std::vector<Symbol> Sites;
  // Per callee: 1 + the position of the last caller that listed it,
  // which deduplicates without a set per function.
  std::vector<size_t> ListedBy(NumFns, 0);
  for (size_t I = 0; I < NumFns; ++I) {
    Sites.clear();
    collectCalls(*P.Functions[I].Body, Stack, Sites);
    G.CallSites[I] = Sites.size();
    std::vector<Symbol> &Kids = G.Callees[I];
    for (Symbol Callee : Sites)
      if (size_t C = G.positionOf(Callee);
          C != SIZE_MAX && ListedBy[C] != I + 1) {
        ListedBy[C] = I + 1;
        Kids.push_back(Callee);
      }
  }

  // Iterative Tarjan over functions in declaration order. Generated
  // corpora contain multi-thousand-function call chains, so recursion
  // depth must not track call-chain depth.
  struct VState {
    size_t Index = SIZE_MAX; // SIZE_MAX = unvisited
    size_t Lowlink = 0;
    bool OnStack = false;
  };
  std::vector<VState> States(NumFns);
  std::vector<size_t> TarjanStack;
  size_t NextIndex = 0;

  struct Frame {
    size_t Fn;
    size_t NextChild = 0;
  };
  std::vector<Frame> Work;

  for (size_t Root = 0; Root < NumFns; ++Root) {
    VState &RS = States[Root];
    if (RS.Index != SIZE_MAX)
      continue;
    Work.push_back({Root, 0});
    RS.Index = RS.Lowlink = NextIndex++;
    RS.OnStack = true;
    TarjanStack.push_back(Root);

    while (!Work.empty()) {
      Frame &F = Work.back();
      const std::vector<Symbol> &Kids = G.Callees[F.Fn];
      if (F.NextChild < Kids.size()) {
        size_t Child = G.positionOf(Kids[F.NextChild++]);
        VState &CS = States[Child];
        if (CS.Index == SIZE_MAX) {
          CS.Index = CS.Lowlink = NextIndex++;
          CS.OnStack = true;
          TarjanStack.push_back(Child);
          Work.push_back({Child, 0});
        } else if (CS.OnStack) {
          VState &FS = States[F.Fn];
          FS.Lowlink = std::min(FS.Lowlink, CS.Index);
        }
        continue;
      }
      // F's children are exhausted: maybe pop an SCC, then propagate the
      // lowlink into the parent frame.
      VState &FS = States[F.Fn];
      if (FS.Lowlink == FS.Index) {
        std::vector<Symbol> Scc;
        for (;;) {
          size_t Member = TarjanStack.back();
          TarjanStack.pop_back();
          States[Member].OnStack = false;
          G.SccIndex[Member] = G.Sccs.size();
          Scc.push_back(P.Functions[Member].Name);
          if (Member == F.Fn)
            break;
        }
        // Tarjan pops components in reverse topological order, so
        // appending here directly yields the bottom-up order the summary
        // engine wants. Keep members in declaration order for stable
        // reporting.
        std::sort(Scc.begin(), Scc.end());
        G.Sccs.push_back(std::move(Scc));
      }
      size_t Done = F.Fn;
      Work.pop_back();
      if (!Work.empty()) {
        VState &PS = States[Work.back().Fn];
        PS.Lowlink = std::min(PS.Lowlink, States[Done].Lowlink);
      }
    }
  }

  return G;
}

size_t CallGraph::positionOf(Symbol Fn) const {
  const FnDecl *D = Prog ? Prog->findFunction(Fn) : nullptr;
  return D ? static_cast<size_t>(D - Prog->Functions.data()) : SIZE_MAX;
}

const std::vector<Symbol> &CallGraph::callees(Symbol Fn) const {
  static const std::vector<Symbol> Empty;
  size_t Pos = positionOf(Fn);
  return Pos == SIZE_MAX ? Empty : Callees[Pos];
}

size_t CallGraph::callSiteCount(Symbol Fn) const {
  size_t Pos = positionOf(Fn);
  return Pos == SIZE_MAX ? 0 : CallSites[Pos];
}

bool CallGraph::isRecursiveScc(size_t SccIndex) const {
  assert(SccIndex < Sccs.size());
  const std::vector<Symbol> &Scc = Sccs[SccIndex];
  if (Scc.size() > 1)
    return true;
  const std::vector<Symbol> &Kids = callees(Scc.front());
  return std::find(Kids.begin(), Kids.end(), Scc.front()) != Kids.end();
}

size_t CallGraph::sccOf(Symbol Fn) const {
  size_t Pos = positionOf(Fn);
  assert(Pos != SIZE_MAX && "function not in the graph");
  return SccIndex[Pos];
}

size_t CallGraph::edgeCount() const {
  size_t N = 0;
  for (const std::vector<Symbol> &Kids : Callees)
    N += Kids.size();
  return N;
}
