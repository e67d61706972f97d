//===- analysis/CallGraph.cpp - Program call graph + SCC order ------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"

#include "ast/Ast.h"

#include <algorithm>
#include <cassert>

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

  // A function's position in P.Functions; the per-function tables below
  // are indexed by it.
  auto posOf = [&P](const FnDecl *F) {
    return static_cast<size_t>(F - P.Functions.data());
  };

  std::vector<const Expr *> Stack;
  std::vector<Symbol> Sites;
  // Per callee: 1 + the position of the last caller that listed it,
  // which deduplicates without a set per function.
  std::vector<size_t> ListedBy(P.Functions.size(), 0);
  for (size_t I = 0; I < P.Functions.size(); ++I) {
    const FnDecl &Fn = P.Functions[I];
    Sites.clear();
    collectCalls(*Fn.Body, Stack, Sites);
    G.CallSites[Fn.Name] = Sites.size();
    std::vector<Symbol> &Kids = G.Callees[Fn.Name];
    Kids.clear();
    for (Symbol Callee : Sites)
      if (const FnDecl *C = P.findFunction(Callee);
          C && ListedBy[posOf(C)] != I + 1) {
        ListedBy[posOf(C)] = I + 1;
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
  std::vector<VState> States(P.Functions.size());
  auto state = [&](Symbol Fn) -> VState & {
    return States[posOf(P.findFunction(Fn))];
  };
  std::vector<Symbol> TarjanStack;
  size_t NextIndex = 0;

  struct Frame {
    Symbol Fn;
    size_t NextChild = 0;
  };
  std::vector<Frame> Work;

  for (const FnDecl &Root : P.Functions) {
    VState &RS = state(Root.Name);
    if (RS.Index != SIZE_MAX)
      continue;
    Work.push_back({Root.Name, 0});
    RS.Index = RS.Lowlink = NextIndex++;
    RS.OnStack = true;
    TarjanStack.push_back(Root.Name);

    while (!Work.empty()) {
      Frame &F = Work.back();
      const std::vector<Symbol> &Kids = G.Callees[F.Fn];
      if (F.NextChild < Kids.size()) {
        Symbol Child = Kids[F.NextChild++];
        VState &CS = state(Child);
        if (CS.Index == SIZE_MAX) {
          CS.Index = CS.Lowlink = NextIndex++;
          CS.OnStack = true;
          TarjanStack.push_back(Child);
          Work.push_back({Child, 0});
        } else if (CS.OnStack) {
          VState &FS = state(F.Fn);
          FS.Lowlink = std::min(FS.Lowlink, CS.Index);
        }
        continue;
      }
      // F's children are exhausted: maybe pop an SCC, then propagate the
      // lowlink into the parent frame.
      VState &FS = state(F.Fn);
      if (FS.Lowlink == FS.Index) {
        std::vector<Symbol> Scc;
        for (;;) {
          Symbol Member = TarjanStack.back();
          TarjanStack.pop_back();
          state(Member).OnStack = false;
          Scc.push_back(Member);
          if (Member == F.Fn)
            break;
        }
        // Tarjan pops components in reverse topological order, so
        // appending here directly yields the bottom-up order the summary
        // engine wants. Keep members in declaration order for stable
        // reporting.
        std::sort(Scc.begin(), Scc.end());
        for (Symbol Member : Scc)
          G.SccIndex[Member] = G.Sccs.size();
        G.Sccs.push_back(std::move(Scc));
      }
      Symbol Done = F.Fn;
      Work.pop_back();
      if (!Work.empty()) {
        VState &PS = state(Work.back().Fn);
        PS.Lowlink = std::min(PS.Lowlink, state(Done).Lowlink);
      }
    }
  }

  return G;
}

const std::vector<Symbol> &CallGraph::callees(Symbol Fn) const {
  static const std::vector<Symbol> Empty;
  auto It = Callees.find(Fn);
  return It == Callees.end() ? Empty : It->second;
}

size_t CallGraph::callSiteCount(Symbol Fn) const {
  auto It = CallSites.find(Fn);
  return It == CallSites.end() ? 0 : It->second;
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
  auto It = SccIndex.find(Fn);
  assert(It != SccIndex.end() && "function not in the graph");
  return It->second;
}

size_t CallGraph::edgeCount() const {
  size_t N = 0;
  for (const auto &[Fn, Kids] : Callees)
    N += Kids.size();
  return N;
}
