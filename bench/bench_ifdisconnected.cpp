//===- bench/bench_ifdisconnected.cpp -------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// E5 — §5.2: the efficient `if disconnected` check.
//
//  - Detaching one object from an n-object region: the refcount-based
//    interleaved traversal is O(1) regardless of n; the naive exact check
//    is O(n).
//  - Detaching a k-object subgraph: O(k) vs O(n).
//  - The "buggy" case (arguments still connected): the interleaved
//    traversal still terminates after O(min-side) work — the paper's
//    claim that buggy uses cost nearly nothing extra. The
//    `losing_side_visited` counter tracks the objects expanded on the
//    large (losing) side, making that claim a number instead of prose.
//
// Every benchmark drives the checks through one reused DisconnectScratch
// (exactly how the VM's per-thread scratch behaves), and the
// binary replaces global operator new to export `allocs_per_iter`: the
// steady-state allocation count per check, which must be 0.
//
//===----------------------------------------------------------------------===//

#include "HeapCount.h"
#include "analysis/StaticDisconnect.h"
#include "checker/Checker.h"
#include "parser/Parser.h"
#include "runtime/Disconnected.h"
#include "runtime/Heap.h"
#include "sema/StructTable.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

using namespace fearless;

namespace {

/// A heap containing one circular doubly linked region of n nodes, plus a
/// detached subgraph of k nodes (self-contained ring).
struct Workload {
  std::optional<Program> Prog;
  StructTable Structs;
  std::unique_ptr<Heap> TheHeap;
  Loc RegionRoot;   // root of the n-node ring
  Loc DetachedRoot; // root of the k-node ring
  Symbol NextSym, PrevSym;
  /// Reused across every check in the benchmark loop, mirroring the
  /// VM's per-thread scratch ownership.
  DisconnectScratch Scratch;

  Workload(size_t N, size_t K, bool Connected) {
    DiagnosticEngine Diags;
    Prog = parseProgram(R"(
struct node {
  iso item : node?;
  next : node?;
  prev : node?;
}
)",
                        Diags);
    Structs.build(*Prog, Diags);
    TheHeap = std::make_unique<Heap>(Structs, N + K + 16);
    NextSym = Prog->Names.intern("next");
    PrevSym = Prog->Names.intern("prev");
    RegionRoot = ring(N);
    DetachedRoot = ring(K);
    if (Connected) {
      // Sneak one non-iso edge from the big ring into the small one: the
      // "buggy code" case — the graphs are not actually disjoint.
      link(RegionRoot, NextSym, DetachedRoot);
    }
  }

  void link(Loc From, Symbol Field, Loc To) {
    const FieldInfo *F = TheHeap->get(From).Struct->findField(Field);
    TheHeap->setField(From, F->Index, Value::locVal(To));
  }

  Loc ring(size_t N) {
    std::vector<Loc> Nodes;
    Symbol NodeSym = Prog->Names.intern("node");
    for (size_t I = 0; I < N; ++I)
      Nodes.push_back(TheHeap->allocate(NodeSym));
    for (size_t I = 0; I < N; ++I) {
      link(Nodes[I], NextSym, Nodes[(I + 1) % N]);
      link(Nodes[I], PrevSym, Nodes[(I + N - 1) % N]);
    }
    return Nodes.front();
  }
};

/// Runs \p Check once to warm the scratch, then measures the loop with
/// the allocation counter armed; exports visited/edge/allocation
/// counters. \p Check runs with A = the detached root and B = the region
/// root, so ObjectsVisitedB is the work spent on the big (in the buggy
/// case: losing) side.
template <typename CheckFn>
void runCheckLoop(benchmark::State &State, Workload &W, CheckFn Check) {
  DisconnectOutcome Last = Check(W); // warm-up: grows the scratch tables
  uint64_t AllocsBefore = heapAllocs();
  for (auto _ : State) {
    DisconnectOutcome Out = Check(W);
    benchmark::DoNotOptimize(Out.Disconnected);
    Last = Out;
  }
  uint64_t AllocsInLoop =
      heapAllocs() - AllocsBefore;
  State.counters["visited"] = static_cast<double>(Last.ObjectsVisited);
  State.counters["edges"] = static_cast<double>(Last.EdgesTraversed);
  State.counters["losing_side_visited"] =
      static_cast<double>(Last.ObjectsVisitedB);
  State.counters["allocs_per_iter"] =
      State.iterations()
          ? static_cast<double>(AllocsInLoop) /
                static_cast<double>(State.iterations())
          : 0.0;
}

DisconnectOutcome refCount(Workload &W) {
  return checkDisconnectedRefCount(*W.TheHeap, W.DetachedRoot,
                                   W.RegionRoot, W.Scratch);
}

DisconnectOutcome naive(Workload &W) {
  return checkDisconnectedNaive(*W.TheHeap, W.DetachedRoot, W.RegionRoot,
                                W.Scratch);
}

void BM_RefCount_DetachSmall(benchmark::State &State) {
  size_t N = static_cast<size_t>(State.range(0));
  Workload W(N, /*K=*/1, /*Connected=*/false);
  runCheckLoop(State, W, refCount);
  State.counters["region_size"] = static_cast<double>(N);
}
BENCHMARK(BM_RefCount_DetachSmall)
    ->Arg(16)
    ->Arg(256)
    ->Arg(4096)
    ->Arg(65536)
    ->Arg(1 << 20);

void BM_Naive_DetachSmall(benchmark::State &State) {
  size_t N = static_cast<size_t>(State.range(0));
  Workload W(N, /*K=*/1, /*Connected=*/false);
  runCheckLoop(State, W, naive);
  State.counters["region_size"] = static_cast<double>(N);
}
BENCHMARK(BM_Naive_DetachSmall)
    ->Arg(16)
    ->Arg(256)
    ->Arg(4096)
    ->Arg(65536)
    ->Arg(1 << 20);

void BM_RefCount_DetachSubgraph(benchmark::State &State) {
  size_t K = static_cast<size_t>(State.range(0));
  Workload W(/*N=*/1 << 18, K, /*Connected=*/false);
  runCheckLoop(State, W, refCount);
  State.counters["detached_size"] = static_cast<double>(K);
}
BENCHMARK(BM_RefCount_DetachSubgraph)
    ->Arg(1)
    ->Arg(16)
    ->Arg(256)
    ->Arg(4096);

//===----------------------------------------------------------------------===//
// Elision: the static analysis proved the site must-disconnected, so the
// site is answered from the verdict table without touching the heap.
//===----------------------------------------------------------------------===//

/// A checked program whose single `if disconnected` site the static
/// analysis classifies as must-disconnected, plus its verdict table —
/// the exact inputs the VM lowering folds.
struct ElisionOracle {
  FrontendResult Front;
  AnalysisReport Report;
  DisconnectVerdictTable Table;
  const Expr *Site = nullptr;

  ElisionOracle() {
    auto FR = checkSource(R"(
struct gnode { next : gnode; }

def detach(unused : int) : int {
  let a = new gnode();
  let b = new gnode();
  a.next = b;
  a.next = a;
  if disconnected(a, b) { 1 } else { 0 }
}
)");
    if (!FR) {
      std::fprintf(stderr, "elision workload failed to check: %s\n",
                   FR.error().render().c_str());
      std::abort();
    }
    Front = std::move(*FR);
    Report = analyzeProgram(Front.Checked);
    Table = Report.verdictTable();
    if (Report.Sites.size() != 1 ||
        Report.Sites[0].Verdict != DisconnectVerdict::MustDisconnected) {
      std::fprintf(stderr,
                   "elision workload is not must-disconnected\n");
      std::abort();
    }
    Site = Report.Sites[0].Site;
  }
};

void BM_Elided_DetachSubgraph(benchmark::State &State) {
  // Same shape as BM_RefCount_DetachSubgraph — a k-object subgraph
  // detached from a 2^18-object region — but the check is answered from
  // the static verdict table, the way folded must-* sites are. The
  // heap is live but untouched: ns/op must be flat in k and every
  // traversal counter must be exactly zero.
  size_t K = static_cast<size_t>(State.range(0));
  Workload W(/*N=*/1 << 18, K, /*Connected=*/false);
  ElisionOracle Oracle;
  DisconnectOutcome Warm{};
  uint64_t AllocsBefore = heapAllocs();
  for (auto _ : State) {
    auto It = Oracle.Table.find(Oracle.Site);
    bool Disc = It != Oracle.Table.end() &&
                It->second == DisconnectVerdict::MustDisconnected;
    benchmark::DoNotOptimize(Disc);
  }
  uint64_t AllocsInLoop =
      heapAllocs() - AllocsBefore;
  State.counters["visited"] = static_cast<double>(Warm.ObjectsVisited);
  State.counters["edges"] = static_cast<double>(Warm.EdgesTraversed);
  State.counters["losing_side_visited"] =
      static_cast<double>(Warm.ObjectsVisitedB);
  State.counters["allocs_per_iter"] =
      State.iterations()
          ? static_cast<double>(AllocsInLoop) /
                static_cast<double>(State.iterations())
          : 0.0;
  State.counters["detached_size"] = static_cast<double>(K);
}
BENCHMARK(BM_Elided_DetachSubgraph)->Arg(1)->Arg(16)->Arg(256)->Arg(4096);

void BM_RefCount_BuggyStillConnected(benchmark::State &State) {
  // The arguments' graphs intersect (the programmer forgot to repoint a
  // field, the Fig. 5 discussion): the interleaved traversal detects the
  // intersection after exploring only the small side, so
  // losing_side_visited must stay O(1) as region_size grows.
  size_t N = static_cast<size_t>(State.range(0));
  Workload W(N, /*K=*/2, /*Connected=*/true);
  runCheckLoop(State, W, refCount);
  State.counters["region_size"] = static_cast<double>(N);
}
BENCHMARK(BM_RefCount_BuggyStillConnected)
    ->Arg(256)
    ->Arg(4096)
    ->Arg(65536);

void BM_Naive_BuggyStillConnected(benchmark::State &State) {
  // Baseline: the exact check pays for the whole losing side.
  size_t N = static_cast<size_t>(State.range(0));
  Workload W(N, /*K=*/2, /*Connected=*/true);
  runCheckLoop(State, W, naive);
  State.counters["region_size"] = static_cast<double>(N);
}
BENCHMARK(BM_Naive_BuggyStillConnected)->Arg(256)->Arg(4096)->Arg(65536);

} // namespace

BENCHMARK_MAIN();
