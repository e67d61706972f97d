//===- bench/bench_trace.cpp ----------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// E8 — cost of the structured tracing layer (support/Trace.h).
//
//  - The runtime-disabled path (null TraceBuffer*, what every
//    instrumentation site pays when `--trace` is off): one pointer test.
//  - The enabled record path: a steady-clock read plus a store into the
//    per-thread ring; `allocs_per_iter` must be 0 once the buffer exists,
//    the same steady-state guarantee PR 2 proves for the runtime itself.
//  - Ring wraparound: recording far past capacity stays flat (overwrite,
//    never grow).
//  - Export cost: merging a full buffer into Chrome trace_event JSON —
//    paid once at exit, never in the hot loop, but worth a number.
//  - End to end: a Machine run over the Fig. 5 dll workload traced vs
//    untraced; the delta is the whole-program overhead of `--trace`.
//
// Like bench_ifdisconnected, the binary replaces global operator new to
// export `allocs_per_iter` for the hot-path benchmarks.
//
//===----------------------------------------------------------------------===//

#include "HeapCount.h"
#include "driver/Driver.h"
#include "runtime/Machine.h"
#include "support/Trace.h"

#include <benchmark/benchmark.h>

#include <string>

using namespace fearless;

namespace {

/// Measures \p Body per iteration with the allocation counter armed and
/// exports allocs_per_iter (expected 0 for every hot-path bench here).
template <typename Fn>
void runAllocCounted(benchmark::State &State, Fn Body) {
  uint64_t AllocsBefore = heapAllocs();
  for (auto _ : State)
    Body();
  uint64_t AllocsInLoop =
      heapAllocs() - AllocsBefore;
  State.counters["allocs_per_iter"] =
      State.iterations()
          ? static_cast<double>(AllocsInLoop) /
                static_cast<double>(State.iterations())
          : 0.0;
}

//===----------------------------------------------------------------------===//
// Hot path: disabled vs enabled record cost.
//===----------------------------------------------------------------------===//

void BM_SpanDisabled(benchmark::State &State) {
  // What every instrumented site costs when tracing is off at runtime:
  // construct + destroy a span over a null buffer.
  TraceBuffer *Null = nullptr;
  runAllocCounted(State, [&] {
    TraceSpan Span(Null, "bench.span", "bench");
    benchmark::DoNotOptimize(Null);
  });
}
BENCHMARK(BM_SpanDisabled);

void BM_SpanEnabled(benchmark::State &State) {
  // The enabled span: two clock reads and one ring store. The session and
  // buffer exist before the measured region; the loop must not allocate.
  TraceSession Session;
  TraceBuffer &Buf = Session.registerThread(0, "bench");
  runAllocCounted(State, [&] {
    TraceSpan Span(&Buf, "bench.span", "bench");
    Span.setArg("iter", 1);
  });
  State.counters["recorded"] = static_cast<double>(Buf.recorded());
}
BENCHMARK(BM_SpanEnabled);

void BM_InstantEnabled(benchmark::State &State) {
  // The cheapest enabled event: one clock read, one store.
  TraceSession Session;
  TraceBuffer &Buf = Session.registerThread(0, "bench");
  runAllocCounted(State,
                  [&] { Buf.instant("bench.tick", "bench", "n", 7); });
  State.counters["recorded"] = static_cast<double>(Buf.recorded());
}
BENCHMARK(BM_InstantEnabled);

void BM_RecordWraparound(benchmark::State &State) {
  // A deliberately tiny ring recorded far past capacity: overwrite must
  // stay flat (no growth, no allocation) and the drop tally must account
  // for everything beyond the newest window.
  TraceConfig Config;
  Config.BufferCapacity = static_cast<size_t>(State.range(0));
  TraceSession Session(Config);
  TraceBuffer &Buf = Session.registerThread(0, "bench");
  runAllocCounted(State, [&] {
    Buf.record("bench.wrap", "bench", 'X', 1, 1, "n", 42);
  });
  State.counters["capacity"] = static_cast<double>(Buf.capacity());
  State.counters["dropped"] = static_cast<double>(Buf.dropped());
}
BENCHMARK(BM_RecordWraparound)->Arg(64)->Arg(4096);

//===----------------------------------------------------------------------===//
// Export: paid once at exit, after the writers joined.
//===----------------------------------------------------------------------===//

void BM_ExportChromeJson(benchmark::State &State) {
  size_t N = static_cast<size_t>(State.range(0));
  TraceConfig Config;
  Config.BufferCapacity = N;
  TraceSession Session(Config);
  TraceBuffer &Buf = Session.registerThread(0, "bench");
  for (size_t I = 0; I < N; ++I)
    Buf.record("bench.event", "bench", 'X', I * 1000, 500, "i", I);
  size_t Bytes = 0;
  for (auto _ : State) {
    std::string Json = Session.toChromeJson();
    Bytes = Json.size();
    benchmark::DoNotOptimize(Json.data());
  }
  State.counters["events"] = static_cast<double>(Buf.retained());
  State.counters["json_bytes"] = static_cast<double>(Bytes);
}
BENCHMARK(BM_ExportChromeJson)->Arg(1024)->Arg(16384);

//===----------------------------------------------------------------------===//
// End to end: a whole Machine run traced vs untraced (the Fig. 5 dll
// workload, including its runtime `if disconnected`).
//===----------------------------------------------------------------------===//

const char *DllDriver = R"prog(
def drive(n : int) : int {
  let l = dll_new();
  let i = 0;
  while (i < n) {
    let p = new data(i) in { push_front(l, p) };
    i = i + 1
  };
  let removed = 0;
  let j = 0;
  while (j < n) {
    let d = let some(x) = remove_tail(l) in { 1 } else { 0 };
    removed = removed + d;
    j = j + 1
  };
  removed
}
)prog";

void runMachineWorkload(benchmark::State &State, bool Traced) {
  Expected<Pipeline> P =
      compile(std::string(programs::DllSuite) + DllDriver);
  if (!P) {
    State.SkipWithError(P.error().Message.c_str());
    return;
  }
  Symbol Drive = P->Prog->Names.intern("drive");
  uint64_t Steps = 0;
  for (auto _ : State) {
    // The session (buffer registration + teardown) is part of what
    // `--trace` costs per run, so it stays inside the timed region; the
    // JSON export is paid once at exit in real runs and is benched
    // separately above. The ring is sized to the workload (~n traversal
    // spans + step ticks) so the per-run zeroing of the default 64Ki
    // buffers does not drown the record cost being measured.
    TraceConfig Config;
    Config.BufferCapacity = 4 * 1024;
    TraceSession Trace(Config);
    MachineOptions Opts;
    if (Traced)
      Opts.Trace = &Trace;
    Machine M(P->Checked, Opts);
    M.spawn(Drive, {Value::intVal(State.range(0))});
    Expected<MachineSummary> R = M.run();
    if (!R) {
      State.SkipWithError(R.error().Message.c_str());
      return;
    }
    benchmark::DoNotOptimize(R->ThreadResults[0]);
    Steps = R->Steps;
  }
  State.counters["steps"] = static_cast<double>(Steps);
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Steps));
}

void BM_MachineDll_Untraced(benchmark::State &State) {
  runMachineWorkload(State, /*Traced=*/false);
}
BENCHMARK(BM_MachineDll_Untraced)->Arg(64)->Arg(512);

void BM_MachineDll_Traced(benchmark::State &State) {
  runMachineWorkload(State, /*Traced=*/true);
}
BENCHMARK(BM_MachineDll_Traced)->Arg(64)->Arg(512);

} // namespace

BENCHMARK_MAIN();
