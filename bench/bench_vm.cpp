//===- bench/bench_vm.cpp -------------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// E6/E11 — the register bytecode VM, checked vs erased. Two engine
// configurations per workload: the VM with reservation-check ops
// compiled in (checked, every dynamic check of §3.2), and the VM with
// every check compiled out on the strength of Theorems 6.1/6.2 (erased,
// the shipping configuration). The delta is exactly the cost a naive
// implementation would pay, and what the type system saves. The erased
// VM must also keep an allocation-free steady-state dispatch loop
// (allocs_per_iter, measured differentially).
//
// Counters exported per benchmark (into BENCH_pr7.json via
// tools/bench.sh): vm_instructions, ic_hits, ic_misses, checks_erased,
// and the spin workload adds allocs_per_iter.
//
//===----------------------------------------------------------------------===//

#include "HeapCount.h"
#include "driver/Driver.h"
#include "runtime/Machine.h"
#include "vm/Compiler.h"

#include <benchmark/benchmark.h>

using namespace fearless;

namespace {

enum class Engine { VmChecked, VmErased };

/// Pure dispatch cost: a counted loop with no heap traffic. The VM
/// retires it as five bytecode ops per iteration.
const char *SpinProgram = R"prog(
def drive(n : int) : int {
  let i = 0;
  while (i < n) { i = i + 1 };
  i
}
)prog";

/// The sll hot loop: build a list, then sum it repeatedly (field reads
/// through the inline caches and their reservation checks dominate).
const char *SllDriver = R"prog(
def drive(n, rounds : int) : int {
  let l = sll_new();
  let i = 0;
  while (i < n) {
    let p = new data(i) in { push_front(l, p) };
    i = i + 1
  };
  let total = 0;
  let r = 0;
  while (r < rounds) {
    total = total + sum(l);
    r = r + 1
  };
  total
}
)prog";

void runWorkload(benchmark::State &State, const std::string &Source,
                 std::vector<Value> Args, Engine E) {
  Expected<Pipeline> P = compile(Source);
  if (!P) {
    State.SkipWithError(P.error().Message.c_str());
    return;
  }
  vm::CompileOptions VO;
  VO.EmitChecks = E == Engine::VmChecked;
  Expected<vm::CompiledProgram> Code = vm::compileProgram(P->Checked, VO);
  if (!Code) {
    State.SkipWithError(Code.error().Message.c_str());
    return;
  }
  Symbol Drive = P->Prog->Names.intern("drive");
  RuntimeMetrics Last;
  for (auto _ : State) {
    MachineOptions Opts;
    Opts.CheckReservations = Code->Checked;
    Opts.VmCode = &*Code;
    Machine M(P->Checked, Opts);
    M.spawn(Drive, Args);
    Expected<MachineSummary> R = M.run();
    if (!R) {
      State.SkipWithError(R.error().Message.c_str());
      return;
    }
    benchmark::DoNotOptimize(R->ThreadResults[0]);
    Last = M.metrics();
  }
  State.counters["vm_instructions"] =
      static_cast<double>(Last.VmInstructions);
  State.counters["ic_hits"] = static_cast<double>(Last.IcHits);
  State.counters["ic_misses"] = static_cast<double>(Last.IcMisses);
  State.counters["checks_erased"] = static_cast<double>(Last.ChecksErased);
  State.counters["reservation_checks"] =
      static_cast<double>(Last.ReservationChecks);
  if (Last.VmInstructions)
    State.SetItemsProcessed(State.iterations() *
                            static_cast<int64_t>(Last.VmInstructions));
}

void BM_Spin_VmChecked(benchmark::State &State) {
  runWorkload(State, SpinProgram, {Value::intVal(State.range(0))},
              Engine::VmChecked);
}
BENCHMARK(BM_Spin_VmChecked)->Arg(4096)->Arg(65536);

void BM_Spin_VmErased(benchmark::State &State) {
  runWorkload(State, SpinProgram, {Value::intVal(State.range(0))},
              Engine::VmErased);
}
BENCHMARK(BM_Spin_VmErased)->Arg(4096)->Arg(65536);

void BM_SllWalk_VmChecked(benchmark::State &State) {
  runWorkload(State, std::string(programs::SllSuite) + SllDriver,
              {Value::intVal(State.range(0)), Value::intVal(50)},
              Engine::VmChecked);
}
BENCHMARK(BM_SllWalk_VmChecked)->Arg(64)->Arg(256)->Arg(1024);

void BM_SllWalk_VmErased(benchmark::State &State) {
  runWorkload(State, std::string(programs::SllSuite) + SllDriver,
              {Value::intVal(State.range(0)), Value::intVal(50)},
              Engine::VmErased);
}
BENCHMARK(BM_SllWalk_VmErased)->Arg(64)->Arg(256)->Arg(1024);

/// Allocation count of one erased-VM spin run (UINT64_MAX on failure).
uint64_t spinAllocs(Pipeline &P, const vm::CompiledProgram &Code,
                    int64_t N) {
  MachineOptions Opts;
  Opts.CheckReservations = Code.Checked;
  Opts.VmCode = &Code;
  Machine M(P.Checked, Opts);
  M.spawn(P.Prog->Names.intern("drive"), {Value::intVal(N)});
  uint64_t Before = heapAllocs();
  Expected<MachineSummary> R = M.run();
  uint64_t After = heapAllocs();
  if (!R || !(R->ThreadResults[0] == Value::intVal(N)))
    return UINT64_MAX;
  return After - Before;
}

/// `allocs_per_iter` for the steady-state dispatch loop, measured
/// differentially: two runs that differ only in loop count; the delta
/// divided by the extra iterations is the per-iteration allocation cost.
/// The acceptance bar is 0 — registers live in a preallocated file and
/// the hot loop never touches the allocator.
void BM_VmDispatchAllocs(benchmark::State &State) {
  Expected<Pipeline> P = compile(SpinProgram);
  if (!P) {
    State.SkipWithError(P.error().Message.c_str());
    return;
  }
  Expected<vm::CompiledProgram> Code = vm::compileProgram(P->Checked);
  if (!Code) {
    State.SkipWithError(Code.error().Message.c_str());
    return;
  }
  double AllocsPerIter = 0;
  for (auto _ : State) {
    uint64_t Small = spinAllocs(*P, *Code, 4000);
    uint64_t Large = spinAllocs(*P, *Code, 16000);
    if (Small == UINT64_MAX || Large == UINT64_MAX) {
      State.SkipWithError("spin workload failed");
      return;
    }
    AllocsPerIter =
        static_cast<double>(Large - Small) / (16000 - 4000);
    benchmark::DoNotOptimize(AllocsPerIter);
  }
  State.counters["allocs_per_iter"] = AllocsPerIter;
}
BENCHMARK(BM_VmDispatchAllocs)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
