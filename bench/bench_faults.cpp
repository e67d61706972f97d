//===- bench/bench_faults.cpp ---------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// E9 — cost of the fault-injection layer (support/FaultInjector.h).
//
//  - The runtime-disabled path (null FaultInjector*, what every
//    instrumented site pays when `--faults` is off): one pointer test.
//  - An armed injector whose queried point is unarmed (Never trigger):
//    one plain load, no counter traffic.
//  - An armed nth-trigger point that never reaches N: the steady-state
//    cost of counting occurrences (one relaxed fetch_add).
//  - A probability point at p=0: counting plus the splitmix64 decision.
//
// All query paths must report allocs_per_iter == 0 (the same global
// operator-new discipline as bench_trace); a regression here means the
// injector leaked work onto the runtime hot path.
//
//===----------------------------------------------------------------------===//

#include "HeapCount.h"
#include "support/FaultInjector.h"

#include <benchmark/benchmark.h>

using namespace fearless;

namespace {

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

/// Disabled: the null-pointer guard every site compiles to when no
/// injector is configured. This is the cost the acceptance gate bounds.
void BM_ShouldFireDisabled(benchmark::State &State) {
  FaultInjector *FI = nullptr;
  runAllocCounted(State, [&] {
    bool Fire = FI && FI->shouldFire(FaultPoint::ChanSend);
    benchmark::DoNotOptimize(Fire);
  });
}
BENCHMARK(BM_ShouldFireDisabled);

/// Armed injector, unarmed point: one trigger-kind load, no atomics.
void BM_ShouldFireNeverTrigger(benchmark::State &State) {
  FaultPlan Plan;
  Plan.Triggers[static_cast<size_t>(FaultPoint::HeapAlloc)] =
      FaultTrigger{FaultTrigger::Kind::Nth, 1, 0};
  FaultInjector FI(Plan);
  FaultInjector *P = &FI;
  runAllocCounted(State, [&] {
    bool Fire = P && P->shouldFire(FaultPoint::ChanSend);
    benchmark::DoNotOptimize(Fire);
  });
}
BENCHMARK(BM_ShouldFireNeverTrigger);

/// Armed nth point that never fires: occurrence counting in steady state.
void BM_ShouldFireArmedNth(benchmark::State &State) {
  FaultPlan Plan;
  Plan.Triggers[static_cast<size_t>(FaultPoint::ChanSend)] =
      FaultTrigger{FaultTrigger::Kind::Nth, ~0ull, 0};
  FaultInjector FI(Plan);
  FaultInjector *P = &FI;
  runAllocCounted(State, [&] {
    bool Fire = P && P->shouldFire(FaultPoint::ChanSend);
    benchmark::DoNotOptimize(Fire);
  });
}
BENCHMARK(BM_ShouldFireArmedNth);

/// Probability point at p = 0: counting plus the seeded decision hash.
void BM_ShouldFireProbability(benchmark::State &State) {
  FaultPlan Plan;
  Plan.Seed = 42;
  Plan.Triggers[static_cast<size_t>(FaultPoint::SchedStep)] =
      FaultTrigger{FaultTrigger::Kind::Probability, 0, 0.0};
  FaultInjector FI(Plan);
  FaultInjector *P = &FI;
  runAllocCounted(State, [&] {
    bool Fire = P && P->shouldFire(FaultPoint::SchedStep);
    benchmark::DoNotOptimize(Fire);
  });
}
BENCHMARK(BM_ShouldFireProbability);

/// Spec parse cost (cold path, once per process — for reference only).
void BM_ParseFaultSpec(benchmark::State &State) {
  for (auto _ : State) {
    Expected<FaultPlan> Plan = parseFaultSpec(
        "chan.send=nth:3,heap.alloc=prob:0.01,sched.step=every:64,"
        "seed=42");
    benchmark::DoNotOptimize(Plan.hasValue());
  }
}
BENCHMARK(BM_ParseFaultSpec);

} // namespace

BENCHMARK_MAIN();
