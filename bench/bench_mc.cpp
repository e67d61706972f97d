//===- bench/bench_mc.cpp -------------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// E14 — the stateless model checker: exploration throughput
// (schedules/sec), the DPOR pruning ratio against naive DFS, and the
// overhead of replaying a recorded schedule vs running the seeded
// scheduler directly.
//
// Workload: the MessagePassing producer/consumer pipeline, 9 items, at
// VM batch granularity — every step of a 2-thread run is a potential
// branch point, so naive DFS faces a space exponential in the item count
// (about 2^n schedules) while DPOR's persistent/sleep sets collapse it
// to about fib(n) representatives.
//
// Counters exported per benchmark (into BENCH_pr10.json via
// tools/bench.sh):
//  - BM_Mc_DporExplore: schedules_explored, schedules_pruned,
//    steps_executed, pruning_ratio_vs_naive (naive explores >= that many
//    times more schedules before its budget expires WITHOUT finishing —
//    a lower bound on the true ratio), and items_per_second doubles as
//    schedules/sec.
//  - BM_Mc_NaiveDfs: schedules_explored at the budget, complete (0: the
//    budget always expires first).
//  - BM_Mc_DirectRun / BM_Mc_ScheduleReplay: steps; the pair measures
//    replay overhead differentially (same program, same interleaving).
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "mc/Dpor.h"
#include "mc/Replay.h"
#include "runtime/Machine.h"

#include <benchmark/benchmark.h>

using namespace fearless;

namespace {

constexpr int64_t PipelineCount = 9;
constexpr uint64_t NaiveBudget = 500;

Pipeline &pipeline() {
  static Pipeline P = []() {
    Expected<Pipeline> R = compile(programs::MessagePassing);
    if (!R)
      std::abort();
    return std::move(*R);
  }();
  return P;
}

std::unique_ptr<Machine> freshMachine(Pipeline &P) {
  auto M = std::make_unique<Machine>(P.Checked);
  M->spawn(P.Prog->Names.intern("producer"),
           {Value::intVal(PipelineCount)});
  M->spawn(P.Prog->Names.intern("consumer"),
           {Value::intVal(PipelineCount)});
  return M;
}

mc::McReport exploreOnce(Pipeline &P, bool UseDpor, uint64_t Budget) {
  mc::McOptions Opts;
  Opts.UseDpor = UseDpor;
  Opts.MaxSchedules = Budget;
  Expected<mc::McReport> Rep =
      mc::explore([&P]() { return freshMachine(P); }, Opts);
  if (!Rep || Rep->Counterexample)
    std::abort(); // the workload is violation-free by construction
  return *Rep;
}

void BM_Mc_DporExplore(benchmark::State &State) {
  Pipeline &P = pipeline();
  // One-time naive reference for the pruning-ratio counter: naive DFS
  // burns the whole budget without finishing the space DPOR exhausts.
  mc::McReport Naive = exploreOnce(P, /*UseDpor=*/false, NaiveBudget);
  mc::McReport Last;
  for (auto _ : State) {
    Last = exploreOnce(P, /*UseDpor=*/true, /*Budget=*/0);
    benchmark::DoNotOptimize(Last.SchedulesExplored);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) *
                          int64_t(Last.SchedulesExplored));
  State.counters["schedules_explored"] = double(Last.SchedulesExplored);
  State.counters["schedules_pruned"] = double(Last.SchedulesPruned);
  State.counters["steps_executed"] = double(Last.StepsExecuted);
  State.counters["complete"] = Last.Complete ? 1 : 0;
  State.counters["pruning_ratio_vs_naive"] =
      double(Naive.SchedulesExplored) / double(Last.SchedulesExplored);
}
BENCHMARK(BM_Mc_DporExplore)->Unit(benchmark::kMillisecond);

void BM_Mc_NaiveDfs(benchmark::State &State) {
  Pipeline &P = pipeline();
  mc::McReport Last;
  for (auto _ : State) {
    Last = exploreOnce(P, /*UseDpor=*/false, NaiveBudget);
    benchmark::DoNotOptimize(Last.SchedulesExplored);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) *
                          int64_t(Last.SchedulesExplored));
  State.counters["schedules_explored"] = double(Last.SchedulesExplored);
  State.counters["complete"] = Last.Complete ? 1 : 0;
}
BENCHMARK(BM_Mc_NaiveDfs)->Unit(benchmark::kMillisecond);

void BM_Mc_DirectRun(benchmark::State &State) {
  Pipeline &P = pipeline();
  uint64_t Steps = 0;
  for (auto _ : State) {
    std::unique_ptr<Machine> M = freshMachine(P);
    Expected<MachineSummary> R = M->run(7);
    if (!R)
      std::abort();
    Steps = R->Steps;
    benchmark::DoNotOptimize(Steps);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * int64_t(Steps));
  State.counters["steps"] = double(Steps);
}
BENCHMARK(BM_Mc_DirectRun);

void BM_Mc_ScheduleReplay(benchmark::State &State) {
  Pipeline &P = pipeline();
  // Record seed 7's interleaving once; every iteration replays it from
  // the schedule, so the delta vs BM_Mc_DirectRun is pure replay
  // machinery (choice lookups instead of xorshift picks).
  mc::Schedule Sched;
  {
    std::unique_ptr<Machine> M = freshMachine(P);
    if (!M->run(7, &Sched.Choices))
      std::abort();
  }
  uint64_t Steps = 0;
  for (auto _ : State) {
    std::unique_ptr<Machine> M = freshMachine(P);
    Expected<MachineSummary> R = mc::runSchedule(*M, Sched);
    if (!R)
      std::abort();
    Steps = R->Steps;
    benchmark::DoNotOptimize(Steps);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * int64_t(Steps));
  State.counters["steps"] = double(Steps);
  State.counters["schedule_choices"] = double(Sched.Choices.size());
}
BENCHMARK(BM_Mc_ScheduleReplay);

} // namespace

BENCHMARK_MAIN();
