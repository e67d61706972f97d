//===- bench/bench_scheduler.cpp ------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// E8 — the M:N work-stealing task scheduler: language-thread counts far
// beyond what one OS thread per language thread could host. A 100,000-language-thread token
// ring runs to completion on a fixed pool (at most 2x hardware threads);
// fan-in/fan-out stress the park/unpark protocol from both directions;
// the two-task ping-pong measures the steady-state allocation cost of a
// park/unpark round trip differentially (it must be zero — tasks park
// intrusively, channels hand values straight to parked waiters).
//
// Counters exported per benchmark (into BENCH_pr6.json via
// tools/bench.sh): tasks_spawned, steals, parks, workers, and
// items_per_second doubles as tasks/sec for the ring. The ping-pong adds
// allocs_per_iter.
//
//===----------------------------------------------------------------------===//

#include "HeapCount.h"
#include "concurrency/ParallelExec.h"
#include "driver/Driver.h"

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <thread>

using namespace fearless;

namespace {

/// Token ring: `hop` tasks each consume the token once and pass it on
/// incremented; the sink keeps re-injecting it until every hop has
/// contributed. Result = number of hops, independent of routing. All
/// values are ints: the workload is pure scheduling + channel traffic.
constexpr const char *RingProgram = R"prog(
def hop() : unit {
  let t = recv<int>();
  send(t + 1)
}

def sink(n : int) : int {
  let t = 0;
  while (t < n) {
    send(t);
    t = recv<int>()
  };
  t
}
)prog";

/// Fan-in: n one-shot senders converge on one gatherer. Fan-out: one
/// scatterer feeds n one-shot receivers. Ping-pong: two tasks exchange a
/// token n times over *directed* channels (int one way, bool the other —
/// channels are typed, so neither task can consume its own send).
constexpr const char *FanProgram = R"prog(
def shot() : unit {
  send(1)
}

def gather(n : int) : int {
  let t = 0;
  let i = 0;
  while (i < n) {
    t = t + recv<int>();
    i = i + 1
  };
  t
}

def scatter(n : int) : unit {
  let i = 0;
  while (i < n) {
    send(i);
    i = i + 1
  }
}

def take() : int {
  recv<int>()
}

def ping(n : int) : int {
  let i = 0;
  while (i < n) {
    send(i);
    let ack = recv<bool>();
    i = i + 1
  };
  i
}

def pong(n : int) : unit {
  let j = 0;
  while (j < n) {
    let t = recv<int>();
    send(true);
    j = j + 1
  }
}
)prog";

void exportSchedMetrics(benchmark::State &State, const RuntimeMetrics &M) {
  State.counters["tasks_spawned"] = static_cast<double>(M.TasksSpawned);
  State.counters["steals"] = static_cast<double>(M.Steals);
  State.counters["parks"] = static_cast<double>(M.Parks);
  State.counters["sends"] = static_cast<double>(M.ChannelSends);
  State.counters["recvs"] = static_cast<double>(M.ChannelRecvs);
  unsigned HW = std::thread::hardware_concurrency();
  State.counters["workers"] = static_cast<double>(
      std::min<uint64_t>(2 * (HW ? HW : 1), M.TasksSpawned));
}

/// The headline workload: a ring of `Hops` language threads plus the
/// sink, run on the fixed default pool (min(2x hardware threads, task
/// count)). items_per_second reads as language tasks retired per second.
void BM_TokenRing(benchmark::State &State) {
  Expected<Pipeline> P = compile(RingProgram);
  if (!P) {
    State.SkipWithError(P.error().Message.c_str());
    return;
  }
  const int64_t Hops = State.range(0);
  Symbol Hop = P->Prog->Names.intern("hop");
  Symbol Sink = P->Prog->Names.intern("sink");
  RuntimeMetrics LastRun;
  for (auto _ : State) {
    ParallelExecOptions Opts;
    Opts.WatchdogMillis = 300'000; // a scheduler hang fails, not wedges
    ParallelExec Exec(P->Checked, Opts);
    for (int64_t I = 0; I < Hops; ++I)
      Exec.spawn(Hop);
    Exec.spawn(Sink, {Value::intVal(Hops)});
    Expected<std::vector<Value>> R = Exec.run();
    if (!R) {
      State.SkipWithError(R.error().Message.c_str());
      return;
    }
    if (!((*R)[Hops] == Value::intVal(Hops))) {
      State.SkipWithError("ring token lost");
      return;
    }
    LastRun = Exec.metrics();
  }
  State.SetItemsProcessed(State.iterations() * (Hops + 1));
  exportSchedMetrics(State, LastRun);
}
BENCHMARK(BM_TokenRing)->Arg(1'000)->Arg(10'000)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
// The acceptance-scale ring: 100k language threads on the same fixed
// pool. One iteration is plenty of work to time.
BENCHMARK(BM_TokenRing)->Arg(100'000)->Iterations(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_FanIn(benchmark::State &State) {
  Expected<Pipeline> P = compile(FanProgram);
  if (!P) {
    State.SkipWithError(P.error().Message.c_str());
    return;
  }
  const int64_t Senders = State.range(0);
  Symbol Shot = P->Prog->Names.intern("shot");
  Symbol Gather = P->Prog->Names.intern("gather");
  RuntimeMetrics LastRun;
  for (auto _ : State) {
    ParallelExecOptions Opts;
    Opts.WatchdogMillis = 300'000;
    ParallelExec Exec(P->Checked, Opts);
    for (int64_t I = 0; I < Senders; ++I)
      Exec.spawn(Shot);
    Exec.spawn(Gather, {Value::intVal(Senders)});
    Expected<std::vector<Value>> R = Exec.run();
    if (!R) {
      State.SkipWithError(R.error().Message.c_str());
      return;
    }
    if (!((*R)[Senders] == Value::intVal(Senders))) {
      State.SkipWithError("fan-in sum wrong");
      return;
    }
    LastRun = Exec.metrics();
  }
  State.SetItemsProcessed(State.iterations() * Senders);
  exportSchedMetrics(State, LastRun);
}
BENCHMARK(BM_FanIn)->Arg(1'000)->Arg(10'000)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_FanOut(benchmark::State &State) {
  Expected<Pipeline> P = compile(FanProgram);
  if (!P) {
    State.SkipWithError(P.error().Message.c_str());
    return;
  }
  const int64_t Receivers = State.range(0);
  Symbol Scatter = P->Prog->Names.intern("scatter");
  Symbol Take = P->Prog->Names.intern("take");
  RuntimeMetrics LastRun;
  for (auto _ : State) {
    ParallelExecOptions Opts;
    Opts.WatchdogMillis = 300'000;
    ParallelExec Exec(P->Checked, Opts);
    Exec.spawn(Scatter, {Value::intVal(Receivers)});
    for (int64_t I = 0; I < Receivers; ++I)
      Exec.spawn(Take);
    Expected<std::vector<Value>> R = Exec.run();
    if (!R) {
      State.SkipWithError(R.error().Message.c_str());
      return;
    }
    LastRun = Exec.metrics();
  }
  State.SetItemsProcessed(State.iterations() * Receivers);
  exportSchedMetrics(State, LastRun);
}
BENCHMARK(BM_FanOut)->Arg(1'000)->Arg(10'000)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Runs a two-task ping-pong of \p Exchanges round trips and returns the
/// C++ heap allocations the whole run performed.
uint64_t pingPongAllocs(Pipeline &P, int64_t Exchanges) {
  ParallelExecOptions Opts;
  Opts.WatchdogMillis = 300'000;
  ParallelExec Exec(P.Checked, Opts);
  Exec.spawn(P.Prog->Names.intern("ping"), {Value::intVal(Exchanges)});
  Exec.spawn(P.Prog->Names.intern("pong"), {Value::intVal(Exchanges)});
  uint64_t Before = heapAllocs();
  Expected<std::vector<Value>> R = Exec.run();
  uint64_t After = heapAllocs();
  if (!R || !((*R)[0] == Value::intVal(Exchanges)))
    return UINT64_MAX;
  return After - Before;
}

/// Two tasks bouncing a token through park/unpark on every exchange.
/// `allocs_per_iter` is measured differentially — two runs differing
/// only in exchange count; the delta divided by the extra exchanges is
/// the steady-state allocation cost of one park/unpark round trip.
/// The acceptance bar is 0: both the park (intrusive waiter) and the
/// unpark (handoff + fixed-capacity inject ring) are allocation-free.
void BM_PingPongParkUnpark(benchmark::State &State) {
  Expected<Pipeline> P = compile(FanProgram);
  if (!P) {
    State.SkipWithError(P.error().Message.c_str());
    return;
  }
  const int64_t N1 = 2'000, N2 = 10'000;
  uint64_t A1 = pingPongAllocs(*P, N1);
  uint64_t A2 = pingPongAllocs(*P, N2);
  if (A1 == UINT64_MAX || A2 == UINT64_MAX) {
    State.SkipWithError("ping-pong run failed");
    return;
  }
  double AllocsPerIter =
      static_cast<double>(A2 > A1 ? A2 - A1 : 0) /
      static_cast<double>(N2 - N1);

  const int64_t Exchanges = State.range(0);
  Symbol Ping = P->Prog->Names.intern("ping");
  Symbol Pong = P->Prog->Names.intern("pong");
  RuntimeMetrics LastRun;
  for (auto _ : State) {
    ParallelExecOptions Opts;
    Opts.WatchdogMillis = 300'000;
    ParallelExec Exec(P->Checked, Opts);
    Exec.spawn(Ping, {Value::intVal(Exchanges)});
    Exec.spawn(Pong, {Value::intVal(Exchanges)});
    Expected<std::vector<Value>> R = Exec.run();
    if (!R) {
      State.SkipWithError(R.error().Message.c_str());
      return;
    }
    benchmark::DoNotOptimize((*R)[0]);
    LastRun = Exec.metrics();
  }
  State.SetItemsProcessed(State.iterations() * Exchanges);
  State.counters["allocs_per_iter"] = AllocsPerIter;
  exportSchedMetrics(State, LastRun);
}
BENCHMARK(BM_PingPongParkUnpark)->Arg(10'000)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// FEARLESS_SCHED_SMOKE hook: run the acceptance checks directly (no
/// benchmark timing) so tools/ci.sh can gate them cheaply, including
/// under TSan:
///
///   FEARLESS_SCHED_SMOKE=100000 ./bench_scheduler --benchmark_filter=NONE
///
/// Checks: the N-hop ring completes with the token intact on the fixed
/// default pool, and the ping-pong steady state allocates nothing per
/// park/unpark round trip.
int runSchedSmoke(const char *Spec) {
  int64_t Hops = std::max<int64_t>(1, std::atoll(Spec));
  Expected<Pipeline> Ring = compile(RingProgram);
  Expected<Pipeline> Fan = compile(FanProgram);
  if (!Ring || !Fan) {
    std::fprintf(stderr, "bench_scheduler: smoke compile failed\n");
    return 1;
  }
  ParallelExecOptions Opts;
  Opts.WatchdogMillis = 300'000;
  ParallelExec Exec(Ring->Checked, Opts);
  Symbol Hop = Ring->Prog->Names.intern("hop");
  for (int64_t I = 0; I < Hops; ++I)
    Exec.spawn(Hop);
  Exec.spawn(Ring->Prog->Names.intern("sink"), {Value::intVal(Hops)});
  Expected<std::vector<Value>> R = Exec.run();
  if (!R) {
    std::fprintf(stderr, "bench_scheduler: smoke ring failed: %s\n",
                 R.error().Message.c_str());
    return 1;
  }
  if (!((*R)[Hops] == Value::intVal(Hops))) {
    std::fprintf(stderr, "bench_scheduler: smoke ring lost the token\n");
    return 1;
  }
  const RuntimeMetrics &M = Exec.metrics();

  uint64_t A1 = pingPongAllocs(*Fan, 2'000);
  uint64_t A2 = pingPongAllocs(*Fan, 10'000);
  if (A1 == UINT64_MAX || A2 == UINT64_MAX) {
    std::fprintf(stderr, "bench_scheduler: smoke ping-pong failed\n");
    return 1;
  }
  uint64_t Delta = A2 > A1 ? A2 - A1 : 0;
  if (Delta != 0) {
    std::fprintf(stderr,
                 "bench_scheduler: park/unpark path allocates in steady "
                 "state (%llu allocs across 8000 extra exchanges)\n",
                 static_cast<unsigned long long>(Delta));
    return 1;
  }
  std::fprintf(stderr,
               "bench_scheduler: smoke ok (ring=%lld tasks_spawned=%llu "
               "steals=%llu parks=%llu allocs_per_iter=0)\n",
               static_cast<long long>(Hops + 1),
               static_cast<unsigned long long>(M.TasksSpawned),
               static_cast<unsigned long long>(M.Steals),
               static_cast<unsigned long long>(M.Parks));
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (const char *Smoke = std::getenv("FEARLESS_SCHED_SMOKE"))
    return runSchedSmoke(Smoke);
  return 0;
}
