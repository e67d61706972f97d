//===- tests/scheduler_test.cpp -------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// The M:N work-stealing task scheduler (concurrency/TaskScheduler.h) and
// the supervision-backoff fixes that shipped with it. Units cover the
// saturating backoff math; rings, fan-in, and many-tasks-few-workers
// workloads on the task executor; bit-identical results against the
// deterministic abstract machine running checked bytecode (including
// an `if disconnected` oracle across eight scheduling seeds); the
// supervision cases; and regressions for abort-aware backoff (a hard
// abort or channel shutdown must cancel a pending multi-second backoff
// promptly and cleanly).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "concurrency/Backoff.h"
#include "concurrency/ParallelExec.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

using namespace fearless;
using namespace fearless::testutil;

namespace {

//===----------------------------------------------------------------------===//
// Backoff math: saturation instead of shift overflow
//===----------------------------------------------------------------------===//

TEST(BackoffMath, GrowsExponentiallyThenSaturatesAtCap) {
  EXPECT_EQ(restartBackoffMillis(1, 64, 0), 1u);
  EXPECT_EQ(restartBackoffMillis(1, 64, 1), 2u);
  EXPECT_EQ(restartBackoffMillis(1, 64, 5), 32u);
  EXPECT_EQ(restartBackoffMillis(1, 64, 6), 64u);
  EXPECT_EQ(restartBackoffMillis(1, 64, 7), 64u); // capped, not 128
  EXPECT_EQ(restartBackoffMillis(3, 1000, 3), 24u);
  // Base at or above the cap clamps immediately (attempt 0 included).
  EXPECT_EQ(restartBackoffMillis(100, 50, 0), 50u);
  // Zero base means backoff disabled at every attempt.
  EXPECT_EQ(restartBackoffMillis(0, 1000, 0), 0u);
  EXPECT_EQ(restartBackoffMillis(0, 1000, 63), 0u);
}

TEST(BackoffMath, HighAttemptNumbersCannotOverflowThePlannedBackoff) {
  // Regression: the old `Base << Attempt` wraps uint64_t (and is UB from
  // attempt 64 up). A maxed-out budget must pin to the cap, never wrap
  // back to a small or zero sleep.
  EXPECT_EQ(restartBackoffMillis(1, 64, 63), 64u);
  EXPECT_EQ(restartBackoffMillis(1, 64, 64), 64u);   // UB territory before
  EXPECT_EQ(restartBackoffMillis(1, 64, 1000), 64u);
  // 2^32 << 33 == 2^65 wraps to 0 without saturation.
  EXPECT_EQ(restartBackoffMillis(uint64_t(1) << 32, uint64_t(1) << 40, 33),
            uint64_t(1) << 40);
  EXPECT_EQ(restartBackoffMillis(5, uint64_t(1) << 62, 100),
            uint64_t(1) << 62);
}

TEST(BackoffMath, MonotoneNonDecreasingInAttempt) {
  // The observable symptom of the overflow bug was a *decreasing* backoff
  // at high attempt counts; the saturating form is monotone by
  // construction.
  uint64_t Prev = 0;
  for (uint32_t Attempt = 0; Attempt < 200; ++Attempt) {
    uint64_t B = restartBackoffMillis(3, 1000, Attempt);
    EXPECT_GE(B, Prev) << "attempt " << Attempt;
    EXPECT_LE(B, 1000u) << "attempt " << Attempt;
    Prev = B;
  }
  EXPECT_EQ(Prev, 1000u);
}

TEST(BackoffMath, JitterIsDeterministicAndBounded) {
  // jittered = backoff + seeded draw in [0, backoff]: a pure function of
  // (seed, thread, attempt), bounded by [backoff, 2*backoff] even at
  // attempt numbers that would have overflowed the shift.
  for (uint32_t Attempt : {0u, 1u, 7u, 63u, 64u, 150u}) {
    uint64_t A = jitteredRestartMillis(1, 64, 42, 3, Attempt);
    uint64_t B = jitteredRestartMillis(1, 64, 42, 3, Attempt);
    EXPECT_EQ(A, B) << "attempt " << Attempt;
    uint64_t Planned = restartBackoffMillis(1, 64, Attempt);
    EXPECT_GE(A, Planned) << "attempt " << Attempt;
    EXPECT_LE(A, 2 * Planned) << "attempt " << Attempt;
  }
  // Different threads draw different jitter (herd decorrelation).
  EXPECT_NE(jitteredRestartMillis(16, 4096, 9, 0, 3),
            jitteredRestartMillis(16, 4096, 9, 1, 3));
}

//===----------------------------------------------------------------------===//
// Task scheduler workloads
//===----------------------------------------------------------------------===//

/// A token ring over the shared int channel: `hop` tasks each consume the
/// token once and re-send it incremented; the sink keeps re-injecting the
/// token until every hop has contributed, then returns it. The result is
/// deterministically the number of hops regardless of how the scheduler
/// routes the token — the bench_scheduler workload at test scale.
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

TEST(TaskScheduler, TokenRingOfManyTasksCompletes) {
  constexpr int64_t Hops = 200;
  Pipeline P = mustCompile(RingProgram);
  ParallelExecOptions O;
  O.WatchdogMillis = 60'000; // safety net: a protocol hang fails, not hangs
  ParallelExec Exec(P.Checked, O);
  for (int64_t I = 0; I < Hops; ++I)
    Exec.spawn(sym(P, "hop"));
  Exec.spawn(sym(P, "sink"), {Value::intVal(Hops)});
  Expected<std::vector<Value>> R = Exec.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  EXPECT_EQ((*R)[Hops], Value::intVal(Hops));
  const RuntimeMetrics &M = Exec.metrics();
  EXPECT_EQ(M.TasksSpawned, static_cast<uint64_t>(Hops) + 1);
  EXPECT_EQ(M.ThreadsFinished + M.ThreadsCancelled,
            static_cast<uint64_t>(Hops) + 1);
  EXPECT_EQ(M.WatchdogFired, 0u);
}

TEST(TaskScheduler, ManyTasksFewWorkersWithTightPreemption) {
  // 17 language threads on 2 workers with an aggressive preemption
  // quantum: heavy multiplexing, migration, and stealing pressure must
  // not change the answer.
  Pipeline P = mustCompile(programs::MessagePassing);
  ParallelExecOptions O;
  O.NumWorkers = 2;
  O.PreemptQuantum = 16;
  O.WatchdogMillis = 60'000;
  ParallelExec Exec(P.Checked, O);
  for (int I = 0; I < 16; ++I)
    Exec.spawn(sym(P, "producer"), {Value::intVal(3)});
  Exec.spawn(sym(P, "consumer"), {Value::intVal(48)});
  Expected<std::vector<Value>> R = Exec.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  EXPECT_EQ((*R)[16], Value::intVal(48)); // 16 producers x (0+1+2)
  const RuntimeMetrics &M = Exec.metrics();
  EXPECT_EQ(M.TasksSpawned, 17u);
  EXPECT_EQ(M.ChannelSends, 48u);
  EXPECT_EQ(M.ChannelRecvs, 48u);
  EXPECT_EQ(M.WatchdogFired, 0u);
}

TEST(TaskScheduler, LoneConsumerParksOnceThenQuiesces) {
  // A single receiver with no producer: the task must *park* (not block a
  // worker), which completes quiescence and wakes it with a clean
  // cancellation. The new counters surface the protocol in the JSON.
  Pipeline P = mustCompile(programs::MessagePassing);
  ParallelExecOptions O;
  O.WatchdogMillis = 10'000;
  ParallelExec Exec(P.Checked, O);
  Exec.spawn(sym(P, "consumer"), {Value::intVal(1)});
  Expected<std::vector<Value>> R = Exec.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  const RuntimeMetrics &M = Exec.metrics();
  EXPECT_EQ(M.Parks, 1u);
  EXPECT_EQ(M.TasksSpawned, 1u);
  EXPECT_EQ(M.ThreadsCancelled, 1u);
  EXPECT_EQ(M.WatchdogFired, 0u);
  std::string Json = M.toJson();
  EXPECT_NE(Json.find("\"tasks_spawned\": 1"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"parks\": 1"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"steals\""), std::string::npos) << Json;
}

TEST(TaskScheduler, SchedSeedVariesScheduleNotResults) {
  // Checked programs are schedule-independent: every seed (0 keeps the
  // round-robin default; others permute placement and steal order) must
  // produce the identical ring result.
  constexpr int64_t Hops = 60;
  Pipeline P = mustCompile(RingProgram);
  for (uint64_t Seed = 0; Seed <= 7; ++Seed) {
    ParallelExecOptions O;
    O.SchedSeed = Seed;
    O.NumWorkers = 2;
    O.WatchdogMillis = 60'000;
    ParallelExec Exec(P.Checked, O);
    for (int64_t I = 0; I < Hops; ++I)
      Exec.spawn(sym(P, "hop"));
    Exec.spawn(sym(P, "sink"), {Value::intVal(Hops)});
    Expected<std::vector<Value>> R = Exec.run();
    ASSERT_TRUE(R.hasValue())
        << "seed " << Seed << ": " << (R ? "" : R.error().render());
    EXPECT_EQ((*R)[Hops], Value::intVal(Hops)) << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Parity: the task scheduler vs the abstract machine
//===----------------------------------------------------------------------===//

/// The CyclicDllCrossesThreads workload: remove_tail uses
/// `if disconnected` (Fig. 5), making this the disconnect oracle.
const std::string DllExchange = std::string(programs::DllSuite) + R"prog(
def maker(n : int) : unit {
  let l = dll_new();
  let i = 0;
  while (i < n) {
    let p = new data(i) in { push_front(l, p) };
    i = i + 1
  };
  send(l)
}
def taker() : int {
  let l = recv<dll>();
  let removed = let some(d) = remove_tail(l) in { d.value } else { -1 };
  removed * 1000 + length(l)
}
)prog";

/// One spawn set: entry functions and their arguments, in spawn order.
using SpawnSet = std::vector<std::pair<const char *, std::vector<Value>>>;

/// Runs \p Spawns on the task pool under \p O and returns the result
/// vector, failing the test on error.
std::vector<Value> runTasks(Pipeline &P, ParallelExecOptions O,
                            const SpawnSet &Spawns,
                            RuntimeMetrics &MetricsOut) {
  O.WatchdogMillis = 60'000;
  ParallelExec Exec(P.Checked, O);
  for (const auto &[Fn, Args] : Spawns)
    Exec.spawn(sym(P, Fn), Args);
  Expected<std::vector<Value>> R = Exec.run();
  EXPECT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  MetricsOut = Exec.metrics();
  return R.hasValue() ? *R : std::vector<Value>{};
}

/// The reference: the deterministic abstract machine on checked
/// bytecode (its own lowering), every dynamic reservation check on.
std::vector<Value> runMachine(Pipeline &P, const SpawnSet &Spawns,
                              RuntimeMetrics &MetricsOut) {
  Machine M(P.Checked);
  for (const auto &[Fn, Args] : Spawns)
    M.spawn(sym(P, Fn), Args);
  Expected<MachineSummary> R = M.run();
  EXPECT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  MetricsOut = M.metrics();
  return R.hasValue() ? R->ThreadResults : std::vector<Value>{};
}

TEST(ModeParity, ResultsBitIdenticalToAbstractMachine) {
  // The same workloads on the task pool and on the machine: result
  // vectors must match element for element, and so must the outcome
  // accounting and the communication counts.
  struct Workload {
    const char *Name;
    std::string Source;
    SpawnSet Spawns;
  };
  std::vector<Workload> Workloads = {
      {"map_reduce",
       programs::MessagePassing,
       {{"producer_lists", {Value::intVal(8), Value::intVal(4)}},
        {"worker", {Value::intVal(4)}},
        {"worker", {Value::intVal(4)}},
        {"reducer", {Value::intVal(8)}}}},
      {"list_pipeline",
       programs::MessagePassing,
       {{"producer_lists", {Value::intVal(6), Value::intVal(5)}},
        {"consumer_lists", {Value::intVal(6)}}}},
      {"dll_disconnect",
       DllExchange,
       {{"maker", {Value::intVal(4)}}, {"taker", {}}}},
  };
  for (Workload &W : Workloads) {
    Pipeline P = mustCompile(W.Source);
    RuntimeMetrics TaskM, RefM;
    std::vector<Value> TaskR = runTasks(P, {}, W.Spawns, TaskM);
    std::vector<Value> RefR = runMachine(P, W.Spawns, RefM);
    ASSERT_EQ(TaskR.size(), RefR.size()) << W.Name;
    for (size_t I = 0; I < TaskR.size(); ++I)
      EXPECT_EQ(TaskR[I], RefR[I]) << W.Name << " thread " << I;
    EXPECT_EQ(TaskM.ThreadsFinished, RefM.ThreadsFinished) << W.Name;
    EXPECT_EQ(TaskM.ThreadsCancelled, RefM.ThreadsCancelled) << W.Name;
    EXPECT_EQ(TaskM.ThreadsErrored, RefM.ThreadsErrored) << W.Name;
    EXPECT_EQ(TaskM.Sends, RefM.Sends) << W.Name;
    EXPECT_EQ(TaskM.Recvs, RefM.Recvs) << W.Name;
    EXPECT_EQ(TaskM.DisconnectChecks, RefM.DisconnectChecks) << W.Name;
    // The channel layer agrees with the threads' own accounting.
    EXPECT_EQ(TaskM.ChannelSends, RefM.Sends) << W.Name;
    EXPECT_EQ(TaskM.ChannelRecvs, RefM.Recvs) << W.Name;
  }
}

TEST(ModeParity, DisconnectOracleAcrossEightSchedSeeds) {
  // The `if disconnected` workload re-proven on the task scheduler: the
  // abstract machine is the oracle; eight scheduling seeds must all
  // reproduce its results bit-identically.
  Pipeline P = mustCompile(DllExchange);
  const SpawnSet Spawns = {{"maker", {Value::intVal(4)}}, {"taker", {}}};
  RuntimeMetrics OracleM;
  std::vector<Value> Oracle = runMachine(P, Spawns, OracleM);
  ASSERT_EQ(Oracle.size(), 2u);
  EXPECT_EQ(Oracle[1], Value::intVal(3)); // tail 0 removed, length 3
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    RuntimeMetrics M;
    ParallelExecOptions O;
    O.SchedSeed = Seed;
    std::vector<Value> R = runTasks(P, O, Spawns, M);
    ASSERT_EQ(R.size(), Oracle.size()) << "seed " << Seed;
    for (size_t I = 0; I < R.size(); ++I)
      EXPECT_EQ(R[I], Oracle[I]) << "seed " << Seed << " thread " << I;
    EXPECT_EQ(M.DisconnectChecks, OracleM.DisconnectChecks)
        << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Supervision on the task scheduler
//===----------------------------------------------------------------------===//

TEST(SupervisionOnTasks, EffectFreeFaultRecoversOnOneAndTwoWorkers) {
  Pipeline P = mustCompile(programs::MessagePassing);
  for (size_t Workers : {size_t(1), size_t(2)}) {
    FaultPlan Plan = *parseFaultSpec("thread.start=nth:1,seed=3");
    FaultInjector FI(Plan);
    ParallelExecOptions O;
    O.Faults = &FI;
    O.MaxRestarts = 3;
    O.RestartBackoffMillis = 1;
    O.RestartBackoffCapMillis = 4;
    O.RestartSeed = 3;
    O.NumWorkers = Workers;
    O.WatchdogMillis = 10'000;
    ParallelExec Exec(P.Checked, O);
    Exec.spawn(sym(P, "producer"), {Value::intVal(10)});
    Exec.spawn(sym(P, "consumer"), {Value::intVal(10)});
    Expected<std::vector<Value>> R = Exec.run();
    ASSERT_TRUE(R.hasValue())
        << Workers << " workers: " << (R ? "" : R.error().render());
    EXPECT_EQ((*R)[1], Value::intVal(45)) << Workers << " workers";
    const RuntimeMetrics &M = Exec.metrics();
    EXPECT_EQ(M.FaultsInjected, 1u) << Workers << " workers";
    EXPECT_EQ(M.ThreadsRestarted, 1u) << Workers << " workers";
    EXPECT_GE(M.RestartBackoffMillis, 1u) << Workers << " workers";
    EXPECT_EQ(M.FaultsEscalated, 0u) << Workers << " workers";
    EXPECT_EQ(M.ThreadsErrored, 0u) << Workers << " workers";
  }
}

TEST(SupervisionOnTasks, ExhaustedBudgetEscalatesToAbort) {
  Pipeline P = mustCompile(programs::MessagePassing);
  FaultPlan Plan = *parseFaultSpec("thread.start=every:1");
  FaultInjector FI(Plan);
  ParallelExecOptions O;
  O.Faults = &FI;
  O.MaxRestarts = 2;
  O.RestartBackoffMillis = 1;
  O.RestartBackoffCapMillis = 2;
  O.NumWorkers = 2;
  O.WatchdogMillis = 10'000;
  ParallelExec Exec(P.Checked, O);
  Exec.spawn(sym(P, "producer"), {Value::intVal(5)});
  Exec.spawn(sym(P, "consumer"), {Value::intVal(5)});
  Expected<std::vector<Value>> R = Exec.run();
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().Message.find("thread.start"), std::string::npos);
  const RuntimeMetrics &M = Exec.metrics();
  EXPECT_GE(M.FaultsEscalated, 1u);
  EXPECT_GE(M.ThreadsRestarted, 2u); // at least one task spent its budget
  EXPECT_GE(M.ThreadsErrored, 1u);
}

TEST(SupervisionOnTasks, FaultAfterFirstSendIsNotReplayed) {
  // The dying attempt already externalized a value: the supervisor must
  // escalate, not replay.
  Pipeline P = mustCompile(programs::MessagePassing);
  FaultPlan Plan = *parseFaultSpec("chan.send=nth:2");
  FaultInjector FI(Plan);
  ParallelExecOptions O;
  O.Faults = &FI;
  O.MaxRestarts = 5;
  O.NumWorkers = 2;
  O.WatchdogMillis = 10'000;
  ParallelExec Exec(P.Checked, O);
  Exec.spawn(sym(P, "producer"), {Value::intVal(10)});
  Exec.spawn(sym(P, "consumer"), {Value::intVal(10)});
  Expected<std::vector<Value>> R = Exec.run();
  ASSERT_FALSE(R.hasValue());
  const RuntimeMetrics &M = Exec.metrics();
  EXPECT_EQ(M.ThreadsRestarted, 0u);
  EXPECT_EQ(M.FaultsEscalated, 1u);
}

//===----------------------------------------------------------------------===//
// Abort-aware backoff (regressions for the sleep_for-era bugs)
//===----------------------------------------------------------------------===//

TEST(BackoffInterrupt, HardAbortCancelsPendingMultiSecondBackoff) {
  // One thread dies at attempt start and is scheduled to back off for
  // 5+ seconds. The watchdog (no grace: straight to hard abort) must
  // interrupt that backoff promptly; under the old uninterruptible
  // sleep_for the run could not end before the full backoff elapsed.
  Pipeline P = mustCompile(programs::MessagePassing);
  FaultPlan Plan = *parseFaultSpec("thread.start=every:1");
  FaultInjector FI(Plan);
  ParallelExecOptions O;
  O.Faults = &FI;
  O.MaxRestarts = 3;
  O.RestartBackoffMillis = 5'000;
  O.RestartBackoffCapMillis = 8'000;
  O.WatchdogMillis = 100;
  O.WatchdogGraceMillis = 0; // hard abort immediately
  ParallelExec Exec(P.Checked, O);
  Exec.spawn(sym(P, "consumer"), {Value::intVal(1)});
  Expected<std::vector<Value>> R = Exec.run();
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().Message.find("watchdog"), std::string::npos);
  const RuntimeMetrics &M = Exec.metrics();
  EXPECT_EQ(M.WatchdogFired, 1u);
  EXPECT_EQ(M.ThreadsRestarted, 1u);
  // Well under the 5-10s backoff: the wait was actually interrupted.
  EXPECT_LT(M.WallMicros, 4'000'000u);
}

TEST(BackoffInterrupt, ShutdownDuringBackoffIsCleanCancellation) {
  // Soft-cancel variant: the channels close while the thread is backing
  // off. The post-restart attempt must observe the closed run as a clean
  // cancellation — not retry into closed channels and count a fresh
  // fault or escalate.
  Pipeline P = mustCompile(programs::MessagePassing);
  FaultPlan Plan = *parseFaultSpec("thread.start=every:1");
  FaultInjector FI(Plan);
  ParallelExecOptions O;
  O.Faults = &FI;
  O.MaxRestarts = 3;
  O.RestartBackoffMillis = 5'000;
  O.RestartBackoffCapMillis = 8'000;
  O.WatchdogMillis = 100;
  O.WatchdogGraceMillis = 2'000; // soft cancel, generous grace
  ParallelExec Exec(P.Checked, O);
  Exec.spawn(sym(P, "consumer"), {Value::intVal(1)});
  Expected<std::vector<Value>> R = Exec.run();
  ASSERT_FALSE(R.hasValue());
  const RuntimeMetrics &M = Exec.metrics();
  EXPECT_EQ(M.WatchdogFired, 1u);
  // Exactly the one injected fault and the one restart: the cancelled
  // retry neither re-consulted thread.start nor escalated.
  EXPECT_EQ(M.FaultsInjected, 1u);
  EXPECT_EQ(M.ThreadsRestarted, 1u);
  EXPECT_EQ(M.FaultsEscalated, 0u);
  EXPECT_EQ(M.ThreadsErrored, 0u);
  EXPECT_EQ(M.ThreadsCancelled, 1u);
  EXPECT_LT(M.WallMicros, 4'000'000u);
}

} // namespace
