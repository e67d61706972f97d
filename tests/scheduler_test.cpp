//===- tests/scheduler_test.cpp -------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// The M:N work-stealing task scheduler (concurrency/TaskScheduler.h).
// Units cover rings, fan-in, and many-tasks-few-workers workloads on the
// task executor; bit-identical results against the deterministic
// abstract machine running checked bytecode (including an `if
// disconnected` oracle across eight scheduling seeds); and the table of
// observable differences that remain between the two executors.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "concurrency/ParallelExec.h"
#include "runtime/Machine.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

using namespace fearless;
using namespace fearless::testutil;

namespace {

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
// The observable differences between the machine and the task pool
//===----------------------------------------------------------------------===//

/// Steps \p M's thread \p Pick until it takes a communication step
/// (blocks, or blocks and pairs at once) and returns that step.
McStepRecord stepUntilComm(Machine &M, size_t Pick) {
  for (int I = 0; I < 10'000; ++I) {
    Expected<McStepRecord> Rec = M.stepChosen(Pick);
    EXPECT_TRUE(Rec.hasValue()) << (Rec ? "" : Rec.error().render());
    if (!Rec || (Rec->StepKind != McStepRecord::Kind::Local &&
                 Rec->StepKind != McStepRecord::Kind::Finish))
      return Rec ? *Rec : McStepRecord();
  }
  ADD_FAILURE() << "thread " << Pick << " never communicated";
  return McStepRecord();
}

TEST(ExecutorDifferences, MachineAgainstPool) {
  // Every way the two executors still differ on one program, one row
  // each: what the pool does, then what the machine does instead.
  struct Row {
    const char *Name;
    SpawnSet Spawns;
    std::function<void(const Expected<std::vector<Value>> &,
                       const RuntimeMetrics &)>
        OnPool;
    std::function<void(Pipeline &, const SpawnSet &)> OnMachine;
  };
  const std::vector<Row> Rows = {
      {"buffered send against rendezvous",
       {{"producer", {Value::intVal(2)}}, {"consumer", {Value::intVal(2)}}},
       [](const Expected<std::vector<Value>> &R, const RuntimeMetrics &M) {
         // The sender runs first on the one worker: its sends buffer
         // and it finishes without waiting for the receiver.
         ASSERT_TRUE(R.hasValue()) << R.error().render();
         EXPECT_EQ((*R)[1], Value::intVal(1));
         EXPECT_EQ(M.ThreadsFinished, 2u);
         EXPECT_GE(M.ChannelPeakDepth, 1u);
       },
       [](Pipeline &P, const SpawnSet &Spawns) {
         // The machine blocks the sender at its first send (EC3) until
         // the receiver arrives to pair with it.
         Machine M(P.Checked);
         for (const auto &[Fn, Args] : Spawns)
           M.spawn(sym(P, Fn), Args);
         ASSERT_TRUE(M.beginStepping().hasValue());
         EXPECT_EQ(stepUntilComm(M, 0).StepKind,
                   McStepRecord::Kind::BlockSend);
         EXPECT_EQ(M.threads()[0].Status, ThreadStatus::BlockedSend);
         McStepRecord Pair = stepUntilComm(M, 1);
         EXPECT_EQ(Pair.StepKind, McStepRecord::Kind::CommPair);
         EXPECT_EQ(Pair.Partner, 0u);
         EXPECT_EQ(M.threads()[0].Status, ThreadStatus::Runnable);
       }},
      {"closure-as-cancel against a deadlock report",
       {{"consumer", {Value::intVal(1)}}},
       [](const Expected<std::vector<Value>> &R, const RuntimeMetrics &M) {
         // The lone receiver parks, which completes quiescence and wakes
         // it with a clean cancellation; the counters surface the
         // protocol in the JSON.
         ASSERT_TRUE(R.hasValue()) << R.error().render();
         EXPECT_EQ((*R)[0], Value::unitVal());
         EXPECT_EQ(M.Parks, 1u);
         EXPECT_EQ(M.TasksSpawned, 1u);
         EXPECT_EQ(M.ThreadsCancelled, 1u);
         EXPECT_EQ(M.WatchdogFired, 0u);
         std::string Json = M.toJson();
         EXPECT_NE(Json.find("\"tasks_spawned\": 1"), std::string::npos)
             << Json;
         EXPECT_NE(Json.find("\"parks\": 1"), std::string::npos) << Json;
         EXPECT_NE(Json.find("\"steals\""), std::string::npos) << Json;
       },
       [](Pipeline &P, const SpawnSet &Spawns) {
         Machine M(P.Checked);
         for (const auto &[Fn, Args] : Spawns)
           M.spawn(sym(P, Fn), Args);
         Expected<MachineSummary> R = M.run();
         ASSERT_FALSE(R.hasValue());
         EXPECT_EQ(R.error().Message.rfind("deadlock: ", 0), 0u)
             << R.error().Message;
       }},
      {"checked against erased",
       {{"producer_lists", {Value::intVal(2), Value::intVal(3)}},
        {"consumer_lists", {Value::intVal(2)}}},
       [](const Expected<std::vector<Value>> &R, const RuntimeMetrics &M) {
         // The pool always runs erased bytecode.
         ASSERT_TRUE(R.hasValue()) << R.error().render();
         EXPECT_EQ(M.ReservationChecks, 0u);
         EXPECT_GT(M.ChecksErased, 0u);
       },
       [](Pipeline &P, const SpawnSet &Spawns) {
         // The machine runs in its bytecode's mode: checked by default.
         for (bool Checked : {true, false}) {
           MachineOptions O;
           O.CheckReservations = Checked;
           Machine M(P.Checked, O);
           for (const auto &[Fn, Args] : Spawns)
             M.spawn(sym(P, Fn), Args);
           ASSERT_TRUE(M.run().hasValue());
           EXPECT_EQ(M.metrics().ReservationChecks > 0, Checked)
               << "checked=" << Checked;
         }
       }},
  };
  Pipeline P = mustCompile(programs::MessagePassing);
  for (const Row &Case : Rows) {
    SCOPED_TRACE(Case.Name);
    ParallelExecOptions O;
    O.NumWorkers = 1;
    O.WatchdogMillis = 10'000;
    ParallelExec Exec(P.Checked, O);
    for (const auto &[Fn, Args] : Case.Spawns)
      Exec.spawn(sym(P, Fn), Args);
    Expected<std::vector<Value>> R = Exec.run();
    Case.OnPool(R, Exec.metrics());
    Case.OnMachine(P, Case.Spawns);
  }
}

} // namespace
