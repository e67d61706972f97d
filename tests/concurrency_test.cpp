//===- tests/concurrency_test.cpp -----------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// §7: the concurrent configuration. Threads exchange items and whole list
// segments over send/recv; under every interleaving the model checker
// explores, reservations stay disjoint and sufficient (I1) and results
// are schedule-independent — or the schedule that breaks them is a
// replayable counterexample — and the parallel executor produces the
// same answers with the dynamic checks erased.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "concurrency/ParallelExec.h"
#include "mc/Dpor.h"
#include "runtime/Invariants.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

using namespace fearless;
using namespace fearless::testutil;

namespace {

TEST(Concurrency, SingleItemPipeline) {
  Pipeline P = mustCompile(programs::MessagePassing);
  Machine M(P.Checked);
  M.spawn(sym(P, "producer"), {Value::intVal(10)});
  M.spawn(sym(P, "consumer"), {Value::intVal(10)});
  Expected<MachineSummary> R = M.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  // Sum of 0..9.
  EXPECT_EQ(R->ThreadResults[1], Value::intVal(45));
  EXPECT_EQ(M.stats().Sends, 10u);
}

TEST(Concurrency, ListPipelineMovesWholeSegments) {
  Pipeline P = mustCompile(programs::MessagePassing);
  Machine M(P.Checked);
  M.spawn(sym(P, "producer_lists"),
          {Value::intVal(4), Value::intVal(5)});
  M.spawn(sym(P, "consumer_lists"), {Value::intVal(4)});
  Expected<MachineSummary> R = M.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  // Each list holds 0..4 (sum 10); four lists.
  EXPECT_EQ(R->ThreadResults[1], Value::intVal(40));
}

TEST(Concurrency, RelayRing) {
  // relay and consumer_lists race for recv<sll>
  // (RelayRaceIsAReplayableDeadlock), so the ring's happy path is one
  // schedule: the one in which the relay wins every race. Always
  // stepping the first runnable thread in the order relay, consumer,
  // producer yields it: both receivers are waiting before each producer
  // send, and pairing hands the list to the lower-numbered receiver, the
  // relay. Record that schedule, then replay it on a fresh machine.
  Pipeline P = mustCompile(programs::MessagePassing);
  auto Spawn = [&P](Machine &M) {
    M.spawn(sym(P, "producer_lists"), {Value::intVal(3), Value::intVal(2)});
    M.spawn(sym(P, "relay"), {Value::intVal(3)});
    M.spawn(sym(P, "consumer_lists"), {Value::intVal(3)});
  };
  const size_t Priority[] = {1, 2, 0};

  Machine Recorder(P.Checked);
  Spawn(Recorder);
  mc::Schedule RelayWins;
  ASSERT_TRUE(Recorder.beginStepping().hasValue());
  while (true) {
    Expected<MachineProgress> Prog = Recorder.checkProgress();
    ASSERT_TRUE(Prog.hasValue()) << Prog.error().render();
    ASSERT_NE(*Prog, MachineProgress::Deadlock)
        << Recorder.deadlockMessage();
    if (*Prog == MachineProgress::Done)
      break;
    const std::vector<size_t> &Runnable = Recorder.runnableThreads();
    size_t Pick = *std::find_first_of(std::begin(Priority),
                                      std::end(Priority), Runnable.begin(),
                                      Runnable.end());
    if (Runnable.size() >= 2)
      RelayWins.Choices.push_back(static_cast<uint32_t>(Pick));
    Expected<McStepRecord> Step = Recorder.stepChosen(Pick);
    ASSERT_TRUE(Step.hasValue()) << Step.error().render();
  }
  ASSERT_FALSE(RelayWins.Choices.empty());

  Machine M(P.Checked);
  Spawn(M);
  Expected<MachineSummary> R = mc::runSchedule(M, RelayWins);
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  // Each list: 0+1, plus the relay's 1000. Three lists.
  EXPECT_EQ(R->ThreadResults[2], Value::intVal(3 * (1 + 1000)));
}

/// A model-checker factory over the message-passing suite: checked
/// bytecode with every dynamic check on and the §6 validators after
/// every small step.
mc::MachineFactory listFactory(Pipeline &P, bool WithRelay) {
  return [&P, WithRelay] {
    MachineOptions MO;
    MO.StepValidator = [](const Machine &M) -> std::optional<std::string> {
      if (auto Problem = checkReservationsDisjoint(M))
        return Problem;
      return checkStoredRefCounts(M.heap());
    };
    auto M = std::make_unique<Machine>(P.Checked, MO);
    M->spawn(sym(P, "producer_lists"), {Value::intVal(3), Value::intVal(3)});
    if (WithRelay)
      M->spawn(sym(P, "relay"), {Value::intVal(3)});
    M->spawn(sym(P, "consumer_lists"), {Value::intVal(3)});
    return M;
  };
}

TEST(Concurrency, ListPipelineIsConfluentUnderEverySchedule) {
  // Exhaustive, not sampled: every interleaving of producer_lists(3, 3)
  // -> consumer_lists(3) is reservation-safe at every intermediate state
  // and ends with the same (fingerprinted) result.
  Pipeline P = mustCompile(programs::MessagePassing);
  mc::McOptions Opts;
  Opts.Validate = [](const Machine &M) -> std::optional<std::string> {
    if (!(M.threads()[1].Result == Value::intVal(3 * (0 + 1 + 2))))
      return "consumer result is not 9";
    return std::nullopt;
  };
  Expected<mc::McReport> Rep = mc::explore(listFactory(P, false), Opts);
  ASSERT_TRUE(Rep.hasValue()) << (Rep ? "" : Rep.error().render());
  EXPECT_TRUE(Rep->Complete) << Rep->Clipped;
  EXPECT_FALSE(Rep->Counterexample.has_value())
      << Rep->Counterexample->Reason;
  EXPECT_GE(Rep->SchedulesExplored, 2u);
  EXPECT_EQ(Rep->StatesFingerprinted, Rep->SchedulesExplored);
}

TEST(Concurrency, RelayRaceIsAReplayableDeadlock) {
  // relay and consumer_lists both recv<sll>, so whoever wins a list is a
  // scheduling race: when the consumer takes one straight from the
  // producer, the relay waits for a third list that never comes. The
  // checker must find that deadlock and ship a schedule that replays it
  // byte for byte.
  Pipeline P = mustCompile(programs::MessagePassing);
  mc::MachineFactory Factory = listFactory(P, true);
  Expected<mc::McReport> Rep = mc::explore(Factory, mc::McOptions{});
  ASSERT_TRUE(Rep.hasValue()) << (Rep ? "" : Rep.error().render());
  ASSERT_TRUE(Rep->Counterexample.has_value());
  const mc::McCounterexample &CE = *Rep->Counterexample;
  EXPECT_NE(CE.Reason.find("deadlock"), std::string::npos) << CE.Reason;
  EXPECT_NE(CE.Reason.find("blocked in recv<sll>"), std::string::npos)
      << CE.Reason;

  Expected<mc::Schedule> Parsed = mc::Schedule::parse(CE.Sched.render());
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.error().Message;
  std::unique_ptr<Machine> M1 = Factory();
  std::unique_ptr<Machine> M2 = Factory();
  Expected<MachineSummary> R1 = mc::runSchedule(*M1, *Parsed);
  Expected<MachineSummary> R2 = mc::runSchedule(*M2, *Parsed);
  ASSERT_FALSE(R1.hasValue());
  ASSERT_FALSE(R2.hasValue());
  EXPECT_EQ(R1.error().Message, CE.Reason);
  EXPECT_EQ(R2.error().Message, CE.Reason);
  EXPECT_EQ(M1->metrics().toJson(), M2->metrics().toJson());
  EXPECT_EQ(M1->blockedStateDump(), M2->blockedStateDump());
}

TEST(Concurrency, ReservationsDisjointMidRun) {
  Pipeline P = mustCompile(programs::MessagePassing);
  Machine M(P.Checked);
  M.spawn(sym(P, "producer"), {Value::intVal(50)});
  M.spawn(sym(P, "consumer"), {Value::intVal(50)});
  // Run to completion, then validate; disjointness is also implicitly
  // validated by every reservation check during the run.
  Expected<MachineSummary> R = M.run(7);
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(checkReservationsDisjoint(M), std::nullopt);
}

TEST(Concurrency, DeadlockIsReported) {
  Pipeline P = mustCompile(programs::MessagePassing);
  Machine M(P.Checked);
  // A consumer with no producer: deadlock.
  M.spawn(sym(P, "consumer"), {Value::intVal(1)});
  Expected<MachineSummary> R = M.run();
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().Message.find("deadlock"), std::string::npos);
}

TEST(Concurrency, MapReduceWorkerPool) {
  // Two workers map list segments to sums; a reducer folds the ints.
  // Typed channels route lists to workers and ints to the reducer.
  Pipeline P = mustCompile(programs::MessagePassing);
  Machine M(P.Checked);
  M.spawn(sym(P, "producer_lists"), {Value::intVal(6), Value::intVal(4)});
  M.spawn(sym(P, "worker"), {Value::intVal(3)});
  M.spawn(sym(P, "worker"), {Value::intVal(3)});
  M.spawn(sym(P, "reducer"), {Value::intVal(6)});
  Expected<MachineSummary> R = M.run(11);
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  // Each list holds 0..3 (sum 6); six lists.
  EXPECT_EQ(R->ThreadResults[3], Value::intVal(36));
}

TEST(Concurrency, MapReduceOnRealThreads) {
  Pipeline P = mustCompile(programs::MessagePassing);
  ParallelExec Exec(P.Checked);
  Exec.spawn(sym(P, "producer_lists"), {Value::intVal(40),
                                        Value::intVal(8)});
  Exec.spawn(sym(P, "worker"), {Value::intVal(20)});
  Exec.spawn(sym(P, "worker"), {Value::intVal(20)});
  Exec.spawn(sym(P, "reducer"), {Value::intVal(40)});
  Expected<std::vector<Value>> R = Exec.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  // Each list: 0..7 (sum 28); forty lists.
  EXPECT_EQ((*R)[3], Value::intVal(40 * 28));
}

TEST(Concurrency, CyclicDllCrossesThreads) {
  // A circular doubly linked list (cycles and all) moves between
  // reservations: the iso root dominates the whole ring, so send
  // transfers it wholesale.
  std::string Source = std::string(programs::DllSuite) + R"prog(
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
  Expected<Pipeline> P = compile(Source);
  ASSERT_TRUE(P.hasValue()) << (P ? "" : P.error().render());
  Machine M(P->Checked);
  M.spawn(P->Prog->Names.intern("maker"), {Value::intVal(4)});
  M.spawn(P->Prog->Names.intern("taker"), {});
  Expected<MachineSummary> R = M.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  // push_front 0..3 gives 3,2,1,0; tail = 0; remaining length 3.
  EXPECT_EQ(R->ThreadResults[1], Value::intVal(0 * 1000 + 3));
  EXPECT_EQ(checkReservationsDisjoint(M), std::nullopt);
}

TEST(Concurrency, ParallelExecutorMatchesAbstractMachine) {
  Pipeline P = mustCompile(programs::MessagePassing);
  ParallelExec Exec(P.Checked);
  Exec.spawn(sym(P, "producer_lists"), {Value::intVal(8),
                                        Value::intVal(16)});
  Exec.spawn(sym(P, "consumer_lists"), {Value::intVal(8)});
  Expected<std::vector<Value>> R = Exec.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  // Each list holds 0..15 (sum 120); eight lists.
  EXPECT_EQ((*R)[1], Value::intVal(8 * 120));
}

//===----------------------------------------------------------------------===//
// Shutdown protocol
//===----------------------------------------------------------------------===//

TEST(Concurrency, ProducerFinishesWhileConsumerStillBlocked) {
  // Deadlock regression: the producer sends 5 items and exits while the
  // consumer wants 100. Channel closure (last potential sender gone) must
  // cancel the consumer cleanly instead of hanging run() forever or
  // reporting a spurious "channel closed while receiving" error. The
  // watchdog is only a safety net so a protocol bug fails the test
  // instead of hanging it.
  Pipeline P = mustCompile(programs::MessagePassing);
  ParallelExecOptions O;
  O.WatchdogMillis = 10'000;
  ParallelExec Exec(P.Checked, O);
  Exec.spawn(sym(P, "producer"), {Value::intVal(5)});
  Exec.spawn(sym(P, "consumer"), {Value::intVal(100)});
  Expected<std::vector<Value>> R = Exec.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  const RuntimeMetrics &M = Exec.metrics();
  EXPECT_EQ(M.ThreadsFinished, 1u);
  EXPECT_EQ(M.ThreadsCancelled, 1u);
  EXPECT_EQ(M.ThreadsErrored, 0u);
  EXPECT_EQ(M.ChannelSends, 5u);
  EXPECT_EQ(M.ChannelRecvs, 5u); // all sent items were still consumed
  EXPECT_EQ(M.WatchdogFired, 0u);
}

TEST(Concurrency, ConsumerWithNoProducerIsCancelledNotDeadlocked) {
  Pipeline P = mustCompile(programs::MessagePassing);
  ParallelExecOptions O;
  O.WatchdogMillis = 10'000;
  ParallelExec Exec(P.Checked, O);
  Exec.spawn(sym(P, "consumer"), {Value::intVal(1)});
  Expected<std::vector<Value>> R = Exec.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  EXPECT_EQ(Exec.metrics().ThreadsCancelled, 1u);
  EXPECT_EQ(Exec.metrics().WatchdogFired, 0u);
}

TEST(Concurrency, LateCreatedChannelsAreBornClosed) {
  // The old closeAll() raced channel creation: a channel materialized
  // after the close stayed open forever. Channels created after shutdown
  // must be born in the shutdown state.
  ChannelSet S;
  S.registerThreads(1);
  EXPECT_EQ(S.threadFinished(), nullptr); // quiescent: clean shutdown
  Value V;
  ChannelWaiter W, *Woken = nullptr;
  EXPECT_EQ(S.recvOrPark(Type::intTy(), V, W, Woken), RecvResult::Closed);
  EXPECT_EQ(Woken, nullptr);

  ChannelSet S2;
  EXPECT_EQ(S2.abortAll(), nullptr);
  EXPECT_EQ(S2.recvOrPark(Type::boolTy(), V, W, Woken),
            RecvResult::Aborted);
  EXPECT_EQ(Woken, nullptr);
  RuntimeMetrics M;
  S.collectMetrics(M);
  S2.collectMetrics(M);
  EXPECT_EQ(M.ChannelsCreated, 2u);
}

TEST(Concurrency, ClosedChannelDrainsBeforeStopping) {
  // Closed is a *clean* state: what was sent before the close is still
  // delivered; only then do receivers observe Closed.
  ChannelSet S;
  S.registerThreads(1); // one sender keeps the set from quiescing
  EXPECT_EQ(S.send(Type::intTy(), Value::intVal(1)), nullptr);
  EXPECT_EQ(S.send(Type::intTy(), Value::intVal(2)), nullptr);
  EXPECT_EQ(S.closeAll(), nullptr);
  Value V;
  ChannelWaiter W, *Woken = nullptr;
  ASSERT_EQ(S.recvOrPark(Type::intTy(), V, W, Woken), RecvResult::Ok);
  EXPECT_EQ(V, Value::intVal(1));
  ASSERT_EQ(S.recvOrPark(Type::intTy(), V, W, Woken), RecvResult::Ok);
  EXPECT_EQ(V, Value::intVal(2));
  EXPECT_EQ(S.recvOrPark(Type::intTy(), V, W, Woken), RecvResult::Closed);
  EXPECT_EQ(Woken, nullptr);
}

TEST(Concurrency, AbortedChannelDiscardsQueuedValues) {
  ChannelSet S;
  S.registerThreads(1);
  EXPECT_EQ(S.send(Type::intTy(), Value::intVal(1)), nullptr);
  EXPECT_EQ(S.depth(Type::intTy()), 1u);
  EXPECT_EQ(S.abortAll(), nullptr);
  EXPECT_EQ(S.depth(Type::intTy()), 0u); // the queued 1 was discarded
  Value V = Value::intVal(7);
  ChannelWaiter W, *Woken = nullptr;
  EXPECT_EQ(S.recvOrPark(Type::intTy(), V, W, Woken), RecvResult::Aborted);
  EXPECT_EQ(V, Value::intVal(7));
  // Sends into an aborted run are dropped, not queued.
  EXPECT_EQ(S.send(Type::intTy(), Value::intVal(2)), nullptr);
  EXPECT_EQ(S.depth(Type::intTy()), 0u);
  EXPECT_EQ(S.recvOrPark(Type::intTy(), V, W, Woken), RecvResult::Aborted);
  EXPECT_EQ(V, Value::intVal(7));
  RuntimeMetrics M;
  S.collectMetrics(M);
  EXPECT_EQ(M.ChannelSends, 1u);
  EXPECT_EQ(M.ChannelRecvs, 0u);
  EXPECT_EQ(M.ChannelDroppedValues, 1u);
}

TEST(Concurrency, WakeChainsCarryExactAccounting) {
  // Every set operation returns the waiters it woke, already counted as
  // potential senders again: the accounting is exact at every step, so
  // quiescence closes the set neither early nor late.
  ChannelSet S;
  S.registerThreads(2); // a receiver and a sender
  Value V;
  ChannelWaiter Receiver, *Woken = nullptr;
  ASSERT_EQ(S.recvOrPark(Type::intTy(), V, Receiver, Woken),
            RecvResult::Parked);
  EXPECT_EQ(Woken, nullptr); // the sender is still active

  // The send hands its value to exactly the parked receiver.
  ChannelWaiter *Handed = S.send(Type::intTy(), Value::intVal(42));
  ASSERT_EQ(Handed, &Receiver);
  EXPECT_EQ(Handed->NextWaiter, nullptr);
  EXPECT_EQ(Handed->WakeResult, RecvResult::Ok);
  EXPECT_EQ(Handed->Handoff, Value::intVal(42));

  // The receiver is active again, so the sender finishing closes nothing
  // — a later send is still delivered.
  EXPECT_EQ(S.threadFinished(), nullptr);
  EXPECT_EQ(S.send(Type::intTy(), Value::intVal(1)), nullptr);
  ASSERT_EQ(S.recvOrPark(Type::intTy(), V, Receiver, Woken),
            RecvResult::Ok);
  EXPECT_EQ(V, Value::intVal(1));

  // The receiver finishing quiesces the set: later receives see Closed.
  EXPECT_EQ(S.threadFinished(), nullptr);
  EXPECT_EQ(S.recvOrPark(Type::intTy(), V, Receiver, Woken),
            RecvResult::Closed);
  RuntimeMetrics M;
  S.collectMetrics(M);
  EXPECT_EQ(M.ChannelSends, 2u);
  EXPECT_EQ(M.ChannelRecvs, 2u);
  EXPECT_EQ(M.ChannelDroppedValues, 0u);

  // The last active thread parking quiesces the set in the same critical
  // section and gets itself back, closed.
  ChannelSet Lone;
  Lone.registerThreads(1);
  ChannelWaiter Last;
  ASSERT_EQ(Lone.recvOrPark(Type::intTy(), V, Last, Woken),
            RecvResult::Parked);
  ASSERT_EQ(Woken, &Last);
  EXPECT_EQ(Last.NextWaiter, nullptr);
  EXPECT_EQ(Last.WakeResult, RecvResult::Closed);
  // Woken, it is a potential sender again until it finishes.
  EXPECT_EQ(Lone.send(Type::intTy(), Value::intVal(3)), nullptr);
  EXPECT_EQ(Lone.threadFinished(), nullptr);
  RuntimeMetrics LoneM;
  Lone.collectMetrics(LoneM);
  EXPECT_EQ(LoneM.ChannelDroppedValues, 1u); // sent after the close
}

TEST(Concurrency, WatchdogAbortsSpinningRun) {
  // An infinite loop never blocks, so channel closure cannot help; the
  // watchdog must turn the hang into a diagnostic.
  std::string Source = std::string(programs::MessagePassing) + R"prog(
def spin() : int {
  let i = 0;
  while (i < 1) { i = i - 1 };
  i
}
)prog";
  Pipeline P = mustCompile(Source);
  ParallelExecOptions O;
  O.WatchdogMillis = 100;
  ParallelExec Exec(P.Checked, O);
  Exec.spawn(sym(P, "spin"));
  Expected<std::vector<Value>> R = Exec.run();
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().Message.find("watchdog"), std::string::npos);
  EXPECT_EQ(Exec.metrics().WatchdogFired, 1u);
  EXPECT_EQ(Exec.metrics().ThreadsCancelled, 1u);
}

TEST(Concurrency, FailedThreadErrorsAllPropagate) {
  // A failing thread aborts the run; blocked peers are cancelled, not
  // blamed. Every *real* error is reported (the old executor kept only
  // the first slot's).
  std::string Source = std::string(programs::MessagePassing) + R"prog(
def crash(a : int) : int { 10 / a }
)prog";
  Pipeline P = mustCompile(Source);
  ParallelExec Exec(P.Checked);
  Exec.spawn(sym(P, "crash"), {Value::intVal(0)});
  Exec.spawn(sym(P, "consumer"), {Value::intVal(1)}); // blocks on recv
  Expected<std::vector<Value>> R = Exec.run();
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().Message.find("division by zero"),
            std::string::npos);
  // The blocked consumer was aborted, not mis-reported as an error.
  EXPECT_EQ(R.error().Message.find("channel closed"), std::string::npos);
  EXPECT_EQ(Exec.metrics().ThreadsErrored, 1u);
  EXPECT_EQ(Exec.metrics().ThreadsCancelled, 1u);
}

TEST(Concurrency, RunIsSingleUse) {
  Pipeline P = mustCompile(programs::MessagePassing);
  ParallelExec Exec(P.Checked);
  Exec.spawn(sym(P, "producer"), {Value::intVal(1)});
  Exec.spawn(sym(P, "consumer"), {Value::intVal(1)});
  ASSERT_TRUE(Exec.run().hasValue());
  Expected<std::vector<Value>> Again = Exec.run();
  ASSERT_FALSE(Again.hasValue());
  EXPECT_NE(Again.error().Message.find("at most once"),
            std::string::npos);
}

TEST(Concurrency, MetricsAggregateAcrossThreads) {
  Pipeline P = mustCompile(programs::MessagePassing);
  ParallelExec Exec(P.Checked);
  Exec.spawn(sym(P, "producer"), {Value::intVal(10)});
  Exec.spawn(sym(P, "consumer"), {Value::intVal(10)});
  ASSERT_TRUE(Exec.run().hasValue());
  const RuntimeMetrics &M = Exec.metrics();
  EXPECT_EQ(M.ThreadsSpawned, 2u);
  EXPECT_EQ(M.ThreadsFinished, 2u);
  EXPECT_EQ(M.Sends, 10u);
  EXPECT_EQ(M.Recvs, 10u);
  EXPECT_EQ(M.ChannelSends, 10u);
  EXPECT_EQ(M.ChannelRecvs, 10u);
  EXPECT_EQ(M.Allocations, 10u); // one `data` per item
  EXPECT_EQ(M.HeapObjects, 10u);
  EXPECT_GT(M.Steps, 0u);
  EXPECT_GE(M.ChannelPeakDepth, 1u);
  // The same counters flow through the JSON rendering.
  std::string Json = M.toJson();
  EXPECT_NE(Json.find("\"sends\": 10"), std::string::npos);
  EXPECT_NE(Json.find("\"threads_finished\": 2"), std::string::npos);
}

TEST(Concurrency, ParallelManyThreads) {
  Pipeline P = mustCompile(programs::MessagePassing);
  ParallelExec Exec(P.Checked);
  const int Producers = 4;
  const int PerProducer = 25;
  for (int I = 0; I < Producers; ++I)
    Exec.spawn(sym(P, "producer"), {Value::intVal(PerProducer)});
  // One consumer drains everything.
  Exec.spawn(sym(P, "consumer"),
             {Value::intVal(Producers * PerProducer)});
  Expected<std::vector<Value>> R = Exec.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  // Each producer sends 0..24 (sum 300).
  EXPECT_EQ((*R)[Producers], Value::intVal(Producers * 300));
}

} // namespace
