//===- tests/fault_test.cpp -----------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// Deterministic fault injection and structured runtime faults. Units
// cover the spec parser and trigger semantics, the allocation-free query
// path, the structured trap/unwind frontier, fault escalation on the task
// pool, the two-stage watchdog, and an 8-seed chaos sweep asserting no
// hang, no crash, and either the fault-free results or a typed fault
// diagnostic.
//
//===----------------------------------------------------------------------===//

#include "HeapCount.h"
#include "TestUtil.h"

#include "concurrency/ParallelExec.h"
#include "runtime/RuntimeFault.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

using namespace fearless;
using namespace fearless::testutil;

namespace {

//===----------------------------------------------------------------------===//
// Spec parsing
//===----------------------------------------------------------------------===//

TEST(FaultSpec, ParsesTriggersAndSeed) {
  Expected<FaultPlan> P = parseFaultSpec(
      "chan.send=nth:3,heap.alloc=prob:0.25,sched.step=every:7,seed=42");
  ASSERT_TRUE(P.hasValue()) << (P ? "" : P.error().render());
  EXPECT_EQ(P->Seed, 42u);
  const FaultTrigger &Send =
      P->Triggers[static_cast<size_t>(FaultPoint::ChanSend)];
  EXPECT_EQ(Send.TriggerKind, FaultTrigger::Kind::Nth);
  EXPECT_EQ(Send.N, 3u);
  const FaultTrigger &Alloc =
      P->Triggers[static_cast<size_t>(FaultPoint::HeapAlloc)];
  EXPECT_EQ(Alloc.TriggerKind, FaultTrigger::Kind::Probability);
  EXPECT_DOUBLE_EQ(Alloc.Probability, 0.25);
  const FaultTrigger &Step =
      P->Triggers[static_cast<size_t>(FaultPoint::SchedStep)];
  EXPECT_EQ(Step.TriggerKind, FaultTrigger::Kind::EveryK);
  EXPECT_EQ(Step.N, 7u);
  // Unmentioned points stay unarmed.
  EXPECT_EQ(P->Triggers[static_cast<size_t>(FaultPoint::ChanRecv)]
                .TriggerKind,
            FaultTrigger::Kind::Never);
  EXPECT_FALSE(P->empty());
}

TEST(FaultSpec, DiagnosesMalformedSpecs) {
  EXPECT_FALSE(parseFaultSpec("bogus.point=nth:1").hasValue());
  EXPECT_FALSE(parseFaultSpec("chan.send").hasValue());
  EXPECT_FALSE(parseFaultSpec("chan.send=sometimes:1").hasValue());
  EXPECT_FALSE(parseFaultSpec("chan.send=nth:0").hasValue());
  EXPECT_FALSE(parseFaultSpec("chan.send=prob:1.5").hasValue());
  EXPECT_FALSE(parseFaultSpec("chan.send=prob:abc").hasValue());
  EXPECT_FALSE(parseFaultSpec("seed=notanumber").hasValue());
  // Empty entries (trailing commas, empty spec) are tolerated: they
  // parse to an empty plan, not an error.
  Expected<FaultPlan> Empty = parseFaultSpec(",");
  ASSERT_TRUE(Empty.hasValue());
  EXPECT_TRUE(Empty->empty());
}

TEST(FaultSpec, PointNamesRoundTrip) {
  for (size_t I = 0; I < NumFaultPoints; ++I) {
    FaultPoint P = static_cast<FaultPoint>(I);
    FaultPoint Back;
    ASSERT_TRUE(faultPointByName(faultPointName(P), Back))
        << faultPointName(P);
    EXPECT_EQ(Back, P);
  }
  FaultPoint Dummy;
  EXPECT_FALSE(faultPointByName("chan.sned", Dummy));
}

TEST(FaultSpec, FromEnvHonorsAndDiagnosesVariable) {
  ::setenv("FEARLESS_FAULTS", "thread.start=nth:2,seed=9", 1);
  std::string Error;
  std::unique_ptr<FaultInjector> FI = FaultInjector::fromEnv(&Error);
  ASSERT_NE(FI, nullptr) << Error;
  EXPECT_EQ(FI->plan().Seed, 9u);

  ::setenv("FEARLESS_FAULTS", "nope=nth:1", 1);
  FI = FaultInjector::fromEnv(&Error);
  EXPECT_EQ(FI, nullptr);
  EXPECT_FALSE(Error.empty());

  ::unsetenv("FEARLESS_FAULTS");
  Error.clear();
  EXPECT_EQ(FaultInjector::fromEnv(&Error), nullptr);
  EXPECT_TRUE(Error.empty());
}

//===----------------------------------------------------------------------===//
// Trigger semantics
//===----------------------------------------------------------------------===//

TEST(FaultInjectorTest, NthFiresExactlyOnce) {
  FaultPlan Plan;
  Plan.Triggers[static_cast<size_t>(FaultPoint::ChanSend)] =
      FaultTrigger{FaultTrigger::Kind::Nth, 3, 0};
  FaultInjector FI(Plan);
  int Fired = 0;
  for (int I = 0; I < 10; ++I)
    if (FI.shouldFire(FaultPoint::ChanSend)) {
      ++Fired;
      EXPECT_EQ(FI.occurrences(FaultPoint::ChanSend), 3u);
    }
  EXPECT_EQ(Fired, 1);
  EXPECT_EQ(FI.fired(FaultPoint::ChanSend), 1u);
  EXPECT_EQ(FI.occurrences(FaultPoint::ChanSend), 10u);
  EXPECT_EQ(FI.totalFired(), 1u);
}

TEST(FaultInjectorTest, EveryKFiresPeriodically) {
  FaultPlan Plan;
  Plan.Triggers[static_cast<size_t>(FaultPoint::HeapAlloc)] =
      FaultTrigger{FaultTrigger::Kind::EveryK, 4, 0};
  FaultInjector FI(Plan);
  int Fired = 0;
  for (int I = 0; I < 20; ++I)
    Fired += FI.shouldFire(FaultPoint::HeapAlloc) ? 1 : 0;
  EXPECT_EQ(Fired, 5);
}

TEST(FaultInjectorTest, ProbabilityIsSeededAndDeterministic) {
  FaultPlan Plan;
  Plan.Seed = 1234;
  Plan.Triggers[static_cast<size_t>(FaultPoint::SchedStep)] =
      FaultTrigger{FaultTrigger::Kind::Probability, 0, 0.5};
  auto Sequence = [](const FaultPlan &P) {
    FaultInjector FI(P);
    std::vector<bool> Out;
    for (int I = 0; I < 256; ++I)
      Out.push_back(FI.shouldFire(FaultPoint::SchedStep));
    return Out;
  };
  std::vector<bool> A = Sequence(Plan);
  std::vector<bool> B = Sequence(Plan);
  EXPECT_EQ(A, B); // same plan, same schedule
  FaultPlan Other = Plan;
  Other.Seed = 99;
  EXPECT_NE(A, Sequence(Other)); // seed actually feeds the decision
  // p = 0.5 over 256 draws: a grossly lopsided count means the hash is
  // broken, not unlucky.
  size_t Fired = 0;
  for (bool F : A)
    Fired += F;
  EXPECT_GT(Fired, 64u);
  EXPECT_LT(Fired, 192u);
}

TEST(FaultInjectorTest, QueryPathIsAllocationFree) {
  FaultPlan Plan;
  Plan.Seed = 7;
  Plan.Triggers[static_cast<size_t>(FaultPoint::ChanSend)] =
      FaultTrigger{FaultTrigger::Kind::Nth, 1'000'000, 0};
  Plan.Triggers[static_cast<size_t>(FaultPoint::HeapAlloc)] =
      FaultTrigger{FaultTrigger::Kind::Probability, 0, 0.0};
  FaultInjector FI(Plan);
  uint64_t Before = heapAllocs();
  for (int I = 0; I < 10'000; ++I) {
    // Armed (counting) points and unarmed points both stay on the
    // no-allocation fast path; Trace.h discipline.
    (void)FI.shouldFire(FaultPoint::ChanSend);
    (void)FI.shouldFire(FaultPoint::HeapAlloc);
    (void)FI.shouldFire(FaultPoint::ChanRecv);
  }
  EXPECT_EQ(heapAllocs() - Before, 0u);
}

//===----------------------------------------------------------------------===//
// Structured runtime faults (the trap path)
//===----------------------------------------------------------------------===//

TEST(RuntimeFaultTest, RendersKindLocationAndThread) {
  RuntimeFault F;
  F.Kind = RuntimeFaultKind::InvalidFieldAccess;
  F.Location = Loc{17};
  F.Detail = 3;
  F.Thread = 2;
  std::string R = F.render();
  EXPECT_NE(R.find("invalid field access"), std::string::npos) << R;
  EXPECT_NE(R.find("17"), std::string::npos) << R;
  EXPECT_NE(R.find("thread 2"), std::string::npos) << R;
}

TEST(RuntimeFaultTest, ReleaseBuildThrowsTypedFaultOnBadHeapAccess) {
#ifndef NDEBUG
  GTEST_SKIP() << "debug builds keep the loud abort on memory-safety "
                  "traps";
#else
  Pipeline P = mustCompile(programs::SllSuite);
  Heap H(P.Checked.Structs);
  Loc L = H.allocate(sym(P, "data"));
  ASSERT_TRUE(L.isValid());
  // Out-of-range location.
  bool Caught = false;
  try {
    (void)H.get(Loc{L.Index + 100});
  } catch (const RuntimeFaultError &E) {
    Caught = true;
    EXPECT_EQ(E.Fault.Kind, RuntimeFaultKind::InvalidHeapAccess);
  }
  EXPECT_TRUE(Caught);
  // Out-of-range field index on a live object.
  Caught = false;
  try {
    (void)H.getField(L, 99);
  } catch (const RuntimeFaultError &E) {
    Caught = true;
    EXPECT_EQ(E.Fault.Kind, RuntimeFaultKind::InvalidFieldAccess);
    EXPECT_EQ(E.Fault.Detail, 99u);
  }
  EXPECT_TRUE(Caught);
#endif
}

//===----------------------------------------------------------------------===//
// Machine under injection: typed failure, no crash
//===----------------------------------------------------------------------===//

TEST(MachineFaults, InjectedSendFaultFailsRunWithTypedFault) {
  Pipeline P = mustCompile(programs::MessagePassing);
  FaultPlan Plan = *parseFaultSpec("chan.send=nth:3");
  FaultInjector FI(Plan);
  MachineOptions MO;
  MO.Faults = &FI;
  Machine M(P.Checked, MO);
  M.spawn(sym(P, "producer"), {Value::intVal(10)});
  M.spawn(sym(P, "consumer"), {Value::intVal(10)});
  Expected<MachineSummary> R = M.run();
  ASSERT_FALSE(R.hasValue());
  ASSERT_TRUE(M.lastFault().has_value());
  EXPECT_EQ(M.lastFault()->Kind, RuntimeFaultKind::Injected);
  EXPECT_EQ(M.lastFault()->Detail,
            static_cast<uint32_t>(FaultPoint::ChanSend));
  EXPECT_NE(R.error().Message.find("chan.send"), std::string::npos)
      << R.error().Message;
  EXPECT_EQ(M.metrics().FaultsInjected, 1u);
}

TEST(MachineFaults, InjectedSchedAndStartFaultsAreTyped) {
  for (const char *Spec : {"sched.step=nth:5", "thread.start=nth:1"}) {
    Pipeline P = mustCompile(programs::MessagePassing);
    FaultPlan Plan = *parseFaultSpec(Spec);
    FaultInjector FI(Plan);
    MachineOptions MO;
    MO.Faults = &FI;
    Machine M(P.Checked, MO);
    M.spawn(sym(P, "producer"), {Value::intVal(4)});
    M.spawn(sym(P, "consumer"), {Value::intVal(4)});
    Expected<MachineSummary> R = M.run();
    ASSERT_FALSE(R.hasValue()) << Spec;
    ASSERT_TRUE(M.lastFault().has_value()) << Spec;
    EXPECT_EQ(M.lastFault()->Kind, RuntimeFaultKind::Injected) << Spec;
  }
}

TEST(MachineFaults, DisabledInjectorChangesNothing) {
  // A run with no injector and a run with an all-Never plan agree with
  // the plain baseline — the disabled path really is inert.
  Pipeline P = mustCompile(programs::MessagePassing);
  auto Run = [&](FaultInjector *FI) {
    MachineOptions MO;
    MO.Faults = FI;
    Machine M(P.Checked, MO);
    M.spawn(sym(P, "producer"), {Value::intVal(10)});
    M.spawn(sym(P, "consumer"), {Value::intVal(10)});
    Expected<MachineSummary> R = M.run(3);
    EXPECT_TRUE(R.hasValue());
    return R->ThreadResults[1];
  };
  FaultPlan Empty;
  FaultInjector Inert(Empty);
  EXPECT_EQ(Run(nullptr), Value::intVal(45));
  EXPECT_EQ(Run(&Inert), Value::intVal(45));
  EXPECT_EQ(Inert.totalFired(), 0u);
}

TEST(MachineFaults, TracedRunMatchesUntracedUnderFaults) {
  // Tracing must not perturb the fault schedule: same plan, same machine
  // seed — identical outcome and identical fault, traced or not.
  Pipeline P = mustCompile(programs::MessagePassing);
  // The bytecode `fearlessc run` uses.
  const vm::CompiledProgram Code = shippedBytecode(P);
  auto Run = [&](TraceSession *Trace, RuntimeFault &FaultOut) {
    FaultPlan Plan = *parseFaultSpec("chan.recv=nth:2,seed=5");
    FaultInjector FI(Plan);
    MachineOptions MO;
    MO.Faults = &FI;
    MO.Trace = Trace;
    MO.VmCode = &Code;
    Machine M(P.Checked, MO);
    M.spawn(sym(P, "producer"), {Value::intVal(6)});
    M.spawn(sym(P, "consumer"), {Value::intVal(6)});
    Expected<MachineSummary> R = M.run(11);
    EXPECT_FALSE(R.hasValue());
    EXPECT_TRUE(M.lastFault().has_value());
    if (M.lastFault())
      FaultOut = *M.lastFault();
    return R ? "" : R.error().Message;
  };
  TraceSession Trace;
  RuntimeFault Traced, Untraced;
  std::string MsgTraced = Run(&Trace, Traced);
  std::string MsgUntraced = Run(nullptr, Untraced);
  EXPECT_EQ(MsgTraced, MsgUntraced);
  EXPECT_EQ(Traced.Kind, Untraced.Kind);
  EXPECT_EQ(Traced.Thread, Untraced.Thread);
  // The trapped fault is visible in the trace.
  EXPECT_NE(Trace.toChromeJson().find("fault.trapped"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Fault escalation on the task pool (ParallelExec)
//===----------------------------------------------------------------------===//

TEST(PoolFaults, InjectedFaultAbortsRunAsEscalatedFault) {
  // A thread dies to the injected fault — before its first step, or at
  // its second send after one value already went out: the run fails with
  // the typed diagnostic, the peer is cancelled by the abort, and the
  // death counts (and traces) as one escalated fault.
  Pipeline P = mustCompile(programs::MessagePassing);
  for (const char *Spec : {"thread.start=nth:1", "chan.send=nth:2"}) {
    for (size_t Workers : {size_t(1), size_t(2)}) {
      SCOPED_TRACE(std::string(Spec) + ", " + std::to_string(Workers) +
                   " workers");
      FaultPlan Plan = *parseFaultSpec(Spec);
      FaultInjector FI(Plan);
      TraceSession Trace;
      ParallelExecOptions O;
      O.Faults = &FI;
      O.Trace = &Trace;
      O.NumWorkers = Workers;
      O.WatchdogMillis = 10'000;
      ParallelExec Exec(P.Checked, O);
      Exec.spawn(sym(P, "producer"), {Value::intVal(10)});
      Exec.spawn(sym(P, "consumer"), {Value::intVal(10)});
      Expected<std::vector<Value>> R = Exec.run();
      ASSERT_FALSE(R.hasValue());
      std::string Point(Spec, std::string(Spec).find('='));
      EXPECT_NE(R.error().Message.find("injected fault at " + Point),
                std::string::npos)
          << R.error().Message;
      const RuntimeMetrics &M = Exec.metrics();
      EXPECT_EQ(M.FaultsInjected, 1u);
      EXPECT_EQ(M.FaultsEscalated, 1u);
      EXPECT_EQ(M.ThreadsErrored, 1u);
      EXPECT_EQ(M.ThreadsCancelled, 1u);
      EXPECT_NE(Trace.toChromeJson().find("fault.escalated"),
                std::string::npos);
    }
  }
}

TEST(PoolFaults, PlainProgramErrorIsNotAnEscalatedFault) {
  // Division by zero is a program bug, not a structured fault: the run
  // fails, but faults_escalated stays 0 (the CLI exits 1, not 5).
  std::string Source = std::string(programs::MessagePassing) + R"prog(
def crash(a : int) : int { 10 / a }
)prog";
  Pipeline P = mustCompile(Source);
  ParallelExec Exec(P.Checked);
  Exec.spawn(sym(P, "crash"), {Value::intVal(0)});
  Expected<std::vector<Value>> R = Exec.run();
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().Message.find("division by zero"),
            std::string::npos);
  EXPECT_EQ(Exec.metrics().ThreadsErrored, 1u);
  EXPECT_EQ(Exec.metrics().FaultsEscalated, 0u);
}

//===----------------------------------------------------------------------===//
// Watchdog escalation
//===----------------------------------------------------------------------===//

TEST(Watchdog, FiresWhileAThreadIsBlockedMidRecv) {
  // A spinner burns the budget while a consumer sits blocked in recv:
  // the watchdog must fire, soft-cancel (waking the blocked receiver via
  // channel closure), then hard-abort the spinner. Both the metric and
  // the trace instant record the firing.
  std::string Source = std::string(programs::MessagePassing) + R"prog(
def spin() : int {
  let i = 0;
  while (i < 1) { i = i - 1 };
  i
}
)prog";
  Pipeline P = mustCompile(Source);
  TraceSession Trace;
  ParallelExecOptions O;
  O.WatchdogMillis = 100; // then the 50 ms soft-cancel grace
  O.Trace = &Trace;
  ParallelExec Exec(P.Checked, O);
  Exec.spawn(sym(P, "spin"));
  Exec.spawn(sym(P, "consumer"), {Value::intVal(1)}); // blocked in recv
  Expected<std::vector<Value>> R = Exec.run();
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().Message.find("watchdog"), std::string::npos);
  EXPECT_EQ(Exec.metrics().WatchdogFired, 1u);
  EXPECT_EQ(Exec.metrics().ThreadsCancelled, 2u);
  std::string Json = Trace.toChromeJson();
  EXPECT_NE(Json.find("watchdog.fired"), std::string::npos);
  EXPECT_NE(Json.find("watchdog.soft_cancel"), std::string::npos);
  EXPECT_NE(Json.find("\"grace_ms\":50"), std::string::npos);
  EXPECT_NE(Json.find("watchdog.hard_abort"), std::string::npos);
}

TEST(Watchdog, DoesNotFireJustUnderBudget) {
  // The same pipeline workload finishing well inside a generous budget:
  // no firing, no watchdog instants in the trace.
  Pipeline P = mustCompile(programs::MessagePassing);
  TraceSession Trace;
  ParallelExecOptions O;
  O.WatchdogMillis = 30'000;
  O.Trace = &Trace;
  ParallelExec Exec(P.Checked, O);
  Exec.spawn(sym(P, "producer"), {Value::intVal(20)});
  Exec.spawn(sym(P, "consumer"), {Value::intVal(20)});
  Expected<std::vector<Value>> R = Exec.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  EXPECT_EQ(Exec.metrics().WatchdogFired, 0u);
  EXPECT_EQ(Trace.toChromeJson().find("watchdog.fired"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Shutdown regression: channels born after abortAll
//===----------------------------------------------------------------------===//

TEST(Shutdown, ChannelCreatedAfterAbortIsBornAborted) {
  // Regression: a channel materialized after abortAll() must be born in
  // the aborted state — recv returns immediately (no park), send drops.
  ChannelSet S;
  S.registerThreads(2);
  EXPECT_EQ(S.abortAll(), nullptr);
  Value V = Value::intVal(7);
  ChannelWaiter W, *Woken = nullptr;
  // Created post-abort: recv never parks.
  EXPECT_EQ(S.recvOrPark(Type::intTy(), V, W, Woken), RecvResult::Aborted);
  EXPECT_EQ(Woken, nullptr);
  EXPECT_EQ(S.send(Type::intTy(), Value::intVal(1)), nullptr); // dropped
  EXPECT_EQ(S.depth(Type::intTy()), 0u);
  EXPECT_EQ(S.recvOrPark(Type::intTy(), V, W, Woken), RecvResult::Aborted);
  EXPECT_EQ(V, Value::intVal(7));
  RuntimeMetrics M;
  S.collectMetrics(M);
  EXPECT_EQ(M.ChannelsCreated, 1u);
  EXPECT_EQ(M.ChannelSends, 0u); // nothing was queued
  EXPECT_EQ(M.ChannelPeakDepth, 0u);
  EXPECT_EQ(M.ChannelDroppedValues, 1u);
}

//===----------------------------------------------------------------------===//
// Chaos sweep: seeds x fault plans, no hangs, every thread accounted for,
// fault-free results or a typed fault diagnostic
//===----------------------------------------------------------------------===//

TEST(Chaos, SeededSweepNeverHangsAndEndsInResultsOrTypedFault) {
  Pipeline P = mustCompile(programs::MessagePassing);
  constexpr int64_t Count = 10;
  const Value Expected0 = Value::unitVal();
  const Value Expected1 = Value::intVal(45); // sum 0..9
  int Clean = 0, Aborted = 0;
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    // Mixed plan per seed: start faults, a step fault whose position
    // shifts with the seed, and a seeded low-probability allocation
    // fault.
    std::string Spec = "thread.start=prob:0.3,sched.step=nth:" +
                       std::to_string(Seed * 9) +
                       ",heap.alloc=prob:0.01,seed=" +
                       std::to_string(Seed);
    Expected<FaultPlan> Plan = parseFaultSpec(Spec);
    ASSERT_TRUE(Plan.hasValue()) << Spec;
    FaultInjector FI(*Plan);
    ParallelExecOptions O;
    O.Faults = &FI;
    // Safety net only: turns a protocol hang into a test failure.
    O.WatchdogMillis = 30'000;
    ParallelExec Exec(P.Checked, O);
    Exec.spawn(sym(P, "producer"), {Value::intVal(Count)});
    Exec.spawn(sym(P, "consumer"), {Value::intVal(Count)});
    Expected<std::vector<Value>> R = Exec.run();
    const RuntimeMetrics &M = Exec.metrics();
    // No hang: the watchdog never had to step in.
    EXPECT_EQ(M.WatchdogFired, 0u) << "seed " << Seed;
    // Every thread is accounted for: finished, cancelled, or errored.
    EXPECT_EQ(M.ThreadsFinished + M.ThreadsCancelled + M.ThreadsErrored,
              2u)
        << "seed " << Seed;
    if (R.hasValue()) {
      // No fault fired: the results must be *exactly* the fault-free
      // results, and the channels must have fully drained.
      EXPECT_EQ(M.FaultsEscalated, 0u) << "seed " << Seed;
      EXPECT_EQ((*R)[0], Expected0) << "seed " << Seed;
      EXPECT_EQ((*R)[1], Expected1) << "seed " << Seed;
      EXPECT_EQ(M.ChannelSends, M.ChannelRecvs) << "seed " << Seed;
      ++Clean;
    } else {
      // An aborted run names the injected fault that killed it, and
      // that death is counted as escalated.
      EXPECT_NE(R.error().Message.find("injected fault at "),
                std::string::npos)
          << "seed " << Seed << ": " << R.error().Message;
      EXPECT_GE(M.FaultsInjected, 1u) << "seed " << Seed;
      EXPECT_GE(M.FaultsEscalated, 1u) << "seed " << Seed;
      ++Aborted;
    }
  }
  // Whether any fault fires is a function of the plan alone (the
  // occurrence counts of a fault-free run do not depend on the
  // schedule), so the sweep deterministically exercises both branches.
  EXPECT_GE(Clean, 1);
  EXPECT_GE(Aborted, 1);
}

} // namespace
