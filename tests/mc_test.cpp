//===- tests/mc_test.cpp --------------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// The stateless model checker (src/mc/): exhaustive exploration of small
// schedule spaces, DPOR-vs-naive agreement, counterexample schedules
// that replay deterministically (including under fault injection), and
// the schedule file format's corruption diagnostics.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "mc/Dpor.h"
#include "mc/Replay.h"
#include "runtime/Invariants.h"

#include <gtest/gtest.h>

using namespace fearless;
using namespace fearless::testutil;

namespace {

/// Two racing one-shot senders into a non-commutative fold: the result
/// depends on arrival order, which the confluence check must flag.
constexpr const char *RacyFold = R"(
struct item { value : int; }

def feed(v : int) : unit {
  let d = new item(v) in { send(d) }
}

def folder(count : int) : int {
  let total = 0;
  let i = 0;
  while (i < count) {
    let d = recv<item>() in {
      total = total * 10 + d.value
    };
    i = i + 1
  };
  total
}
)";

mc::MachineFactory pipelineFactory(Pipeline &P, int64_t Count) {
  return [&P, Count]() {
    auto M = std::make_unique<Machine>(P.Checked);
    M->spawn(sym(P, "producer"), {Value::intVal(Count)});
    M->spawn(sym(P, "consumer"), {Value::intVal(Count)});
    return M;
  };
}

//===----------------------------------------------------------------------===//
// Exhaustive exploration
//===----------------------------------------------------------------------===//

TEST(Mc, ExhaustiveProducerConsumerPipelineVerifiesClean) {
  // Replaces the old fixed-seed sweep: every schedule in the bounded
  // space, not twelve samples of it. The per-state §6 validator plus the
  // end-state result check run on each one.
  Pipeline P = mustCompile(programs::MessagePassing);
  mc::McOptions Opts;
  Opts.Validate = [&P](const Machine &M) -> std::optional<std::string> {
    if (auto Problem = checkReservationsDisjoint(M))
      return Problem;
    if (!(M.threads()[1].Result == Value::intVal(6)))
      return "consumer result is not 6";
    return std::nullopt;
  };
  Expected<mc::McReport> Rep =
      mc::explore(pipelineFactory(P, 4), Opts);
  ASSERT_TRUE(Rep.hasValue()) << (Rep ? "" : Rep.error().render());
  EXPECT_TRUE(Rep->Complete) << Rep->Clipped;
  EXPECT_FALSE(Rep->Counterexample.has_value())
      << Rep->Counterexample->Reason;
  EXPECT_GE(Rep->SchedulesExplored, 2u);
  EXPECT_EQ(Rep->StatesFingerprinted, Rep->SchedulesExplored);
}

TEST(Mc, DporExploresFarFewerSchedulesThanNaive) {
  // The naive interleaving count grows exponentially with the items
  // sent (about 2^n schedules for n items at VM batch granularity), so
  // naive DFS gets a schedule budget; DPOR exhausts the same space
  // completely within it (about fib(n) schedules). Both find no
  // violations.
  Pipeline P = mustCompile(programs::MessagePassing);
  mc::McOptions Dpor;
  Dpor.MaxSchedules = 500;
  mc::McOptions Naive = Dpor;
  Naive.UseDpor = false;
  Expected<mc::McReport> RD = mc::explore(pipelineFactory(P, 10), Dpor);
  Expected<mc::McReport> RN = mc::explore(pipelineFactory(P, 10), Naive);
  ASSERT_TRUE(RD.hasValue()) << (RD ? "" : RD.error().render());
  ASSERT_TRUE(RN.hasValue()) << (RN ? "" : RN.error().render());
  EXPECT_FALSE(RD->Counterexample.has_value());
  EXPECT_FALSE(RN->Counterexample.has_value());
  // DPOR finishes the whole space; naive burns the entire budget without
  // finishing.
  EXPECT_TRUE(RD->Complete) << RD->Clipped;
  EXPECT_FALSE(RN->Complete);
  EXPECT_LT(RD->SchedulesExplored, RN->SchedulesExplored);
  // Naive mode carries no sleep sets, so nothing is counted as pruned.
  EXPECT_EQ(RN->SchedulesPruned, 0u);
}

TEST(Mc, PreemptionBoundRestrictsTheSpace) {
  Pipeline P = mustCompile(programs::MessagePassing);
  mc::McOptions Unbounded;
  Unbounded.MaxSchedules = 0;
  mc::McOptions Bounded = Unbounded;
  Bounded.PreemptionBound = 0;
  Expected<mc::McReport> RU =
      mc::explore(pipelineFactory(P, 2), Unbounded);
  Expected<mc::McReport> RB =
      mc::explore(pipelineFactory(P, 2), Bounded);
  ASSERT_TRUE(RU.hasValue()) << (RU ? "" : RU.error().render());
  ASSERT_TRUE(RB.hasValue()) << (RB ? "" : RB.error().render());
  EXPECT_FALSE(RB->Counterexample.has_value())
      << RB->Counterexample->Reason;
  EXPECT_LE(RB->SchedulesExplored, RU->SchedulesExplored);
  EXPECT_GE(RB->SchedulesExplored, 1u);
}

//===----------------------------------------------------------------------===//
// Counterexamples
//===----------------------------------------------------------------------===//

TEST(Mc, DeadlockYieldsCounterexampleWithBlockedDump) {
  Pipeline P = mustCompile(programs::MessagePassing);
  mc::MachineFactory Factory = [&P]() {
    auto M = std::make_unique<Machine>(P.Checked);
    M->spawn(sym(P, "consumer"), {Value::intVal(1)}); // no producer
    return M;
  };
  Expected<mc::McReport> Rep = mc::explore(Factory, mc::McOptions{});
  ASSERT_TRUE(Rep.hasValue()) << (Rep ? "" : Rep.error().render());
  ASSERT_TRUE(Rep->Counterexample.has_value());
  const mc::McCounterexample &CE = *Rep->Counterexample;
  EXPECT_NE(CE.Reason.find("deadlock"), std::string::npos) << CE.Reason;
  // Satellite: the per-thread blocked-state dump names the channel op
  // and the rendezvous type.
  EXPECT_NE(CE.Reason.find("blocked in recv<data>"), std::string::npos)
      << CE.Reason;

  // The schedule round-trips through the text format...
  Expected<mc::Schedule> Parsed = mc::Schedule::parse(CE.Sched.render());
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.error().Message;
  EXPECT_EQ(Parsed->Choices, CE.Sched.Choices);

  // ...and replays to the same failure.
  std::unique_ptr<Machine> M = Factory();
  Expected<MachineSummary> R = mc::runSchedule(*M, *Parsed);
  ASSERT_FALSE(R.hasValue());
  EXPECT_EQ(R.error().Message, CE.Reason);
}

TEST(Mc, ScheduleDependentResultYieldsDivergenceCounterexample) {
  Pipeline P = mustCompile(RacyFold);
  mc::MachineFactory Factory = [&P]() {
    auto M = std::make_unique<Machine>(P.Checked);
    M->spawn(sym(P, "folder"), {Value::intVal(2)});
    M->spawn(sym(P, "feed"), {Value::intVal(1)});
    M->spawn(sym(P, "feed"), {Value::intVal(9)});
    return M;
  };
  Expected<mc::McReport> Rep = mc::explore(Factory, mc::McOptions{});
  ASSERT_TRUE(Rep.hasValue()) << (Rep ? "" : Rep.error().render());
  ASSERT_TRUE(Rep->Counterexample.has_value());
  const mc::McCounterexample &CE = *Rep->Counterexample;
  EXPECT_NE(CE.Reason.find("schedule-dependent result"),
            std::string::npos)
      << CE.Reason;

  // The divergent schedule replays cleanly and really does produce a
  // different fold than mc's baseline (first-explored) schedule. An
  // end-state property that always fails hands that baseline back as
  // the counterexample of the first completed schedule.
  mc::McOptions FirstOnly;
  FirstOnly.Validate = [](const Machine &) {
    return std::optional<std::string>("baseline");
  };
  Expected<mc::McReport> Base = mc::explore(Factory, FirstOnly);
  ASSERT_TRUE(Base.hasValue()) << (Base ? "" : Base.error().render());
  ASSERT_TRUE(Base->Counterexample.has_value());
  EXPECT_EQ(Base->SchedulesExplored, 1u);
  std::unique_ptr<Machine> MBase = Factory();
  ASSERT_TRUE(mc::runSchedule(*MBase, Base->Counterexample->Sched)
                  .hasValue());
  std::unique_ptr<Machine> MDiv = Factory();
  Expected<MachineSummary> R = mc::runSchedule(*MDiv, CE.Sched);
  ASSERT_TRUE(R.hasValue()) << R.error().Message;
  EXPECT_NE(MBase->resultFingerprint(), MDiv->resultFingerprint());
}

TEST(Mc, StepValidatorFailureIsACounterexampleNotAnError) {
  Pipeline P = mustCompile(programs::MessagePassing);
  mc::MachineFactory Factory = [&P]() {
    MachineOptions MO;
    MO.StepValidator = [](const Machine &) {
      return std::optional<std::string>("synthetic invariant failure");
    };
    auto M = std::make_unique<Machine>(P.Checked, MO);
    M->spawn(sym(P, "producer"), {Value::intVal(1)});
    M->spawn(sym(P, "consumer"), {Value::intVal(1)});
    return M;
  };
  Expected<mc::McReport> Rep = mc::explore(Factory, mc::McOptions{});
  ASSERT_TRUE(Rep.hasValue()) << (Rep ? "" : Rep.error().render());
  ASSERT_TRUE(Rep->Counterexample.has_value());
  EXPECT_NE(
      Rep->Counterexample->Reason.find("synthetic invariant failure"),
      std::string::npos)
      << Rep->Counterexample->Reason;
}

//===----------------------------------------------------------------------===//
// Replay determinism
//===----------------------------------------------------------------------===//

TEST(Mc, RecordedScheduleReplaysBitIdenticalTwice) {
  Pipeline P = mustCompile(programs::MessagePassing);
  auto Fresh = [&P]() {
    auto M = std::make_unique<Machine>(P.Checked);
    M->spawn(sym(P, "producer"), {Value::intVal(5)});
    M->spawn(sym(P, "consumer"), {Value::intVal(5)});
    return M;
  };
  // Record seed 7's interleaving, then replay it twice from the parsed
  // text form: results, step counts, metrics, and fingerprints must all
  // be byte-identical.
  mc::Schedule Recorded;
  std::unique_ptr<Machine> M0 = Fresh();
  Expected<MachineSummary> R0 = M0->run(7, &Recorded.Choices);
  ASSERT_TRUE(R0.hasValue()) << R0.error().Message;
  // Recording is an observer: the same seed without it picks the same
  // interleaving.
  std::unique_ptr<Machine> Plain = Fresh();
  Expected<MachineSummary> RPlain = Plain->run(7);
  ASSERT_TRUE(RPlain.hasValue()) << RPlain.error().Message;
  EXPECT_EQ(R0->Steps, RPlain->Steps);
  EXPECT_EQ(R0->ThreadResults, RPlain->ThreadResults);
  Expected<mc::Schedule> Reparsed =
      mc::Schedule::parse(Recorded.render());
  ASSERT_TRUE(Reparsed.hasValue()) << Reparsed.error().Message;

  std::unique_ptr<Machine> M1 = Fresh();
  std::unique_ptr<Machine> M2 = Fresh();
  Expected<MachineSummary> R1 = mc::runSchedule(*M1, *Reparsed);
  Expected<MachineSummary> R2 = mc::runSchedule(*M2, *Reparsed);
  ASSERT_TRUE(R1.hasValue()) << R1.error().Message;
  ASSERT_TRUE(R2.hasValue()) << R2.error().Message;
  EXPECT_EQ(R0->Steps, R1->Steps);
  EXPECT_EQ(R1->Steps, R2->Steps);
  ASSERT_EQ(R1->ThreadResults.size(), R2->ThreadResults.size());
  for (size_t I = 0; I < R1->ThreadResults.size(); ++I) {
    EXPECT_TRUE(R0->ThreadResults[I] == R1->ThreadResults[I]);
    EXPECT_TRUE(R1->ThreadResults[I] == R2->ThreadResults[I]);
  }
  EXPECT_EQ(M1->metrics().toJson(), M2->metrics().toJson());
  EXPECT_EQ(M0->metrics().toJson(), M1->metrics().toJson());
  EXPECT_EQ(M1->resultFingerprint(), M2->resultFingerprint());
}

TEST(Mc, ReplayComposesWithFaultInjection) {
  // The same schedule plus the same fault plan (fresh injector each run
  // — its occurrence counters are run-local state) reproduces the same
  // injected failure, bit for bit.
  Pipeline P = mustCompile(programs::MessagePassing);
  Expected<FaultPlan> Plan = parseFaultSpec("chan.send=nth:2");
  ASSERT_TRUE(Plan.hasValue());
  auto Fresh = [&](FaultInjector &FI) {
    MachineOptions MO;
    MO.Faults = &FI;
    auto M = std::make_unique<Machine>(P.Checked, MO);
    M->spawn(sym(P, "producer"), {Value::intVal(3)});
    M->spawn(sym(P, "consumer"), {Value::intVal(3)});
    return M;
  };
  mc::Schedule Recorded;
  FaultInjector FI0(*Plan);
  std::unique_ptr<Machine> M0 = Fresh(FI0);
  Expected<MachineSummary> R0 = M0->run(3, &Recorded.Choices);
  ASSERT_FALSE(R0.hasValue()); // the injected fault killed the run
  ASSERT_TRUE(M0->lastFault().has_value());

  FaultInjector FI1(*Plan), FI2(*Plan);
  std::unique_ptr<Machine> M1 = Fresh(FI1);
  std::unique_ptr<Machine> M2 = Fresh(FI2);
  Expected<MachineSummary> R1 = mc::runSchedule(*M1, Recorded);
  Expected<MachineSummary> R2 = mc::runSchedule(*M2, Recorded);
  ASSERT_FALSE(R1.hasValue());
  ASSERT_FALSE(R2.hasValue());
  EXPECT_EQ(R0.error().Message, R1.error().Message);
  EXPECT_EQ(R1.error().Message, R2.error().Message);
  EXPECT_EQ(M1->metrics().toJson(), M2->metrics().toJson());
}

TEST(Mc, FaultOutcomesAreAllowedNotCounterexamples) {
  // mc composed with --faults explores the interleavings of the fault
  // pattern; the injected fault itself must not read as a violation, and
  // divergence checking is the caller's job to disable.
  Pipeline P = mustCompile(programs::MessagePassing);
  FaultPlan Plan = *parseFaultSpec("chan.send=nth:1");
  std::unique_ptr<FaultInjector> Slot;
  mc::MachineFactory Factory = [&]() {
    Slot = std::make_unique<FaultInjector>(Plan);
    MachineOptions MO;
    MO.Faults = Slot.get();
    auto M = std::make_unique<Machine>(P.Checked, MO);
    M->spawn(sym(P, "producer"), {Value::intVal(2)});
    M->spawn(sym(P, "consumer"), {Value::intVal(2)});
    return M;
  };
  mc::McOptions Opts;
  Opts.CheckDivergence = false;
  Expected<mc::McReport> Rep = mc::explore(Factory, Opts);
  ASSERT_TRUE(Rep.hasValue()) << (Rep ? "" : Rep.error().render());
  EXPECT_FALSE(Rep->Counterexample.has_value())
      << Rep->Counterexample->Reason;
  EXPECT_GE(Rep->SchedulesExplored, 1u);
}

//===----------------------------------------------------------------------===//
// Schedule file diagnostics
//===----------------------------------------------------------------------===//

TEST(Mc, CorruptScheduleFilesDiagnoseCleanly) {
  auto ErrorOf = [](std::string_view Text) {
    Expected<mc::Schedule> S = mc::Schedule::parse(Text);
    EXPECT_FALSE(S.hasValue());
    return S.hasValue() ? std::string() : S.error().Message;
  };
  EXPECT_NE(ErrorOf("bogus\n").find("missing 'fearless-schedule-v1'"),
            std::string::npos);
  EXPECT_NE(ErrorOf("fearless-schedule-v1\nnonsense\n")
                .find("expected 'choices <count>'"),
            std::string::npos);
  EXPECT_NE(ErrorOf("fearless-schedule-v1\nchoices two\n")
                .find("malformed choice count"),
            std::string::npos);
  // Truncated mid-list: declared three, found one.
  std::string Truncated = ErrorOf("fearless-schedule-v1\nchoices 3\nt 0\n");
  EXPECT_NE(Truncated.find("truncated"), std::string::npos) << Truncated;
  EXPECT_NE(Truncated.find("declared 3"), std::string::npos);
  // Cut off before the end trailer.
  EXPECT_NE(ErrorOf("fearless-schedule-v1\nchoices 1\nt 0\n")
                .find("missing 'end' trailer"),
            std::string::npos);
  EXPECT_NE(ErrorOf("fearless-schedule-v1\nchoices 0\nend\nextra\n")
                .find("trailing content"),
            std::string::npos);
  EXPECT_NE(ErrorOf("fearless-schedule-v1\nchoices 1\nt x\nend\n")
                .find("malformed thread id"),
            std::string::npos);
  // Line numbers point at the offending line.
  EXPECT_NE(ErrorOf("fearless-schedule-v1\nchoices two\n").find("line 2"),
            std::string::npos);
}

TEST(Mc, MismatchedScheduleDiagnosesCleanly) {
  Pipeline P = mustCompile(programs::MessagePassing);
  auto Fresh = [&P]() {
    auto M = std::make_unique<Machine>(P.Checked);
    M->spawn(sym(P, "producer"), {Value::intVal(2)});
    M->spawn(sym(P, "consumer"), {Value::intVal(2)});
    return M;
  };
  // An empty schedule runs out at the first branching point.
  std::unique_ptr<Machine> M1 = Fresh();
  Expected<MachineSummary> R1 = mc::runSchedule(*M1, mc::Schedule{});
  ASSERT_FALSE(R1.hasValue());
  EXPECT_NE(R1.error().Message.find("schedule exhausted"),
            std::string::npos)
      << R1.error().Message;
  // A choice naming a thread that is not runnable.
  mc::Schedule Bad;
  Bad.Choices = {7};
  std::unique_ptr<Machine> M2 = Fresh();
  Expected<MachineSummary> R2 = mc::runSchedule(*M2, Bad);
  ASSERT_FALSE(R2.hasValue());
  EXPECT_NE(R2.error().Message.find("not runnable"), std::string::npos)
      << R2.error().Message;
}

} // namespace
