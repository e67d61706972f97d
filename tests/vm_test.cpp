//===- tests/vm_test.cpp --------------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// The register bytecode VM (vm/Compiler.h, vm/Vm.h) against the
// outcomes of its former differential oracle, the tree-walking
// interpreter, recorded in tests/fixtures/vm_reference_outcomes.txt.
// Checked and erased bytecode must reproduce them exactly: same results,
// same error messages, same counters, same per-thread trace events, same
// fault points — over the example programs, the embedded sample suites,
// host-built graphs, paired communication and fault injection. Erased
// codegen (the Theorem 6.1/6.2 payoff) must additionally retire zero
// dynamic reservation checks, scheduler sweeps must match the checked
// machine, and the steady-state dispatch loop must not allocate.
//
//===----------------------------------------------------------------------===//

#include "HeapCount.h"
#include "TestUtil.h"

#include "analysis/StaticDisconnect.h"
#include "concurrency/ParallelExec.h"
#include "server/Json.h"
#include "support/FaultInjector.h"
#include "support/Trace.h"
#include "vm/Compiler.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace fearless;
using namespace fearless::testutil;

namespace {

/// Lowers a checked program to bytecode, failing the test on error. The
/// cross-check flag keeps every elided `if disconnected` honest against
/// the real traversal.
vm::CompiledProgram mustCompileVm(Pipeline &P, bool EmitChecks,
                                  const DisconnectVerdictTable *V =
                                      nullptr) {
  vm::CompileOptions VO;
  VO.EmitChecks = EmitChecks;
  VO.Verdicts = V;
  VO.CrossCheckElision = true;
  Expected<vm::CompiledProgram> C = vm::compileProgram(P.Checked, VO);
  EXPECT_TRUE(C.hasValue()) << (C ? "" : C.error().render());
  return C ? std::move(*C) : vm::CompiledProgram{};
}

/// Machine options that run \p Code, or the machine's own checked
/// lowering when it is null, with reservation checks matching its mode.
MachineOptions runOptions(const vm::CompiledProgram *Code) {
  MachineOptions MO;
  MO.VmCode = Code;
  MO.CheckReservations = !Code || Code->Checked;
  return MO;
}

/// One engine run over a Machine: results on success, the exact error
/// message on failure, and the aggregated counters and per-thread trace
/// event names either way.
struct Outcome {
  bool Ok = false;
  std::vector<Value> Results;
  std::string Error;
  RuntimeMetrics Metrics;
  /// Trace lane (tid) → event names in order, without the VM's progress
  /// events (`vm.dispatch`).
  std::map<int64_t, std::vector<std::string>> Events;
};

using Setup = std::function<void(Pipeline &, Machine &)>;

std::map<int64_t, std::vector<std::string>>
eventsByLane(const TraceSession &Trace) {
  std::map<int64_t, std::vector<std::string>> Lanes;
  Expected<server::Json> Doc = server::parseJson(Trace.toChromeJson());
  EXPECT_TRUE(Doc.hasValue());
  if (!Doc)
    return Lanes;
  for (const server::Json &E : Doc->find("traceEvents")->items()) {
    std::string Name = E.getString("name", "");
    if (E.getString("ph", "") == "M" || Name == "vm.dispatch")
      continue;
    Lanes[E.getInt("tid", -1)].push_back(Name);
  }
  return Lanes;
}

/// Runs with tracing on; a null \p Code lets the machine lower the
/// program itself (checked, no verdicts).
Outcome runMachine(Pipeline &P, const vm::CompiledProgram *Code,
                   const Setup &S, uint64_t Seed = 0) {
  TraceSession Trace;
  MachineOptions MO = runOptions(Code);
  MO.Trace = &Trace;
  Machine M(P.Checked, MO);
  S(P, M);
  Expected<MachineSummary> R = M.run(Seed);
  Outcome O;
  O.Metrics = M.metrics();
  if (R) {
    O.Ok = true;
    O.Results = R->ThreadResults;
  } else {
    O.Error = R.error().Message;
  }
  EXPECT_EQ(Trace.droppedEvents(), 0u);
  O.Events = eventsByLane(Trace);
  return O;
}

/// One recorded reference outcome (see the fixture's header).
struct Reference {
  bool Ok = false;
  std::vector<std::string> Results;
  std::string Error;
  std::map<std::string, uint64_t> Counters;
  std::map<int64_t, std::vector<std::string>> Events;
};

/// The fixture, parsed once; a malformed record fails the test.
const std::map<std::string, Reference> &references() {
  static const std::map<std::string, Reference> Cases = [] {
    std::map<std::string, Reference> Out;
    std::ifstream In(FEARLESS_FIXTURES_DIR "/vm_reference_outcomes.txt");
    EXPECT_TRUE(In.good()) << "missing vm_reference_outcomes.txt";
    std::string Line, Key;
    Reference Cur;
    auto Rest = [&Line](size_t Skip) { return Line.substr(Skip); };
    while (std::getline(In, Line)) {
      if (Line.empty() || Line[0] == '#')
        continue;
      if (Line.rfind("case ", 0) == 0) {
        Key = Rest(5);
        Cur = Reference();
      } else if (Line == "ok" || Line == "failed") {
        Cur.Ok = Line == "ok";
      } else if (Line.rfind("result ", 0) == 0) {
        Cur.Results.push_back(Rest(7));
      } else if (Line.rfind("error ", 0) == 0) {
        for (size_t I = 6; I < Line.size(); ++I) {
          if (Line[I] == '\\' && I + 1 < Line.size()) {
            ++I;
            Cur.Error += Line[I] == 'n' ? '\n' : Line[I];
          } else {
            Cur.Error += Line[I];
          }
        }
      } else if (Line.rfind("counter ", 0) == 0 ||
                 Line.rfind("lane ", 0) == 0) {
        std::istringstream LS(Line);
        std::string Tag, Name;
        LS >> Tag;
        if (Tag == "counter") {
          uint64_t N = 0;
          LS >> Name >> N;
          Cur.Counters[Name] = N;
        } else {
          int64_t Tid = 0;
          LS >> Tid;
          std::vector<std::string> &Lane = Cur.Events[Tid];
          while (LS >> Name)
            Lane.push_back(Name);
        }
      } else if (Line == "end") {
        EXPECT_TRUE(Out.emplace(Key, Cur).second) << "duplicate " << Key;
        Key.clear();
      } else {
        ADD_FAILURE() << "malformed reference line: " << Line;
      }
    }
    EXPECT_TRUE(Key.empty()) << "truncated record " << Key;
    return Out;
  }();
  return Cases;
}

/// Every counter except the ones that measure the engine itself: steps
/// (the VM batches instructions), the VM's instruction, inline-cache and
/// erased-check counts, and wall time. Reservation checks compare only
/// when both runs perform them.
std::map<std::string, uint64_t>
semanticCounters(const RuntimeMetrics &M, bool WithReservationChecks) {
  std::map<std::string, uint64_t> Out;
  M.forEach([&](const char *Key, uint64_t V) {
    std::string K = Key;
    if (K == "steps" || K == "vm_instructions" || K.rfind("ic_", 0) == 0 ||
        K == "checks_erased" || K == "wall_micros" ||
        (K == "reservation_checks" && !WithReservationChecks))
      return;
    Out[K] = V;
  });
  return Out;
}

/// Counters the reference recorded that RuntimeMetrics no longer has:
/// the supervised-restart counters, removed with supervision itself.
/// Every recorded value is 0, which is what a run without restarts
/// reports, so they are held to that instead of to a live counter.
bool isRetiredCounter(const std::string &Name) {
  return Name == "threads_restarted" || Name == "restart_backoff_millis";
}

/// The recorded outcome of case \p Key; fails the test when absent.
const Reference *reference(const std::string &Key) {
  auto It = references().find(Key);
  if (It == references().end()) {
    ADD_FAILURE() << "no reference outcome for " << Key;
    return nullptr;
  }
  return &It->second;
}

/// Asserts the observable equivalence the VM promises against the
/// reference outcome \p Key: identical success/failure, identical
/// results or error text, identical counters (every counter the
/// reference recorded) and identical per-thread trace events.
void expectMatchesReference(const std::string &Key, const Outcome &Vm,
                            bool WithReservationChecks) {
  const Reference *Ref = reference(Key);
  if (!Ref)
    return;
  EXPECT_EQ(Ref->Ok, Vm.Ok) << Key << ": " << Ref->Error << " vs "
                            << Vm.Error;
  if (Ref->Ok && Vm.Ok) {
    ASSERT_EQ(Ref->Results.size(), Vm.Results.size()) << Key;
    for (size_t I = 0; I < Ref->Results.size(); ++I)
      EXPECT_EQ(Ref->Results[I], toString(Vm.Results[I]))
          << Key << ": thread " << I;
  } else {
    EXPECT_EQ(Ref->Error, Vm.Error) << Key;
  }
  std::map<std::string, uint64_t> Counters =
      semanticCounters(Vm.Metrics, WithReservationChecks);
  for (const auto &[Name, N] : Ref->Counters) {
    auto It = Counters.find(Name);
    if (It == Counters.end() && isRetiredCounter(Name)) {
      EXPECT_EQ(N, 0u) << Key << ": retired counter " << Name;
      continue;
    }
    ASSERT_NE(It, Counters.end()) << Key << ": counter " << Name;
    EXPECT_EQ(N, It->second) << Key << ": counter " << Name;
  }
  EXPECT_EQ(Ref->Events, Vm.Events) << Key;
}

/// Runs the checked VM and the erased VM that folded the verdict table
/// over the same spawn set, and requires each to reproduce its
/// reference outcome.
void differential(Pipeline &P, const Setup &S, const std::string &What,
                  uint64_t Seed = 0) {
  AnalysisReport Report = analyzeProgram(P.Checked);
  DisconnectVerdictTable Verdicts = Report.verdictTable();
  vm::CompiledProgram Checked = mustCompileVm(P, /*EmitChecks=*/true);
  vm::CompiledProgram Erased =
      mustCompileVm(P, /*EmitChecks=*/false, &Verdicts);

  Outcome VmChecked = runMachine(P, &Checked, S, Seed);
  Outcome VmErased = runMachine(P, &Erased, S, Seed);
  expectMatchesReference(What + " [checked]", VmChecked,
                         /*WithReservationChecks=*/true);
  expectMatchesReference(What + " [erased]", VmErased,
                         /*WithReservationChecks=*/false);
  // Erasability: the erased build retires no dynamic reservation checks
  // and records what it compiled out.
  EXPECT_EQ(VmErased.Metrics.ReservationChecks, 0u) << What;
  EXPECT_EQ(VmErased.Metrics.ChecksErased, Erased.ChecksErased) << What;
}

//===----------------------------------------------------------------------===//
// Differential: example programs
//===----------------------------------------------------------------------===//

TEST(VmDifferential, ExamplesMatchInterpreter) {
  namespace fs = std::filesystem;
  size_t Ran = 0;
  for (const fs::directory_entry &Entry :
       fs::directory_iterator(FEARLESS_EXAMPLES_DIR)) {
    if (Entry.path().extension() != ".fls")
      continue;
    std::ifstream In(Entry.path(), std::ios::binary);
    std::string Source((std::istreambuf_iterator<char>(In)),
                       std::istreambuf_iterator<char>());
    ASSERT_FALSE(Source.empty()) << Entry.path();
    Expected<Pipeline> P = compile(Source);
    if (!P)
      continue; // deliberately-rejected lint demo (region_lints.fls)
    // Every example must at least lower in both modes.
    (void)mustCompileVm(*P, true);
    (void)mustCompileVm(*P, false);
    if (!P->Prog->findFunction(P->Prog->Names.intern("main")))
      continue; // lint-only example: nothing to run
    std::string Name = Entry.path().filename().string();
    if (!references().count(Name + " [checked]"))
      continue; // added after the reference outcomes were recorded
    differential(*P,
                 [](Pipeline &PL, Machine &M) {
                   M.spawn(sym(PL, "main"));
                 },
                 Name);
    ++Ran;
  }
  // Every recorded example: disconnect_static, dll_remove, msg_pipeline.
  EXPECT_EQ(Ran, 3u);
}

//===----------------------------------------------------------------------===//
// Differential: embedded sample suites, every int-parameter function
//===----------------------------------------------------------------------===//

TEST(VmDifferential, SampleSuiteIntFunctionsSweep) {
  const std::pair<const char *, const char *> Suites[] = {
      {"SllSuite", programs::SllSuite},
      {"DllSuite", programs::DllSuite},
      {"RedBlackTree", programs::RedBlackTree},
      {"BitTrie", programs::BitTrie},
      {"Extras", programs::Extras},
      {"MessagePassing", programs::MessagePassing},
  };
  size_t Swept = 0;
  for (const auto &[SuiteName, Source] : Suites) {
    Pipeline P = mustCompile(Source);
    for (const FnDecl &Fn : P.Prog->Functions) {
      bool AllInt = true;
      for (const ParamDecl &Param : Fn.Params)
        if (Param.ParamType.BaseKind != Type::Base::Int ||
            Param.ParamType.isMaybe())
          AllInt = false;
      if (!AllInt)
        continue;
      std::vector<Value> Args(Fn.Params.size(), Value::intVal(3));
      differential(P,
                   [&](Pipeline &PL, Machine &M) {
                     M.spawn(Fn.Name, Args);
                     (void)PL;
                   },
                   std::string(SuiteName) + "::" +
                       P.Prog->Names.spelling(Fn.Name));
      ++Swept;
    }
  }
  EXPECT_GE(Swept, 10u); // the suites carry plenty of int-only drivers
}

//===----------------------------------------------------------------------===//
// Differential: host-built graphs and paired communication
//===----------------------------------------------------------------------===//

TEST(VmDifferential, HostBuiltSllFunctions) {
  Pipeline P = mustCompile(programs::SllSuite);
  for (const char *Fn : {"length", "sum"}) {
    differential(P,
                 [&](Pipeline &PL, Machine &M) {
                   ThreadId T = M.createThread();
                   Loc List = buildSll(PL, M, T, {5, 6, 7});
                   M.startThread(T, sym(PL, Fn),
                                 {Value::locVal(List)});
                 },
                 std::string("sll::") + Fn);
  }
  // Ground truth, not just engine agreement.
  Outcome Sum = runMachine(P, nullptr, [](Pipeline &PL, Machine &M) {
    ThreadId T = M.createThread();
    Loc List = buildSll(PL, M, T, {5, 6, 7});
    M.startThread(T, sym(PL, "sum"), {Value::locVal(List)});
  });
  ASSERT_TRUE(Sum.Ok) << Sum.Error;
  EXPECT_EQ(Sum.Results[0], Value::intVal(18));
}

TEST(VmDifferential, HostBuiltDllRemoveTail) {
  Pipeline P = mustCompile(programs::DllSuite);
  for (std::vector<int64_t> Values :
       {std::vector<int64_t>{1}, {1, 2}, {1, 2, 3, 4}}) {
    differential(P,
                 [&](Pipeline &PL, Machine &M) {
                   ThreadId T = M.createThread();
                   Loc List = buildDll(PL, M, T, Values);
                   M.startThread(T, sym(PL, "remove_tail"),
                                 {Value::locVal(List)});
                 },
                 "dll::remove_tail/" + std::to_string(Values.size()));
  }
}

TEST(VmDifferential, PairedSendRecvOnTheMachine) {
  Pipeline P = mustCompile(programs::MessagePassing);
  for (uint64_t Seed : {uint64_t(0), uint64_t(42)})
    differential(P,
                 [](Pipeline &PL, Machine &M) {
                   M.spawn(sym(PL, "producer"), {Value::intVal(5)});
                   M.spawn(sym(PL, "consumer"), {Value::intVal(5)});
                 },
                 "message-passing seed " + std::to_string(Seed), Seed);
}

TEST(VmDifferential, RuntimeErrorsMatchWordForWord) {
  Pipeline P = mustCompile(R"(
def boom(n : int) : int { 10 / n }
)");
  vm::CompiledProgram Code = mustCompileVm(P, false);
  Outcome Vm = runMachine(P, &Code, [](Pipeline &PL, Machine &M) {
    M.spawn(sym(PL, "boom"), {Value::intVal(0)});
  });
  ASSERT_FALSE(Vm.Ok);
  const Reference *Ref = reference("boom(0) [error]");
  ASSERT_NE(Ref, nullptr);
  EXPECT_EQ(Ref->Error, Vm.Error);
  EXPECT_NE(Vm.Error.find("division by zero"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Erased codegen: the static verdict folds the branch
//===----------------------------------------------------------------------===//

TEST(VmErasure, MustVerdictsFoldToConstantBranches) {
  Pipeline P = mustCompile(R"(
struct gnode { next : gnode; }
def main() : int {
  let a = new gnode();
  let b = new gnode();
  a.next = b;
  a.next = a;
  if disconnected(a, b) { 1 } else { 0 }
}
)");
  AnalysisReport R = analyzeProgram(P.Checked);
  DisconnectVerdictTable T = R.verdictTable();
  vm::CompiledProgram Erased = mustCompileVm(P, false, &T);
  ASSERT_EQ(Erased.Sites.size(), 1u);
  EXPECT_EQ(Erased.Sites[0].Taken, vm::SiteDecision::Action::FoldedThen);
  EXPECT_GT(Erased.ChecksErased, 0u);

  Outcome O = runMachine(P, &Erased, [](Pipeline &PL, Machine &M) {
    M.spawn(sym(PL, "main"));
  });
  ASSERT_TRUE(O.Ok) << O.Error; // cross-check traversal agreed
  EXPECT_EQ(O.Results[0], Value::intVal(1));
  EXPECT_EQ(O.Metrics.DisconnectElided, 1u);
  EXPECT_EQ(O.Metrics.ReservationChecks, 0u);

  // Without a verdict table the site stays a dynamic traversal.
  vm::CompiledProgram Dynamic = mustCompileVm(P, false);
  ASSERT_EQ(Dynamic.Sites.size(), 1u);
  EXPECT_EQ(Dynamic.Sites[0].Taken, vm::SiteDecision::Action::Dynamic);
  Outcome D = runMachine(P, &Dynamic, [](Pipeline &PL, Machine &M) {
    M.spawn(sym(PL, "main"));
  });
  ASSERT_TRUE(D.Ok) << D.Error;
  EXPECT_EQ(D.Results[0], Value::intVal(1));
  EXPECT_EQ(D.Metrics.DisconnectElided, 0u);
  EXPECT_GT(D.Metrics.DisconnectObjectsVisited, 0u);
}

TEST(VmErasure, DisassemblyNamesTheDecisions) {
  Pipeline P = mustCompile(R"(
struct gnode { next : gnode; }
def main() : int {
  let a = new gnode();
  let b = new gnode();
  a.next = b;
  a.next = a;
  if disconnected(a, b) { 1 } else { 0 }
}
)");
  AnalysisReport R = analyzeProgram(P.Checked);
  DisconnectVerdictTable T = R.verdictTable();

  vm::CompiledProgram Checked = mustCompileVm(P, true, &T);
  std::string Asm = disassemble(Checked, P.Checked);
  EXPECT_NE(Asm.find("mode: checked"), std::string::npos) << Asm;
  EXPECT_NE(Asm.find("chunk main"), std::string::npos) << Asm;
  EXPECT_NE(Asm.find("new_default"), std::string::npos) << Asm;
  EXPECT_NE(Asm.find("disconn.elided"), std::string::npos) << Asm;
  EXPECT_NE(Asm.find("folded to then"), std::string::npos) << Asm;

  vm::CompiledProgram Erased = mustCompileVm(P, false, &T);
  std::string ErasedAsm = disassemble(Erased, P.Checked);
  EXPECT_NE(ErasedAsm.find("mode: erased"), std::string::npos)
      << ErasedAsm;
  EXPECT_EQ(ErasedAsm.find("chk_val"), std::string::npos) << ErasedAsm;
}

//===----------------------------------------------------------------------===//
// Inline caches
//===----------------------------------------------------------------------===//

TEST(VmIc, FieldCachesHitAfterFirstResolution) {
  Pipeline P = mustCompile(programs::SllSuite);
  vm::CompiledProgram Code = mustCompileVm(P, false);
  std::vector<int64_t> Values;
  for (int64_t I = 0; I < 32; ++I)
    Values.push_back(I);
  Outcome O = runMachine(P, &Code, [&](Pipeline &PL, Machine &M) {
    ThreadId T = M.createThread();
    Loc List = buildSll(PL, M, T, Values);
    M.startThread(T, sym(PL, "sum"), {Value::locVal(List)});
  });
  ASSERT_TRUE(O.Ok) << O.Error;
  EXPECT_GE(O.Metrics.IcMisses, 1u);  // cold caches resolve once
  EXPECT_GT(O.Metrics.IcHits, O.Metrics.IcMisses); // then stay hot
  EXPECT_GT(O.Metrics.VmInstructions, 0u);
}

//===----------------------------------------------------------------------===//
// Task scheduler: 8-seed randomized sweep on the VM engine
//===----------------------------------------------------------------------===//

TEST(VmScheduler, SeedSweepMatchesMachineBaseline) {
  Pipeline P = mustCompile(programs::MessagePassing);
  vm::CompiledProgram Code = mustCompileVm(P, false);
  auto Spawn = [&](auto &Exec) {
    for (int I = 0; I < 4; ++I)
      Exec.spawn(sym(P, "producer"), {Value::intVal(3)});
    Exec.spawn(sym(P, "consumer"), {Value::intVal(12)});
  };

  // The baseline: the abstract machine on checked bytecode (its own
  // lowering), every dynamic reservation check on.
  Machine M(P.Checked);
  Spawn(M);
  Expected<MachineSummary> Base = M.run();
  ASSERT_TRUE(Base.hasValue()) << Base.error().render();
  ASSERT_EQ(Base->ThreadResults.size(), 5u);

  for (uint64_t Seed = 0; Seed <= 7; ++Seed) {
    ParallelExecOptions O;
    O.VmCode = &Code;
    O.SchedSeed = Seed;
    O.NumWorkers = 2;
    O.WatchdogMillis = 60'000;
    ParallelExec Exec(P.Checked, O);
    Spawn(Exec);
    Expected<std::vector<Value>> R = Exec.run();
    ASSERT_TRUE(R.hasValue())
        << "seed " << Seed << ": " << (R ? "" : R.error().render());
    EXPECT_EQ(Exec.metrics().WatchdogFired, 0u);
    EXPECT_EQ(*R, Base->ThreadResults) << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Faults on the VM engine
//===----------------------------------------------------------------------===//

TEST(VmFaults, InjectedHeapFaultMatchesInterpreter) {
  // Every fault point the VM owns, each reached exactly once or
  // (heap.alloc) at a fixed occurrence whatever the interleaving, on
  // checked (the machine's own lowering) and erased bytecode.
  Pipeline P = mustCompile(R"(
struct item { value : int; }
struct gnode { next : gnode; }
def producer(n : int) : int {
  let a = new gnode();
  let b = new gnode();
  a.next = b;
  a.next = a;
  let r = if disconnected(a, b) { 1 } else { 0 };
  let d = new item(n) in { send(d) };
  r
}
def consumer() : int {
  let d = recv<item>() in { d.value }
}
)");
  const std::pair<const char *, FaultPoint> Points[] = {
      {"heap.alloc=nth:3,seed=7", FaultPoint::HeapAlloc},
      {"chan.send=nth:1,seed=7", FaultPoint::ChanSend},
      {"chan.recv=nth:1,seed=7", FaultPoint::ChanRecv},
      {"disconnect.traverse=nth:1,seed=7", FaultPoint::DisconnectTraverse},
  };
  vm::CompiledProgram Code = mustCompileVm(P, false);
  for (const auto &[Spec, Point] : Points) {
    auto RunWithFaults = [&](const vm::CompiledProgram *VmCode) {
      FaultPlan Plan = *parseFaultSpec(Spec);
      FaultInjector FI(Plan);
      MachineOptions MO = runOptions(VmCode);
      MO.Faults = &FI;
      Machine M(P.Checked, MO);
      M.spawn(sym(P, "producer"), {Value::intVal(4)});
      M.spawn(sym(P, "consumer"));
      Expected<MachineSummary> R = M.run();
      EXPECT_FALSE(R.hasValue()) << Spec;
      EXPECT_TRUE(M.lastFault().has_value()) << Spec;
      if (M.lastFault()) {
        EXPECT_EQ(M.lastFault()->Kind, RuntimeFaultKind::Injected) << Spec;
        EXPECT_EQ(M.lastFault()->Detail, static_cast<uint32_t>(Point))
            << Spec;
      }
      return R ? std::string() : R.error().Message;
    };
    const Reference *Ref = reference(std::string("fault ") + Spec);
    ASSERT_NE(Ref, nullptr);
    EXPECT_EQ(Ref->Error, RunWithFaults(nullptr)) << Spec;
    EXPECT_EQ(Ref->Error, RunWithFaults(&Code)) << Spec;
  }
}

//===----------------------------------------------------------------------===//
// Steady-state dispatch allocates nothing
//===----------------------------------------------------------------------===//

TEST(VmAlloc, SteadyStateDispatchLoopIsAllocationFree) {
  Pipeline P = mustCompile(R"(
def spin(n : int) : int {
  let i = 0;
  while (i < n) { i = i + 1 };
  i
}
)");
  vm::CompiledProgram Code = mustCompileVm(P, false);
  auto AllocsFor = [&](int64_t N) {
    Machine M(P.Checked, runOptions(&Code));
    M.spawn(sym(P, "spin"), {Value::intVal(N)});
    uint64_t Before = heapAllocs();
    Expected<MachineSummary> R = M.run();
    uint64_t After = heapAllocs();
    EXPECT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
    if (R) {
      EXPECT_EQ(R->ThreadResults[0], Value::intVal(N));
    }
    return After - Before;
  };
  // Differential measurement: quadrupling the iteration count must not
  // change the allocation count at all — the per-run setup (register
  // file, frames) is constant and the loop itself allocates nothing.
  EXPECT_EQ(AllocsFor(4000), AllocsFor(16000));
}

} // namespace
