//===- tools/fearlessc.cpp - Command-line driver ---------------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// fearlessc — check, inspect, analyze, and run surface-language programs.
//
//   fearlessc check file.fls            parse + region-check + verify
//   fearlessc analyze file.fls          static region-graph analysis:
//                                       per-site disconnect verdicts and
//                                       region lints (--samples analyzes
//                                       every embedded sample instead)
//   fearlessc run file.fls main [ints]  check, then run main(ints...)
//   fearlessc mc file.fls [fn [ints]]   model-check the bounded schedule
//                                       space of fn (default main) plus
//                                       every --spawn thread: DFS over
//                                       scheduler choices with DPOR +
//                                       sleep-set pruning; a property
//                                       violation exits 7 and writes a
//                                       replayable counterexample
//                                       schedule (docs/MODELCHECK.md)
//   fearlessc disasm file.fls           print the compiled bytecode:
//                                       chunks, constant pools, and the
//                                       per-site check/erased decisions
//   fearlessc sig file.fls              print every elaborated signature
//   fearlessc derive file.fls fn        print fn's typing derivation
//   fearlessc sample NAME               print an embedded sample program
//                                       (sll | dll | rbtree | message)
//   fearlessc metrics                   (--daemon only) daemon metrics
//   fearlessc shutdown                  (--daemon only) drain the daemon
//
// The pipeline and the request handler live in driver/CompilePipeline.h;
// this file is argument parsing plus printing. check, analyze and run
// become one Request value, served here by serveRequest or, with
// --daemon SOCKET, sent to a fearlessd instance over fearless-wire-v1
// (docs/SERVER.md), which serves it with the same handler: the output is
// bit-identical, and warm submissions skip parse/check/analyze/compile
// via the daemon's derivation cache.
//
// Options: --interprocedural[=on|off] (bottom-up function summaries at
// call sites, on by default; off restores pure signature havoc), --json
// (machine-readable analyze output, schema "fearless-analysis-v1"),
// --summaries (append the per-function summary dump to the analyze
// report), --werror (lint diagnostics fail the analyze with the check
// exit code), --no-oracle (naive unification search), --seed N (schedule),
// --no-checks (erase dynamic reservation checks),
// --no-elide (keep the dynamic traversal even for statically proven
// disconnect sites),
// --stats, --metrics (runtime metrics as one JSON line on stdout),
// --trace FILE (Chrome trace_event JSON for Perfetto/chrome://tracing;
// composes with --metrics), --faults SPEC (deterministic fault
// injection, e.g. "chan.send=nth:3,seed=7"; the FEARLESS_FAULTS env var
// is the no-flag fallback — see docs/OBSERVABILITY.md),
// --daemon SOCKET (serve the command through a fearlessd instance),
// --spawn FN[:ints] (extra root thread for machine-mode run/mc,
// repeatable), --schedule FILE (replay a recorded schedule), and the mc
// budgets --mc-depth N, --mc-schedules N, --mc-preemptions N,
// --mc-checks=on|off, --mc-dpor=on|off, --mc-out FILE. Programs run as
// register bytecode.
//
// Every integer, positional or flag value, must parse in full, and an
// unknown `--flag` is a usage error: a typo never silently becomes a
// different run.
//
// Exit codes are distinct per failure class so scripts need not parse
// messages: 0 ok, 1 generic/internal, 2 usage, 3 parse error, 4
// check/verify rejection, 5 runtime fault (trap or injected), 6 daemon
// overloaded / shutting down (--daemon only), 7 model-checker
// counterexample (mc only).
//
//===----------------------------------------------------------------------===//

#include "analysis/StaticDisconnect.h"
#include "driver/CompilePipeline.h"
#include "driver/Driver.h"
#include "mc/Dpor.h"
#include "runtime/Invariants.h"
#include "server/Client.h"
#include "support/FaultInjector.h"
#include "support/Trace.h"
#include "vm/Compiler.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

using namespace fearless;

namespace {

// Exit codes (documented in docs/OBSERVABILITY.md, "Exit codes").
constexpr int ExitError = 1;        // generic / infrastructure
constexpr int ExitUsage = 2;        // bad invocation (incl. bad --faults)
constexpr int ExitCounterexample = 7; // mc found a property violation

/// Maps a pipeline diagnostic to the CLI exit code for its stage.
int exitCodeFor(const Diagnostic &D) { return exitCodeForStage(D.Stage); }

int usage() {
  std::fprintf(
      stderr,
      "usage: fearlessc <check|analyze|run|sig|derive|sample> [args] "
      "[options]\n"
      "  check   <file>                parse + region-check + verify\n"
      "  analyze <file>|--samples      static disconnect verdicts + lints\n"
      "  run     <file> <fn> [ints...] check, then run fn(ints...)\n"
      "  mc      <file> [fn [ints...]] model-check the bounded schedule\n"
      "                                space (fn defaults to main; add\n"
      "                                root threads with --spawn)\n"
      "  disasm  <file>                print the compiled bytecode\n"
      "  sig     <file>                print elaborated signatures\n"
      "  derive  <file> <fn>           print fn's typing derivation\n"
      "  dot     <file> <fn>           derivation as a Graphviz digraph\n"
      "  sample  <sll|dll|rbtree|message|trie|extras>  print a sample\n"
      "  metrics                       --daemon only: lifetime metrics\n"
      "  shutdown                      --daemon only: drain the daemon\n"
      "options: --interprocedural[=on|off] --json --summaries --werror "
      "--no-oracle --seed N --no-checks "
      "--no-elide --stats "
      "--metrics --trace FILE --faults SPEC --workers N --sched-seed N "
      "--daemon SOCKET\n"
      "  --interprocedural[=on|off]  bottom-up function summaries at\n"
      "                  call sites (default on; off = signature havoc)\n"
      "  --json          analyze: machine-readable output (schema\n"
      "                  fearless-analysis-v1)\n"
      "  --summaries     analyze: append the per-function summary dump\n"
      "  --werror        analyze: lint diagnostics exit with the check\n"
      "                  error code (4)\n"
      "  --workers N     run on the parallel executor's M:N task\n"
      "                  scheduler with an N-worker pool (0 = auto)\n"
      "  --sched-seed N  scheduling-decision seed for --workers runs\n"
      "  --spawn SPEC    extra root thread FN or FN:a,b,... for the\n"
      "                  deterministic machine (run and mc; repeatable)\n"
      "  --schedule FILE run: replay a recorded counterexample schedule\n"
      "                  deterministically (fearless-schedule-v1)\n"
      "  --mc-depth N    mc: max scheduler turns per execution\n"
      "                  (default 100000)\n"
      "  --mc-schedules N mc: max schedules to explore (0 = unlimited;\n"
      "                  default 100000)\n"
      "  --mc-preemptions N  mc: preemption bound (iterative context\n"
      "                  bounding; default unbounded)\n"
      "  --mc-checks=on|off  mc: explore with dynamic reservation checks\n"
      "                  erased (off) — the erasure-soundness gate; the\n"
      "                  §6 invariant validator always runs\n"
      "  --mc-dpor=on|off    mc: DPOR + sleep-set pruning (off = naive\n"
      "                  DFS over every interleaving)\n"
      "  --mc-out FILE   mc: counterexample schedule path (default\n"
      "                  <file>.sched)\n"
      "  --daemon SOCKET serve check/analyze/run/metrics/shutdown\n"
      "                  through the fearlessd instance at SOCKET\n"
      "                  (docs/SERVER.md); output is bit-identical to\n"
      "                  the standalone command\n"
      "exit codes: 0 ok, 1 error, 2 usage, 3 parse error, 4 check "
      "error, 5 runtime fault, 6 daemon overloaded/shutting down, "
      "7 mc counterexample\n");
  return ExitUsage;
}

Expected<std::string> readFile(const char *Path) {
  std::ifstream In(Path);
  if (!In)
    return fail(std::string("cannot open '") + Path + "'");
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

/// Everything argv sets: the request value (op, file, entry call and
/// every option fearlessd serves as well) plus what only runs locally.
struct Options {
  server::WireRequest Req;
  /// Chrome trace_event output path (empty = tracing off). Composes
  /// with --metrics: the trace goes to this file, metrics to stdout.
  std::string TracePath;
  /// Fault-injection spec from --faults (see support/FaultInjector.h);
  /// unset = fall back to the FEARLESS_FAULTS env var, then disabled.
  std::optional<std::string> FaultSpec;
  /// --daemon: fearlessd socket path; empty = standalone execution.
  std::string DaemonSocket;
  /// --spawn SPEC (repeatable): extra root threads for the deterministic
  /// machine, as "fn" or "fn:1,2,3". run and mc only.
  std::vector<std::string> SpawnSpecs;
  /// --schedule FILE: replay a recorded schedule (run only).
  std::string SchedulePath;
  /// mc budgets and modes (see mc/Dpor.h for semantics).
  uint64_t McDepth = 100000;
  uint64_t McSchedules = 100000;
  int64_t McPreemptions = -1;
  bool McChecksOn = true;
  bool McDpor = true;
  /// --mc-out: counterexample schedule path; empty = <file>.sched.
  std::string McOut;
};

/// Parses \p Text as a base-10 int64, the whole string or nothing: "7x",
/// "abc", "" and out-of-range values are rejected instead of reading as
/// 7 or 0.
bool parseInt(const char *Text, int64_t &Out) {
  if (!*Text)
    return false;
  errno = 0;
  char *End = nullptr;
  long long V = std::strtoll(Text, &End, 10);
  if (*End != '\0' || errno == ERANGE)
    return false;
  Out = V;
  return true;
}

/// parseInt for counts and seeds: additionally rejects a sign, which
/// strtoull would otherwise wrap ("-1" is not 2^64-1 workers).
bool parseUint(const char *Text, uint64_t &Out) {
  if (!std::isdigit(static_cast<unsigned char>(*Text)))
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (*End != '\0' || errno == ERANGE)
    return false;
  Out = V;
  return true;
}

/// Parses the positional int arguments Positional[From..] into \p Out;
/// prints the usage error for the first malformed one.
bool parseIntArgs(const std::vector<const char *> &Positional, size_t From,
                  std::vector<int64_t> &Out) {
  for (size_t I = From; I < Positional.size(); ++I) {
    int64_t V;
    if (!parseInt(Positional[I], V)) {
      std::fprintf(stderr,
                   "fearlessc: bad integer argument '%s' (arguments are "
                   "base-10 ints)\n",
                   Positional[I]);
      return false;
    }
    Out.push_back(V);
  }
  return true;
}

/// Parses a --spawn spec: "fn" or "fn:1,2,3" (int args only, matching
/// the positional-argument rule for the entry function).
bool parseSpawnSpec(const std::string &Spec,
                    std::pair<std::string, std::vector<int64_t>> &Out) {
  size_t Colon = Spec.find(':');
  Out.first = Spec.substr(0, Colon == std::string::npos ? Spec.size()
                                                        : Colon);
  Out.second.clear();
  if (Out.first.empty())
    return false;
  if (Colon == std::string::npos)
    return true;
  std::string Rest = Spec.substr(Colon + 1);
  size_t Pos = 0;
  while (Pos <= Rest.size()) {
    size_t Comma = Rest.find(',', Pos);
    std::string Tok = Rest.substr(
        Pos, Comma == std::string::npos ? Rest.size() - Pos : Comma - Pos);
    int64_t V;
    if (!parseInt(Tok.c_str(), V))
      return false;
    Out.second.push_back(V);
    if (Comma == std::string::npos)
      break;
    Pos = Comma + 1;
  }
  return true;
}

/// Resolves the effective fault plan: --faults wins, then the
/// FEARLESS_FAULTS env var, then none. A malformed spec is an invocation
/// error: printed here, and the caller exits 2 before any work.
bool resolveFaultPlan(const Options &Opts, std::optional<FaultPlan> &Out) {
  std::string Spec = Opts.FaultSpec.value_or("");
  if (!Opts.FaultSpec)
    if (const char *Env = std::getenv("FEARLESS_FAULTS"))
      Spec = Env;
  if (Spec.empty())
    return true;
  Expected<FaultPlan> Plan = parseFaultSpec(Spec);
  if (!Plan) {
    std::fprintf(stderr, "fearlessc: bad fault spec: %s\n",
                 Plan.error().Message.c_str());
    return false;
  }
  Out = *Plan;
  return true;
}

using SpawnList = std::vector<std::pair<std::string, std::vector<int64_t>>>;

/// Parses every --spawn spec into \p Out; prints the usage error for the
/// first malformed one.
bool parseSpawns(const Options &Opts, SpawnList &Out) {
  for (const std::string &Spec : Opts.SpawnSpecs) {
    std::pair<std::string, std::vector<int64_t>> S;
    if (!parseSpawnSpec(Spec, S)) {
      std::fprintf(stderr,
                   "fearlessc: bad --spawn spec '%s' (expected FN or "
                   "FN:int,int,...)\n",
                   Spec.c_str());
      return false;
    }
    Out.push_back(std::move(S));
  }
  return true;
}

Expected<Pipeline> compileFile(const char *Path, const Options &Opts) {
  Expected<std::string> Source = readFile(Path);
  if (!Source)
    return Source.takeFailure();
  CheckerOptions CO;
  CO.UseLivenessOracle = Opts.Req.Pipeline.UseOracle;
  return compile(*Source, CO);
}

/// The embedded sample programs, keyed by CLI name. Function-local
/// static on purpose: MessagePassing/Extras point into composite
/// std::strings built by Driver.cpp's dynamic initializers, so a
/// namespace-scope array here could capture null pointers depending on
/// cross-TU static initialization order.
const std::vector<std::pair<const char *, const char *>> &
embeddedSamples() {
  static const std::vector<std::pair<const char *, const char *>> Samples =
      {{"sll", programs::SllSuite},
       {"dll", programs::DllSuite},
       {"rbtree", programs::RedBlackTree},
       {"message", programs::MessagePassing},
       {"trie", programs::BitTrie},
       {"extras", programs::Extras}};
  return Samples;
}

int cmdMc(const char *Path, const char *Fn,
          const std::vector<int64_t> &Args, const Options &Opts) {
  std::optional<FaultPlan> Plan;
  SpawnList Spawns;
  if (!resolveFaultPlan(Opts, Plan) || !parseSpawns(Opts, Spawns))
    return ExitUsage;

  Expected<std::string> Source = readFile(Path);
  if (!Source) {
    std::fprintf(stderr, "%s\n", Source.error().render().c_str());
    return exitCodeFor(Source.error());
  }

  // --mc-checks=off composes with the user's --no-checks: exploration
  // runs with dynamic reservation checks erased, while the §6 invariant
  // validator below still machine-checks every intermediate state —
  // that asymmetry is the erasure-soundness gate. The artifact is built
  // for the deterministic machine mc explores, whatever --workers says.
  PipelineOptions PO = Opts.Req.Pipeline;
  bool EffChecks = PO.Checks && Opts.McChecksOn;
  PO.Checks = EffChecks;
  ArtifactResult A = buildArtifact(*Source, artifactOptions(PO, {}));
  if (!A) {
    std::fprintf(stderr, "%s\n", A.error().render().c_str());
    return exitCodeFor(A.error());
  }
  const CompiledArtifact &Art = **A;
  const Pipeline &P = Art.P;

  // Resolve the entry and every --spawn up front, as `run` does.
  std::vector<EntryCall> Roots;
  auto Resolve = [&](const std::string &FnName,
                     const std::vector<int64_t> &IntArgs) {
    Expected<EntryCall> C = resolveEntryCall(P, FnName, IntArgs);
    if (!C) {
      std::fprintf(stderr, "%s\n", C.error().Message.c_str());
      return false;
    }
    Roots.push_back(C.take());
    return true;
  };
  if (!Resolve(Fn, Args))
    return ExitError;
  for (const auto &[SpawnFn, SpawnArgs] : Spawns)
    if (!Resolve(SpawnFn, SpawnArgs))
      return ExitError;

  // Every execution gets a fresh machine and (when faults are armed) a
  // fresh injector — the injector's occurrence counters are run-local
  // state, exactly like the heap.
  std::unique_ptr<FaultInjector> InjSlot;
  mc::MachineFactory Factory = [&]() {
    if (Plan)
      InjSlot = std::make_unique<FaultInjector>(*Plan);
    MachineOptions MO;
    MO.CheckReservations = EffChecks;
    MO.StaticVerdicts = &Art.Verdicts;
    MO.ElideDisconnect = PO.Elide;
    MO.Faults = InjSlot.get();
    if (Art.VmCode)
      MO.VmCode = &*Art.VmCode;
    // The machine-checked gate: §6 invariant validators after every
    // small step of every explored execution, checks on or off.
    MO.StepValidator =
        [](const Machine &M) -> std::optional<std::string> {
      if (auto E = checkReservationsDisjoint(M))
        return E;
      if (auto E = checkStoredRefCounts(M.heap()))
        return E;
      return std::nullopt;
    };
    auto M = std::make_unique<Machine>(P.Checked, MO);
    for (const EntryCall &Root : Roots)
      M->spawn(Root.Fn, Root.Args);
    return M;
  };

  mc::McOptions MO;
  MO.MaxDepth = Opts.McDepth;
  MO.MaxSchedules = Opts.McSchedules;
  MO.PreemptionBound = Opts.McPreemptions;
  MO.UseDpor = Opts.McDpor;
  // An injected fault may legally kill one interleaving and not another,
  // so result divergence is only a violation in fault-free exploration.
  MO.CheckDivergence = !Plan;

  // Tracing: one mc.run span covering the whole exploration (the
  // per-execution machines run untraced — thousands of executions would
  // re-register the same ring buffers).
  TraceSession Trace;
  bool UseTrace = !Opts.TracePath.empty();
  TraceBuffer *TB = nullptr;
  uint64_t TraceStart = 0;
  if (UseTrace) {
    TB = &Trace.registerThread(4244, "mc");
    TraceStart = TB->now();
  }
  Expected<mc::McReport> Rep = mc::explore(Factory, MO);
  if (TB) {
    TB->record("mc.run", "mc", 'X', TraceStart, TB->now() - TraceStart);
    std::string TraceError;
    if (!Trace.writeChromeJson(Opts.TracePath, TraceError))
      std::fprintf(stderr, "fearlessc: %s\n", TraceError.c_str());
  }
  if (!Rep) {
    std::fprintf(stderr, "fearlessc: %s\n", Rep.error().Message.c_str());
    return ExitError;
  }

  if (Opts.Req.Run.Metrics) {
    RuntimeMetrics M;
    M.McSchedulesExplored = Rep->SchedulesExplored;
    M.McSchedulesPruned = Rep->SchedulesPruned;
    M.McStatesFingerprinted = Rep->StatesFingerprinted;
    M.Steps = Rep->StepsExecuted;
    M.AnalysisMustDisconnected = Art.Split.MustDisconnected;
    M.AnalysisMustConnected = Art.Split.MustConnected;
    M.AnalysisUnknown = Art.Split.Unknown;
    std::printf("%s\n", M.toJson().c_str());
  }

  if (Rep->Counterexample) {
    mc::McCounterexample &CE = *Rep->Counterexample;
    std::string Out =
        Opts.McOut.empty() ? std::string(Path) + ".sched" : Opts.McOut;
    // The schedule file carries its own provenance: the reason and the
    // exact replay command, as comments.
    std::string Replay = "fearlessc run " + std::string(Path) + " " + Fn;
    for (int64_t V : Args)
      Replay += " " + std::to_string(V);
    for (const std::string &Spec : Opts.SpawnSpecs)
      Replay += " --spawn " + Spec;
    if (!EffChecks)
      Replay += " --no-checks";
    if (Opts.FaultSpec)
      Replay += " --faults " + *Opts.FaultSpec;
    Replay += " --schedule " + Out;
    size_t Pos = 0;
    while (Pos < CE.Reason.size()) {
      size_t Nl = CE.Reason.find('\n', Pos);
      if (Nl == std::string::npos)
        Nl = CE.Reason.size();
      if (Nl > Pos)
        CE.Sched.Comments.push_back(CE.Reason.substr(Pos, Nl - Pos));
      Pos = Nl + 1;
    }
    CE.Sched.Comments.push_back("replay: " + Replay);
    std::fprintf(stderr, "fearlessc: mc: counterexample: %s\n",
                 CE.Reason.c_str());
    if (!CE.BlockedDump.empty())
      std::fprintf(stderr, "%s\n", CE.BlockedDump.c_str());
    std::fprintf(stderr,
                 "mc: after %llu schedule(s) explored, %llu pruned\n",
                 static_cast<unsigned long long>(Rep->SchedulesExplored),
                 static_cast<unsigned long long>(Rep->SchedulesPruned));
    if (ExpectedVoid W = CE.Sched.writeFile(Out); !W) {
      std::fprintf(stderr, "fearlessc: %s\n", W.error().Message.c_str());
      return ExitError;
    }
    std::fprintf(stderr, "mc: counterexample schedule written to %s\n",
                 Out.c_str());
    std::fprintf(stderr, "mc: replay with: %s\n", Replay.c_str());
    return ExitCounterexample;
  }

  std::printf("mc: %s %s: explored %llu schedule(s), %llu pruned, %llu "
              "state(s) fingerprinted, max depth %llu, %llu step(s)\n",
              Path, Fn,
              static_cast<unsigned long long>(Rep->SchedulesExplored),
              static_cast<unsigned long long>(Rep->SchedulesPruned),
              static_cast<unsigned long long>(Rep->StatesFingerprinted),
              static_cast<unsigned long long>(Rep->MaxDepthSeen),
              static_cast<unsigned long long>(Rep->StepsExecuted));
  if (!Rep->Complete)
    std::printf("mc: warning: exploration incomplete: %s\n",
                Rep->Clipped.c_str());
  else
    std::printf("mc: no violations in the bounded schedule space\n");
  return 0;
}

int cmdDisasm(const char *Path, const Options &Opts) {
  Expected<std::string> Source = readFile(Path);
  if (!Source) {
    std::fprintf(stderr, "%s\n", Source.error().render().c_str());
    return exitCodeFor(Source.error());
  }
  // Disassembly always shows the bytecode with the checks --no-checks
  // controls, independent of --workers.
  ArtifactResult A =
      buildArtifact(*Source, artifactOptions(Opts.Req.Pipeline, {}));
  if (!A) {
    std::fprintf(stderr, "%s\n", A.error().render().c_str());
    return exitCodeFor(A.error());
  }
  std::fputs(vm::disassemble(*(*A)->VmCode, (*A)->P.Checked).c_str(),
             stdout);
  return 0;
}

int cmdSig(const char *Path, const Options &Opts) {
  Expected<Pipeline> P = compileFile(Path, Opts);
  if (!P) {
    std::fprintf(stderr, "%s\n", P.error().render().c_str());
    return exitCodeFor(P.error());
  }
  for (const auto &[Name, Sig] : P->Checked.Signatures)
    std::printf("%s : %s\n", P->Prog->Names.spelling(Name).c_str(),
                toString(Sig, P->Prog->Names).c_str());
  return 0;
}

/// `derive` and `dot`: checks \p Path keeping every function's
/// derivation (compile() keeps none), verifies them, and prints \p Fn's
/// with \p Print.
int cmdDerive(const char *Path, const char *Fn, const Options &Opts,
              std::string (*Print)(const Derivation &, const Interner &)) {
  Expected<std::string> Source = readFile(Path);
  if (!Source) {
    std::fprintf(stderr, "%s\n", Source.error().render().c_str());
    return exitCodeFor(Source.error());
  }
  CheckerOptions CO;
  CO.UseLivenessOracle = Opts.Req.Pipeline.UseOracle;
  Expected<FrontendResult> P = checkSource(*Source, CO);
  if (!P) {
    std::fprintf(stderr, "%s\n", P.error().render().c_str());
    return exitCodeFor(P.error());
  }
  if (Expected<VerifyStats> Verified = verifyProgram(P->Checked);
      !Verified) {
    std::fprintf(stderr, "%s\n", Verified.error().render().c_str());
    return exitCodeForStage(DiagnosticStage::Check);
  }
  Symbol Name = P->Prog->Names.intern(Fn);
  auto It = P->Checked.Functions.find(Name);
  if (It == P->Checked.Functions.end() || It->second.Deriv.empty()) {
    std::fprintf(stderr, "no derivation for '%s'\n", Fn);
    return 1;
  }
  std::printf("%s", Print(It->second.Deriv, P->Prog->Names).c_str());
  return 0;
}

int cmdSample(const char *Name) {
  const char *Source = nullptr;
  for (const auto &[SName, SSource] : embeddedSamples())
    if (!std::strcmp(Name, SName))
      Source = SSource;
  if (!Source) {
    std::fprintf(stderr, "unknown sample '%s' (try sll, dll, rbtree, "
                         "message, trie, extras)\n",
                 Name);
    return 1;
  }
  std::fputs(Source, stdout);
  return 0;
}

//===----------------------------------------------------------------------===//
// check, analyze and run: one request, served here or by fearlessd
//===----------------------------------------------------------------------===//

/// The local-only side of a `run`: --faults, --trace, --spawn and
/// --schedule, resolved before the source is read so that a malformed
/// spec, a corrupt schedule file or an unwritable trace path is a clean
/// error before any work.
struct LocalRun {
  std::unique_ptr<FaultInjector> Faults;
  TraceSession Trace;
  std::optional<mc::Schedule> Sched;
  LocalHooks Hooks;
};

/// Fills \p L from \p Opts; returns 0, or the exit code of the error it
/// printed.
int prepareLocalRun(const Options &Opts, LocalRun &L) {
  std::optional<FaultPlan> Plan;
  if (!resolveFaultPlan(Opts, Plan) || !parseSpawns(Opts, L.Hooks.Spawns))
    return ExitUsage;
  if (Plan) {
    L.Faults = std::make_unique<FaultInjector>(*Plan);
    L.Hooks.Faults = L.Faults.get();
  }
  if (!Opts.SchedulePath.empty()) {
    Expected<mc::Schedule> S = mc::Schedule::loadFile(Opts.SchedulePath);
    if (!S) {
      std::fprintf(stderr, "fearlessc: %s\n", S.error().Message.c_str());
      return ExitUsage;
    }
    L.Hooks.Schedule = &L.Sched.emplace(S.take());
  }
  if (!Opts.TracePath.empty()) {
    if (!std::ofstream(Opts.TracePath, std::ios::app)) {
      std::fprintf(stderr,
                   "fearlessc: cannot open trace output '%s' for "
                   "writing\n",
                   Opts.TracePath.c_str());
      return ExitError;
    }
    L.Hooks.Trace = &L.Trace;
  }
  return 0;
}

/// Serves \p Reqs in this process; exit codes are OR-ed.
int serveLocally(const std::vector<server::WireRequest> &Reqs,
                 const Options &Opts, const LocalRun &L) {
  int Rc = 0;
  for (const Request &R : Reqs) {
    RequestOutcome O = serveRequest(
        R,
        [&](const PipelineOptions &PO) {
          return buildArtifact(R.Source, PO, L.Hooks.Trace);
        },
        L.Hooks);
    // Write whatever was traced even when the run fails — a trace of the
    // failing run is exactly what the flag is for.
    std::string TraceError;
    if (L.Hooks.Trace &&
        !L.Trace.writeChromeJson(Opts.TracePath, TraceError)) {
      std::fprintf(stderr, "fearlessc: %s\n", TraceError.c_str());
      return ExitError;
    }
    std::fputs(O.Out.c_str(), stdout);
    std::fputs(O.Err.c_str(), stderr);
    Rc |= O.Exit;
  }
  return Rc;
}

/// Prints a daemon response the way the standalone command would have:
/// the exact stdout/stderr bytes, or a synthesized diagnostic for
/// protocol-level errors (overloaded, shutting_down, bad_request — which
/// carry no output of their own).
int printResponse(const server::WireResponse &R) {
  if (!R.Out.empty())
    std::fputs(R.Out.c_str(), stdout);
  if (!R.Err.empty())
    std::fputs(R.Err.c_str(), stderr);
  if (!R.Ok && R.Out.empty() && R.Err.empty())
    std::fprintf(stderr, "fearlessc: daemon: %s: %s\n",
                 R.ErrorCode.c_str(), R.ErrorMessage.c_str());
  return R.Exit;
}

/// Sends \p Reqs to the fearlessd instance at \p Socket on one
/// connection; exit codes are OR-ed.
int sendToDaemon(const std::string &Socket,
                 const std::vector<server::WireRequest> &Reqs) {
  server::WireClient Client;
  if (ExpectedVoid C = Client.connect(Socket); !C) {
    std::fprintf(stderr, "fearlessc: %s\n", C.error().Message.c_str());
    return ExitError;
  }
  int Rc = 0;
  for (const server::WireRequest &R : Reqs) {
    Expected<server::WireResponse> Resp = Client.request(R);
    if (!Resp) {
      std::fprintf(stderr, "fearlessc: %s\n",
                   Resp.error().Message.c_str());
      return ExitError;
    }
    Rc |= printResponse(*Resp);
  }
  return Rc;
}

/// check, analyze, run, and with --daemon metrics and shutdown: builds
/// the request from the command line, then serves it here or sends it to
/// the daemon.
int serveCommand(const std::vector<const char *> &Positional,
                 Options &Opts) {
  bool Daemon = !Opts.DaemonSocket.empty();
  server::WireRequest &Req = Opts.Req;
  const char *Cmd = Positional[0];
  size_t N = Positional.size();
  if (!std::strcmp(Cmd, "check") && N == 2) {
    Req.Op = RequestOp::Check;
  } else if (!std::strcmp(Cmd, "analyze") && N == 2) {
    Req.Op = RequestOp::Analyze;
  } else if (!std::strcmp(Cmd, "run") && N >= 3) {
    Req.Op = RequestOp::Run;
    Req.Fn = Positional[2];
    if (!parseIntArgs(Positional, 3, Req.Args))
      return ExitUsage;
  } else if (Daemon && !std::strcmp(Cmd, "metrics") && N == 1) {
    Req.Op = RequestOp::Metrics;
  } else if (Daemon && !std::strcmp(Cmd, "shutdown") && N == 1) {
    Req.Op = RequestOp::Shutdown;
  } else {
    return usage();
  }

  LocalRun Local;
  if (!Daemon && Req.Op == RequestOp::Run)
    if (int Rc = prepareLocalRun(Opts, Local))
      return Rc;

  std::vector<server::WireRequest> Reqs;
  if (Req.Op == RequestOp::Analyze &&
      !std::strcmp(Positional[1], "--samples")) {
    // One request per embedded sample.
    for (const auto &[Name, Text] : embeddedSamples()) {
      server::WireRequest &R = Reqs.emplace_back(Req);
      R.Name = Name;
      R.Source = Text;
    }
  } else {
    if (N >= 2) {
      Expected<std::string> Source = readFile(Positional[1]);
      if (!Source) {
        std::fprintf(stderr, "%s\n", Source.error().render().c_str());
        return exitCodeFor(Source.error());
      }
      Req.Name = Positional[1];
      Req.Source = Source.take();
    }
    Reqs.push_back(std::move(Req));
  }
  return Daemon ? sendToDaemon(Opts.DaemonSocket, Reqs)
                : serveLocally(Reqs, Opts, Local);
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage();

  Options Opts;
  RunOptions &Run = Opts.Req.Run;
  PipelineOptions &Pipe = Opts.Req.Pipeline;
  std::vector<const char *> Positional;
  auto BadNumber = [](const char *Flag, const char *V) {
    std::fprintf(stderr, "fearlessc: bad %s value '%s' (expected a base-10 "
                         "integer; counts and seeds are non-negative)\n",
                 Flag, V);
    return ExitUsage;
  };
  // "--NAME=on|off" switches.
  auto OnOff = [](const char *Arg, size_t NameLen, bool &Out) {
    const char *V = Arg + NameLen + 1;
    if (!std::strcmp(V, "on") || !std::strcmp(V, "off")) {
      Out = !std::strcmp(V, "on");
      return true;
    }
    std::fprintf(stderr, "fearlessc: bad %.*s value '%s' (expected on or "
                         "off)\n",
                 static_cast<int>(NameLen), Arg, V);
    return false;
  };
  for (int I = 1; I < argc; ++I) {
    // Numeric flags: the value must parse in full.
    uint64_t *UintFlag = nullptr;
    if (!std::strcmp(argv[I], "--seed"))
      UintFlag = &Run.Seed;
    else if (!std::strcmp(argv[I], "--sched-seed"))
      UintFlag = &Run.SchedSeed;
    else if (!std::strcmp(argv[I], "--mc-depth"))
      UintFlag = &Opts.McDepth;
    else if (!std::strcmp(argv[I], "--mc-schedules"))
      UintFlag = &Opts.McSchedules;
    if (UintFlag && I + 1 < argc) {
      ++I;
      if (!parseUint(argv[I], *UintFlag))
        return BadNumber(argv[I - 1], argv[I]);
      continue;
    }
    if (!std::strcmp(argv[I], "--workers") && I + 1 < argc) {
      uint64_t N;
      if (!parseUint(argv[++I], N))
        return BadNumber("--workers", argv[I]);
      Run.Workers = N;
    } else if (!std::strcmp(argv[I], "--mc-preemptions") && I + 1 < argc) {
      if (!parseInt(argv[++I], Opts.McPreemptions))
        return BadNumber("--mc-preemptions", argv[I]);
    } else if (!std::strcmp(argv[I], "--no-oracle"))
      Pipe.UseOracle = false;
    else if (!std::strcmp(argv[I], "--no-checks"))
      Pipe.Checks = false;
    else if (!std::strcmp(argv[I], "--no-elide"))
      Pipe.Elide = false;
    else if (!std::strcmp(argv[I], "--interprocedural"))
      Pipe.Interprocedural = true;
    else if (!std::strncmp(argv[I], "--interprocedural=", 18)) {
      if (!OnOff(argv[I], 17, Pipe.Interprocedural))
        return ExitUsage;
    } else if (!std::strcmp(argv[I], "--json"))
      Opts.Req.Analyze.Json = true;
    else if (!std::strcmp(argv[I], "--summaries"))
      Opts.Req.Analyze.DumpSummaries = true;
    else if (!std::strcmp(argv[I], "--werror"))
      Opts.Req.Analyze.Werror = true;
    else if (!std::strcmp(argv[I], "--stats"))
      Run.Stats = true;
    else if (!std::strcmp(argv[I], "--metrics"))
      Run.Metrics = true;
    else if (!std::strcmp(argv[I], "--trace") && I + 1 < argc)
      Opts.TracePath = argv[++I];
    else if (!std::strcmp(argv[I], "--faults") && I + 1 < argc)
      Opts.FaultSpec = argv[++I];
    else if (!std::strcmp(argv[I], "--spawn") && I + 1 < argc)
      Opts.SpawnSpecs.push_back(argv[++I]);
    else if (!std::strcmp(argv[I], "--schedule") && I + 1 < argc)
      Opts.SchedulePath = argv[++I];
    else if (!std::strncmp(argv[I], "--mc-checks=", 12)) {
      if (!OnOff(argv[I], 11, Opts.McChecksOn))
        return ExitUsage;
    } else if (!std::strncmp(argv[I], "--mc-dpor=", 10)) {
      if (!OnOff(argv[I], 9, Opts.McDpor))
        return ExitUsage;
    } else if (!std::strcmp(argv[I], "--mc-out") && I + 1 < argc)
      Opts.McOut = argv[++I];
    else if (!std::strcmp(argv[I], "--daemon") && I + 1 < argc)
      Opts.DaemonSocket = argv[++I];
    else if (!std::strncmp(argv[I], "--", 2) &&
             std::strcmp(argv[I], "--samples")) {
      // `analyze --samples` is the one `--` word that is an operand.
      std::fprintf(stderr,
                   "fearlessc: unknown option '%s' (or it is missing its "
                   "value); run fearlessc without arguments for usage\n",
                   argv[I]);
      return ExitUsage;
    } else
      Positional.push_back(argv[I]);
  }
  if (Positional.empty())
    return usage();

  const char *Cmd = Positional[0];
  size_t N = Positional.size();
  if (!Opts.DaemonSocket.empty()) {
    // Local debugging hooks and the local machine never reach the daemon.
    if (!Opts.TracePath.empty() || Opts.FaultSpec) {
      std::fprintf(stderr, "fearlessc: --trace and --faults are local "
                           "debugging hooks; they do not compose with "
                           "--daemon\n");
      return ExitUsage;
    }
    if (!Opts.SchedulePath.empty() || !Opts.SpawnSpecs.empty() ||
        !std::strcmp(Cmd, "mc")) {
      std::fprintf(stderr, "fearlessc: mc, --schedule, and --spawn drive "
                           "the local deterministic machine; they do not "
                           "compose with --daemon\n");
      return ExitUsage;
    }
  } else {
    if (!std::strcmp(Cmd, "mc") && N >= 2) {
      std::vector<int64_t> Args;
      if (!parseIntArgs(Positional, 3, Args))
        return ExitUsage;
      return cmdMc(Positional[1], N >= 3 ? Positional[2] : "main", Args,
                   Opts);
    }
    if (!std::strcmp(Cmd, "disasm") && N == 2)
      return cmdDisasm(Positional[1], Opts);
    if (!std::strcmp(Cmd, "sig") && N == 2)
      return cmdSig(Positional[1], Opts);
    if (!std::strcmp(Cmd, "derive") && N == 3)
      return cmdDerive(Positional[1], Positional[2], Opts, printDerivation);
    if (!std::strcmp(Cmd, "dot") && N == 3)
      return cmdDerive(Positional[1], Positional[2], Opts,
                       printDerivationDot);
    if (!std::strcmp(Cmd, "sample") && N == 2)
      return cmdSample(Positional[1]);
  }
  return serveCommand(Positional, Opts);
}
