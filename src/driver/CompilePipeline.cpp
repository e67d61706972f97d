//===- driver/CompilePipeline.cpp -----------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "driver/CompilePipeline.h"

#include "concurrency/ParallelExec.h"
#include "mc/Replay.h"
#include "runtime/Machine.h"
#include "support/FaultInjector.h"
#include "support/Trace.h"

#include <cassert>
#include <cstdio>

using namespace fearless;

uint64_t PipelineOptions::fingerprint() const {
  uint64_t F = 0;
  F |= UseOracle ? 1u : 0u;
  F |= Interprocedural ? 2u : 0u;
  F |= Checks ? 4u : 0u;
  F |= Elide ? 8u : 0u;
  F |= EmitChecks ? 16u : 0u;
  // Mix so distinct flag sets land far apart in the cache key space.
  F *= 0x9E3779B97F4A7C15ull;
  F ^= F >> 32;
  return F;
}

size_t CompiledArtifact::approxBytes() const {
  // The AST, typing derivations, analysis report, and constant pools are
  // all within a small constant factor of the source length for real
  // programs; the bytecode is measured exactly. The multiplier is
  // deliberately generous — the cache budget is a ceiling, not a ledger.
  size_t Bytes = SourceBytes * 24 + 4096;
  for (const vm::Chunk &C : VmCode->Chunks)
    Bytes += C.Code.size() * sizeof(vm::Instr) +
             C.Constants.size() * sizeof(Value);
  return Bytes;
}

ArtifactResult fearless::buildArtifact(std::string_view Source,
                                      const PipelineOptions &Opts,
                                      TraceSession *Trace) {
  CheckerOptions CO;
  CO.UseLivenessOracle = Opts.UseOracle;
  Expected<Pipeline> P = compile(Source, CO);
  if (!P)
    return P.takeFailure();

  auto A = std::make_shared<CompiledArtifact>();
  A->P = P.take();
  A->Options = Opts;
  A->SourceBytes = Source.size();

  AnalysisOptions AO;
  AO.Interprocedural = Opts.Interprocedural;
  A->Report = analyzeProgram(A->P.Checked, AO);
  A->Verdicts = A->Report.verdictTable();
  A->Split = A->Report.countVerdicts();

  vm::CompileOptions VO;
  VO.EmitChecks = Opts.EmitChecks;
  VO.Verdicts = &A->Verdicts;
  VO.ElideDisconnect = Opts.Elide;
#ifndef NDEBUG
  VO.CrossCheckElision = true;
#endif
  uint64_t CompileStart = 0;
  TraceBuffer *CompileTB = nullptr;
  if (Trace) {
    CompileTB = &Trace->registerThread(4242, "vm-compiler");
    CompileStart = CompileTB->now();
  }
  Expected<vm::CompiledProgram> Code = vm::compileProgram(A->P.Checked, VO);
  if (CompileTB)
    CompileTB->record("vm.compile", "vm", 'X', CompileStart,
                      CompileTB->now() - CompileStart);
  if (!Code)
    return Code.takeFailure();
  A->VmCode.emplace(Code.take());
  return std::shared_ptr<const CompiledArtifact>(std::move(A));
}

/// The `fearlessc check` report for \p A: the OK line (using
/// \p DisplayName verbatim), the analysis warnings, and optionally the
/// --stats block.
static std::string renderCheckOutput(const CompiledArtifact &A,
                                     std::string_view DisplayName,
                                     bool Stats) {
  std::string Out(DisplayName);
  Out += ": OK (" + std::to_string(A.P.Checked.Functions.size()) +
         " functions)\n";
  // Checker-integrated warnings: always/never-taken disconnect branches
  // found by the static region-graph analysis.
  std::vector<AnalysisDiag> Warnings;
  for (const AnalysisDiag &D : A.Report.Diags)
    if (D.Kind == AnalysisDiagKind::DeadBranch ||
        D.Kind == AnalysisDiagKind::NeverPopulated)
      Warnings.push_back(D);
  if (!Warnings.empty())
    Out += renderDiags(Warnings, DisplayName);
  if (Stats) {
    size_t Virtuals = 0, Unify = 0, Loops = 0;
    for (const auto &[Name, Fn] : A.P.Checked.Functions) {
      (void)Name;
      Virtuals += Fn.Stats.VirtualSteps;
      Unify += Fn.Stats.UnifyCandidates;
      Loops += Fn.Stats.LoopIterations;
    }
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "functions: %zu, virtual transformations: %zu, "
                  "unification candidates: %zu, loop refinements: %zu\n"
                  "verifier: %zu derivation steps (%zu virtual) "
                  "re-checked\n",
                  A.P.Checked.Functions.size(), Virtuals, Unify, Loops,
                  A.P.Verified.StepsChecked,
                  A.P.Verified.VirtualStepsChecked);
    Out += Buf;
  }
  return Out;
}

int fearless::exitCodeForStage(DiagnosticStage Stage) {
  switch (Stage) {
  case DiagnosticStage::Parse:
    return 3;
  case DiagnosticStage::Check:
    return 4;
  case DiagnosticStage::Runtime:
    return 5;
  case DiagnosticStage::Unknown:
    break;
  }
  return 1;
}

Expected<EntryCall>
fearless::resolveEntryCall(const Pipeline &P, const std::string &Fn,
                           const std::vector<int64_t> &Args) {
  EntryCall Call;
  Call.Fn = P.Prog->Names.intern(Fn);
  const FnDecl *Decl = P.Prog->findFunction(Call.Fn);
  if (!Decl)
    return fail("no function '" + Fn + "'");
  if (Decl->Params.size() != Args.size())
    return fail("'" + Fn + "' takes " +
                std::to_string(Decl->Params.size()) + " arguments, got " +
                std::to_string(Args.size()) +
                " (only int arguments are supported from the CLI)");
  for (size_t I = 0; I < Args.size(); ++I) {
    if (!(Decl->Params[I].ParamType == Type::intTy()))
      return fail("parameter " + std::to_string(I) + " of '" + Fn +
                  "' is not int");
    Call.Args.push_back(Value::intVal(Args[I]));
  }
  return Call;
}

/// Executes \p Req.Fn over \p A's bytecode.
static RequestOutcome runArtifact(const CompiledArtifact &A,
                                  const Request &Req, const LocalHooks &Hooks) {
  RequestOutcome O;
  const Pipeline &P = A.P;

  // The entry first, then every --spawn.
  std::vector<EntryCall> Calls;
  auto Resolve = [&](const std::string &Fn,
                     const std::vector<int64_t> &Args) {
    Expected<EntryCall> C = resolveEntryCall(P, Fn, Args);
    if (!C) {
      O.Err = C.error().Message + "\n";
      O.Exit = 1;
      return false;
    }
    Calls.push_back(C.take());
    return true;
  };
  if (!Resolve(Req.Fn, Req.Args))
    return O;
  for (const auto &[Fn, Args] : Hooks.Spawns)
    if (!Resolve(Fn, Args))
      return O;
  const EntryCall &Entry = Calls.front();
  const RunOptions &Run = Req.Run;
  if (Run.Workers && (!Hooks.Spawns.empty() || Hooks.Schedule)) {
    O.Err = "--spawn and --schedule drive the deterministic machine and "
            "cannot combine with --workers\n";
    O.Exit = 2;
    return O;
  }

  // The verdict split goes out with --metrics so runs record how much of
  // the elision the analysis could prove (execution never sees these;
  // they are compile-time facts).
  auto WithAnalysis = [&](RuntimeMetrics M) {
    M.AnalysisMustDisconnected = A.Split.MustDisconnected;
    M.AnalysisMustConnected = A.Split.MustConnected;
    M.AnalysisUnknown = A.Split.Unknown;
    return M;
  };
  // --workers: hand the entry function to the parallel executor (the
  // M:N task scheduler; dynamic checks erased, as for any checked
  // program) instead of the deterministic abstract machine.
  if (Run.Workers) {
    ParallelExecOptions PO;
    PO.NumWorkers = *Run.Workers;
    PO.SchedSeed = Run.SchedSeed;
    PO.Faults = Hooks.Faults;
    PO.VmCode = &*A.VmCode;
    PO.Trace = Hooks.Trace;
    ParallelExec Exec(P.Checked, PO);
    Exec.spawn(Entry.Fn, Entry.Args);
    Expected<std::vector<Value>> R = Exec.run();
    O.Metrics = WithAnalysis(Exec.metrics());
    if (!R) {
      O.Err = R.error().render() + "\n";
      if (Run.Metrics)
        O.Out += O.Metrics->toJson() + "\n";
      O.Exit = Exec.metrics().FaultsEscalated ? 5 : 1;
      return O;
    }
    O.Out = Req.Fn + "(...) = " + toString((*R)[0]) + "\n";
    if (Run.Metrics)
      O.Out += O.Metrics->toJson() + "\n";
    return O;
  }

  MachineOptions MO;
  MO.CheckReservations = A.Options.Checks;
  MO.StaticVerdicts = &A.Verdicts;
  MO.ElideDisconnect = A.Options.Elide;
  MO.Faults = Hooks.Faults;
  MO.VmCode = &*A.VmCode;
  MO.Trace = Hooks.Trace;
  Machine M(P.Checked, MO);
  for (const EntryCall &C : Calls)
    M.spawn(C.Fn, C.Args);
  Expected<MachineSummary> R =
      Hooks.Schedule ? mc::runSchedule(M, *Hooks.Schedule)
                     : M.run(Run.Seed);

  O.Metrics = WithAnalysis(M.metrics());
  if (!R) {
    // A structured fault (runtime trap or injection) gets the dedicated
    // diagnostic and exit code; other failures (deadlock, violation,
    // step limit) stay generic.
    if (M.lastFault()) {
      O.Err = "fearlessc: " + M.lastFault()->render() + "\n";
      if (Run.Metrics)
        O.Out += O.Metrics->toJson() + "\n";
      O.Exit = 5;
      return O;
    }
    O.Err = R.error().render() + "\n";
    O.Exit = 1;
    return O;
  }
  O.Out = Req.Fn + "(...) = " + toString(R->ThreadResults[0]) + "\n";
  for (size_t I = 0; I < Hooks.Spawns.size(); ++I)
    if (I + 1 < R->ThreadResults.size())
      O.Out += Hooks.Spawns[I].first + "(...) = " +
               toString(R->ThreadResults[I + 1]) + "\n";
  if (Run.Stats) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "steps: %llu, reservation checks: %llu, allocations: "
                  "%llu, disconnect checks: %llu\n",
                  static_cast<unsigned long long>(R->Steps),
                  static_cast<unsigned long long>(
                      M.stats().ReservationChecks),
                  static_cast<unsigned long long>(M.stats().Allocations),
                  static_cast<unsigned long long>(
                      M.stats().DisconnectChecks));
    O.Out += Buf;
  }
  if (Run.Metrics)
    O.Out += O.Metrics->toJson() + "\n";
  return O;
}

PipelineOptions fearless::artifactOptions(PipelineOptions PO,
                                          const RunOptions &Run) {
  PO.EmitChecks = PO.Checks && !Run.Workers;
  return PO;
}

RequestOutcome fearless::serveRequest(const Request &R,
                                      const ArtifactGetter &GetArtifact,
                                      const LocalHooks &Hooks) {
  RequestOutcome O;
  if (R.Op == RequestOp::Analyze) {
    // The diagnostic path: a fresh analysis, never an artifact.
    AnalysisOptions AO;
    AO.Interprocedural = R.Pipeline.Interprocedural;
    SourceAnalysis A = analyzeSourceText(R.Source, R.Name, AO, R.Analyze);
    O.Out = std::move(A.Rendered);
    if (A.HardError) {
      O.Exit = exitCodeForStage(DiagnosticStage::Parse);
    } else if (R.Analyze.Werror && A.LintDiags > 0) {
      // Lints are check-stage findings, so --werror exits with the
      // check-stage code — scripts can distinguish "region misuse" from
      // infrastructure failures without parsing messages.
      O.Err = "fearlessc: error: " + std::to_string(A.LintDiags) +
              " lint diagnostic(s) with --werror\n";
      O.Exit = exitCodeForStage(DiagnosticStage::Check);
    }
    return O;
  }
  assert((R.Op == RequestOp::Check || R.Op == RequestOp::Run) &&
         "metrics and shutdown are served by the daemon");
  ArtifactResult A = GetArtifact(artifactOptions(R.Pipeline, R.Run));
  if (!A) {
    O.Err = A.error().render() + "\n";
    O.Exit = exitCodeForStage(A.error().Stage);
    return O;
  }
  if (R.Op == RequestOp::Check) {
    O.Out = renderCheckOutput(**A, R.Name, R.Run.Stats);
    return O;
  }
  return runArtifact(**A, R, Hooks);
}
