//===- driver/CompilePipeline.h - Shared compile/run pipeline ---*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reusable front half of `fearlessc` — parse + check + verify +
/// static analysis + bytecode lowering bundled into one immutable
/// CompiledArtifact — and the back half: executing an artifact and
/// rendering exactly the text the CLI prints. Factoring both out of
/// tools/fearlessc.cpp lets the `fearlessd` daemon (server/Server.h)
/// serve the same pipeline over a socket with **bit-identical** output:
/// client-mode runs and standalone runs compare equal byte for byte
/// because they are the same code path, not a re-implementation.
///
/// A CompiledArtifact is a pure function of (source text, options): it
/// holds no execution state, every run constructs its own Machine or
/// ParallelExec over it, and concurrent runs may share one artifact —
/// that is what makes the daemon's derivation cache
/// (server/DerivationCache.h) sound.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_DRIVER_COMPILEPIPELINE_H
#define FEARLESS_DRIVER_COMPILEPIPELINE_H

#include "analysis/StaticDisconnect.h"
#include "driver/Driver.h"
#include "support/Metrics.h"
#include "vm/Compiler.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace fearless {

class FaultInjector;
class TraceSession;
namespace mc {
struct Schedule;
}

/// Everything that changes what buildArtifact produces. The fingerprint
/// joins the source hash in the derivation-cache key, so two requests
/// with different options never share an artifact.
struct PipelineOptions {
  /// Checker liveness oracle (§5.1); --no-oracle turns it off.
  bool UseOracle = true;
  /// Interprocedural summaries at analysis call sites (PR 8).
  bool Interprocedural = true;
  /// Dynamic reservation checks: Machine-mode check emission and the
  /// checked-vs-erased VM codegen mode (--no-checks turns off).
  bool Checks = true;
  /// Elide statically proven `if disconnected` traversals (--no-elide
  /// turns off).
  bool Elide = true;
  /// Emit reservation-check ops into the bytecode. The CLI computes this
  /// as `Checks && !WorkersSet` (the parallel executor always runs
  /// erased — the checker proved the checks redundant).
  bool EmitChecks = true;

  /// Stable 64-bit fingerprint of every field above.
  uint64_t fingerprint() const;
};

/// The immutable product of the compile pipeline: AST + checked program
/// + verifier stats (Pipeline), the static region-graph analysis report
/// and its runtime verdict table, and the compiled bytecode. Shared
/// read-only by concurrent runs.
struct CompiledArtifact {
  Pipeline P;
  AnalysisReport Report;
  DisconnectVerdictTable Verdicts;
  /// The lowered bytecode every run executes. Always engaged once
  /// buildArtifact returns; optional only so callers that dereference
  /// it keep compiling.
  std::optional<vm::CompiledProgram> VmCode;
  /// The verdict split, stamped into --metrics output by runs.
  uint64_t MustDisconnectedSites = 0;
  uint64_t MustConnectedSites = 0;
  uint64_t UnknownSites = 0;
  /// The options the artifact was built under.
  PipelineOptions Options;
  /// Length of the source text the artifact was built from (cache
  /// accounting input).
  size_t SourceBytes = 0;

  /// Conservative estimate of resident bytes for cache budgeting: the
  /// AST, derivations, verdict table, and chunks all scale with source
  /// length, so the estimate is a calibrated multiple of it plus the
  /// bytecode pool actually measured.
  size_t approxBytes() const;
};

/// Runs parse + sema + check + verify + analyze + vm lowering over
/// \p Source. \p Trace, when set, records a `vm.compile`
/// span on a dedicated buffer. Failures carry the DiagnosticStage that
/// maps to the CLI exit-code table.
Expected<std::shared_ptr<const CompiledArtifact>>
buildArtifact(std::string_view Source, const PipelineOptions &Opts,
              TraceSession *Trace = nullptr);

/// What to execute and what to report. Everything `fearlessc run`
/// accepts except the artifact-level options above.
struct RunSpec {
  std::string Fn = "main";
  std::vector<int64_t> Args;
  /// Machine schedule seed (--seed).
  uint64_t Seed = 0;
  /// --workers: run on ParallelExec's M:N task scheduler.
  size_t Workers = 0;
  bool WorkersSet = false;
  uint64_t SchedSeed = 0;
  /// Append the --stats / --metrics lines to Out.
  bool Stats = false;
  bool Metrics = false;
  /// Deterministic fault injection; null = disabled. Must outlive the
  /// call.
  FaultInjector *Faults = nullptr;
  /// Structured tracing for the run; null = disabled.
  TraceSession *Trace = nullptr;
  /// Extra threads spawned alongside the entry (--spawn FN[:a,b,...],
  /// repeatable, in order). Machine mode only: this is how the CLI puts
  /// several root threads into the deterministic machine so `mc` and
  /// `run --schedule` have a schedule space to explore.
  std::vector<std::pair<std::string, std::vector<int64_t>>> Spawns;
  /// Replay a recorded schedule (--schedule FILE) instead of seeding the
  /// machine's own picker. Machine mode only; must outlive the call.
  const mc::Schedule *Schedule = nullptr;
};

/// A command-line call resolved against a program.
struct EntryCall {
  Symbol Fn;
  std::vector<Value> Args;
};

/// Resolves `Fn(Args...)` the way `fearlessc run` and `mc` accept it
/// (entry and --spawn alike): \p Fn must name a function whose
/// parameters are exactly \p Args.size() ints. The failure message is
/// the one-line diagnostic both print.
Expected<EntryCall> resolveEntryCall(const Pipeline &P,
                                     const std::string &Fn,
                                     const std::vector<int64_t> &Args);

/// One executed request: the exact bytes the CLI would print to stdout
/// (Out) and stderr (Err), the documented exit code, and the run's
/// metrics (valid when HasMetrics — compile-stage failures have none).
struct RunOutcome {
  int Exit = 0;
  std::string Out;
  std::string Err;
  RuntimeMetrics Metrics;
  bool HasMetrics = false;
};

/// Executes \p Spec.Fn over \p A's bytecode. Never throws and never
/// prints: all text lands in the outcome.
RunOutcome runArtifact(const CompiledArtifact &A, const RunSpec &Spec);

/// Renders `fearlessc check` output for \p A: the OK line (using
/// \p DisplayName verbatim), the analysis warnings, and optionally the
/// --stats block. Shared by the CLI and the daemon so both emit
/// identical bytes.
std::string renderCheckOutput(const CompiledArtifact &A,
                              std::string_view DisplayName,
                              bool Stats = false);

/// The documented exit code for a pipeline diagnostic (0 ok, 1 generic,
/// 2 usage, 3 parse, 4 check/verify, 5 runtime fault). One table,
/// shared by fearlessc, fearlessd, and the wire protocol's error codes.
int exitCodeForStage(DiagnosticStage Stage);

} // namespace fearless

#endif // FEARLESS_DRIVER_COMPILEPIPELINE_H
