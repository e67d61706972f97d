//===- driver/CompilePipeline.h - Shared compile/run pipeline ---*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reusable front half of `fearlessc` — parse + check + verify +
/// static analysis + bytecode lowering bundled into one immutable
/// CompiledArtifact — and the back half: one Request value (op, source,
/// entry call and every option) and the one handler, serveRequest, that
/// turns a request into exactly the bytes and exit code the CLI prints.
/// `fearlessc` builds the request from argv; the `fearlessd` daemon
/// (server/Server.h) decodes it from the wire. Both call serveRequest,
/// so client-mode and standalone output compare equal byte for byte
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
#include <functional>
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
  /// Emit reservation-check ops into the bytecode. A request never sets
  /// this itself: artifactOptions() derives it.
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
  VerdictCounts Split;
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

using ArtifactResult = Expected<std::shared_ptr<const CompiledArtifact>>;

/// Runs parse + sema + check + verify + analyze + vm lowering over
/// \p Source. \p Trace, when set, records a `vm.compile`
/// span on a dedicated buffer. Failures carry the DiagnosticStage that
/// maps to the CLI exit-code table.
ArtifactResult buildArtifact(std::string_view Source,
                             const PipelineOptions &Opts,
                             TraceSession *Trace = nullptr);

/// How `run` executes and what it reports (not cache-key relevant).
struct RunOptions {
  /// Machine schedule seed (--seed).
  uint64_t Seed = 0;
  /// --workers: run on ParallelExec's M:N task scheduler with this many
  /// workers (0 = auto-sized pool). Unset: the deterministic machine.
  std::optional<size_t> Workers;
  /// Scheduling-decision seed for --workers runs (--sched-seed).
  uint64_t SchedSeed = 0;
  /// Append the --stats / --metrics lines to stdout.
  bool Stats = false;
  bool Metrics = false;
};

/// The operations a request names. serveRequest serves Check, Analyze
/// and Run; Metrics and Shutdown address the daemon itself.
enum class RequestOp : uint8_t { Check, Analyze, Run, Metrics, Shutdown };

/// One `fearlessc` command as a value: what `fearlessc` builds from argv
/// and what the wire carries (server::WireRequest adds only the client's
/// correlation id). Every option a request can set lives here once.
struct Request {
  RequestOp Op = RequestOp::Check;
  /// Display name for diagnostics (the client's file path).
  std::string Name;
  /// The program text (check/analyze/run).
  std::string Source;
  /// run: entry function and integer arguments.
  std::string Fn = "main";
  std::vector<int64_t> Args;
  /// What the artifact is built under (the derivation-cache key side);
  /// Pipeline.EmitChecks is ignored, see artifactOptions().
  PipelineOptions Pipeline;
  RunOptions Run;
  SourceAnalysisOptions Analyze;
};

/// The options an artifact for \p Run is built under: \p PO with check
/// emission decided. Bytecode carries reservation checks when checks are
/// on and the run stays on the deterministic machine; the parallel
/// executor always runs erased (the checker proved the checks
/// redundant).
PipelineOptions artifactOptions(PipelineOptions PO, const RunOptions &Run);

/// Execution hooks only the standalone CLI sets; the wire carries none.
struct LocalHooks {
  /// Deterministic fault injection (--faults); null = disabled. Must
  /// outlive the call.
  FaultInjector *Faults = nullptr;
  /// Structured tracing for the run (--trace); null = disabled.
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

/// One served request: the exact bytes the CLI would print to stdout
/// (Out) and stderr (Err), the documented exit code, and the metrics of
/// the run, when one executed.
struct RequestOutcome {
  int Exit = 0;
  std::string Out;
  std::string Err;
  std::optional<RuntimeMetrics> Metrics;
};

/// Returns the artifact of the request's source built under the given
/// options: buildArtifact in the CLI, the derivation cache in fearlessd.
using ArtifactGetter = std::function<ArtifactResult(const PipelineOptions &)>;

/// Serves a check, analyze or run request: the one place that decides
/// what each prints and which exit code it reports. \p GetArtifact is
/// called once, for check and run. Never throws and never prints.
RequestOutcome serveRequest(const Request &R, const ArtifactGetter &GetArtifact,
                            const LocalHooks &Hooks = {});

/// The documented exit code for a pipeline diagnostic (0 ok, 1 generic,
/// 2 usage, 3 parse, 4 check/verify, 5 runtime fault). One table,
/// shared by fearlessc, fearlessd, and the wire protocol's error codes.
int exitCodeForStage(DiagnosticStage Stage);

} // namespace fearless

#endif // FEARLESS_DRIVER_COMPILEPIPELINE_H
