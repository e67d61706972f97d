//===- runtime/Machine.h - Concurrent configuration -------------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concurrent configuration of §7: one shared heap h and n threads,
/// each with its own reservation d_i, stack s_i, and control e_i. The
/// machine steps threads under a deterministic (optionally seeded)
/// scheduler and pairs blocked send/recv threads per rule EC3: the sender
/// chooses a root location, the live-set reachable from it must lie in
/// the sender's reservation, and the whole set transfers to the receiver.
///
/// The machine also exposes a host API for building object graphs
/// directly into a thread's reservation (tests and examples use it to
/// call functions like remove_tail on pre-built lists).
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_RUNTIME_MACHINE_H
#define FEARLESS_RUNTIME_MACHINE_H

#include "checker/Checker.h"
#include "runtime/Heap.h"
#include "runtime/StepOps.h"
#include "support/Expected.h"
#include "support/Metrics.h"
#include "vm/Bytecode.h"

#include <deque>
#include <functional>
#include <optional>

namespace fearless {

class Machine;

/// Machine configuration.
struct MachineOptions {
  /// Dynamic reservation checks (§3.2). Erasable for well-typed programs;
  /// bench_vm measures exactly this toggle (checked vs erased bytecode).
  bool CheckReservations = true;
  /// Per-site verdicts from the static region-graph analysis; must
  /// outlive the machine. Null disables elision regardless of
  /// ElideDisconnect.
  const DisconnectVerdictTable *StaticVerdicts = nullptr;
  /// Answer must-* `if disconnected` sites from StaticVerdicts without
  /// running the traversal (`fearlessc run --no-elide` turns this off).
  bool ElideDisconnect = true;
  /// Re-run the real traversal on every elided check and fail on
  /// disagreement. Defaults on in debug builds; tests enable it
  /// explicitly elsewhere.
#ifndef NDEBUG
  bool CrossCheckElision = true;
#else
  bool CrossCheckElision = false;
#endif
  uint64_t MaxSteps = 500'000'000;
  /// Deterministic fault injection (support/FaultInjector.h): consulted
  /// at thread start, per scheduler pulse (`sched.step`), and by the
  /// VM's instrumented sites. Null = disabled (one pointer test per
  /// site). Must outlive run().
  FaultInjector *Faults = nullptr;
  /// Structured tracing (support/Trace.h): when set, run() registers one
  /// ring buffer per language thread (plus a machine control buffer) and
  /// records send/recv wait spans, `if disconnected` traversal spans,
  /// and VM dispatch batches. Null = disabled (no overhead beyond a
  /// pointer test per site). Must outlive the machine's run().
  TraceSession *Trace = nullptr;
  /// Soundness-testing hook: run after every small step; a returned
  /// message aborts the run. Tests install the §6 invariant validators
  /// here to check I1/I2-style properties at *every* intermediate state.
  std::function<std::optional<std::string>(const Machine &)>
      StepValidator;
  /// The bytecode threads execute (vm/Vm.h). Must be lowered from the
  /// same CheckedProgram, in the mode CheckReservations names (checked
  /// bytecode iff checks are on; run() and beginStepping() report a
  /// mismatch), and outlive run(). Null = the machine lowers
  /// the program itself at construction, from CheckReservations,
  /// StaticVerdicts, ElideDisconnect and CrossCheckElision. The VM
  /// batches instructions, so one "step" (MaxSteps, StepValidator,
  /// scheduler pulse) covers up to a batch of ops.
  const vm::CompiledProgram *VmCode = nullptr;
};

/// Result of a completed run.
struct MachineSummary {
  std::vector<Value> ThreadResults;
  uint64_t Steps = 0;
};

/// What one scheduled step did: the model checker's view of a transition
/// (src/mc/DependencyRelation.h decides commutativity over these) and
/// the payload of deadlock/counterexample reports.
struct McStepRecord {
  enum class Kind : uint8_t {
    Local,     ///< Progressed without touching the communication layer.
    Finish,    ///< The thread produced its result.
    BlockSend, ///< Blocked in send-τ with no matching receiver yet.
    BlockRecv, ///< Blocked in recv-τ with no matching sender yet.
    CommPair,  ///< Blocked and immediately paired (the EC3 transfer ran).
  };
  ThreadId Thread = 0;
  Kind StepKind = Kind::Local;
  /// Valid for BlockSend/BlockRecv/CommPair: the rendezvous type τ.
  /// Type-routed pairing makes τ the channel identity, so two comm steps
  /// of different types never interact.
  bool HasCommType = false;
  Type CommType{};
  /// Valid for CommPair: the thread resumed on the other side.
  ThreadId Partner = 0;
  /// Bitmask of FaultPoint indices whose occurrence counter advanced
  /// during the step. Armed fault points are global mutable state (the
  /// injector's triggers are occurrence-indexed), so two steps that
  /// consult the same armed point do not commute.
  uint32_t FaultPointsTouched = 0;
};

/// State of a stepping session between choices.
enum class MachineProgress : uint8_t { Running, Done, Deadlock };

/// The concurrent abstract machine.
class Machine {
public:
  /// \p Checked must outlive the machine. The program is expected to have
  /// passed the checker; running unchecked programs is possible (tests use
  /// it for failure injection) and surfaces violations as errors. Without
  /// Opts.VmCode the program is lowered here; a lowering failure, like a
  /// VmCode whose mode mismatches Opts.CheckReservations, is reported by
  /// run() / beginStepping().
  explicit Machine(const CheckedProgram &Checked, MachineOptions Opts = {});
  /// Opts.VmCode may point into the machine itself.
  Machine(const Machine &) = delete;
  Machine &operator=(const Machine &) = delete;

  /// Creates a thread that will run \p FnName(\p Args). Regionful
  /// arguments must reference graphs previously built into this thread's
  /// reservation via the host API.
  ThreadId spawn(Symbol FnName, std::vector<Value> Args = {});

  /// Two-phase spawn: create the thread first (so host allocation can
  /// target its reservation), build graphs, then start it.
  ThreadId createThread();
  void startThread(ThreadId T, Symbol FnName, std::vector<Value> Args);

  //===--------------------------------------------------------------------===
  // Host-side graph construction (before run())
  //===--------------------------------------------------------------------===

  /// Allocates a default-initialized object into thread \p T's
  /// reservation.
  Loc hostAlloc(ThreadId T, Symbol StructName);
  /// Writes a field by name (maintains stored reference counts).
  void hostSetField(Loc L, Symbol Field, Value V);
  /// Reads a field by name.
  Value hostGetField(Loc L, Symbol Field) const;

  //===--------------------------------------------------------------------===
  // Execution
  //===--------------------------------------------------------------------===

  /// Runs until every thread finishes. \p Seed selects the interleaving:
  /// 0 is round-robin; otherwise a seeded xorshift picks among runnable
  /// threads. Fails on stuck threads (reservation violations / runtime
  /// faults), deadlock, or step exhaustion. Implemented on the stepping
  /// API below, so run() and externally driven schedules share one code
  /// path. When \p Choices is set, every pick made while two or more
  /// threads were runnable is appended to it, up to a failure if there
  /// is one: the schedule (mc::Schedule::Choices) that mc::runSchedule
  /// replays.
  Expected<MachineSummary> run(uint64_t Seed = 0,
                               std::vector<uint32_t> *Choices = nullptr);

  //===--------------------------------------------------------------------===
  // Incremental stepping (the model checker / schedule replay drive the
  // scheduler choice themselves)
  //===--------------------------------------------------------------------===

  /// Opens a stepping session: trace buffers, step services, and the
  /// thread.start fault points (which fire before any choice is made).
  /// Fails when the program could not be lowered or an injected
  /// thread.start fault aborts the run.
  ExpectedVoid beginStepping();
  /// Classifies the current configuration. Attempts EC3 pairing first
  /// when no thread is runnable (mirroring run()), so Deadlock really
  /// means no step and no pairing can happen. Fails when the pairing
  /// attempt itself is illegal (reservation violation / trap).
  Expected<MachineProgress> checkProgress();
  /// Thread indices runnable after the last checkProgress() call.
  const std::vector<size_t> &runnableThreads() const;
  /// Advances thread \p Pick by one small step, mirroring exactly one
  /// scheduler turn of run(): sched.step fault point, the step itself,
  /// the step validator, the step limit, and eager EC3 pairing when the
  /// step blocked. Returns what the step did.
  Expected<McStepRecord> stepChosen(size_t Pick);
  /// Closes the session once checkProgress() returned Done: summary,
  /// machine.run trace span, aggregated step count.
  Expected<MachineSummary> finishStepping();

  /// The deadlock diagnostic run() and the model checker report: the
  /// headline plus a per-thread blocked-state dump.
  std::string deadlockMessage() const;
  /// One line per unfinished thread: the blocking channel op, its
  /// rendezvous type, the pending payload (with live-set size), and the
  /// reservation size.
  std::string blockedStateDump() const;
  /// Order-insensitive fingerprint of the final configuration: thread
  /// statuses and results with heap locations renamed in DFS visit
  /// order, so two schedules that allocate in different orders compare
  /// equal iff their results are isomorphic. The model checker uses it
  /// for the schedule-independence (confluence) property.
  uint64_t resultFingerprint() const;

  Heap &heap() { return TheHeap; }
  const Heap &heap() const { return TheHeap; }
  const MachineStats &stats() const { return Stats; }
  /// Aggregated counters in the common RuntimeMetrics schema (the same
  /// registry the parallel executor reports).
  RuntimeMetrics metrics() const;
  const std::vector<ThreadState> &threads() const { return Threads; }
  /// The bytecode the threads run; null when lowering failed.
  const vm::CompiledProgram *code() const { return Opts.VmCode; }
  /// The structured fault that failed the last run(), when the failure
  /// was a runtime trap or an injected fault (empty for plain errors
  /// such as deadlock or a reservation violation). fearlessc maps this
  /// to its distinct runtime-fault exit code.
  const std::optional<RuntimeFault> &lastFault() const {
    return LastFault;
  }
  bool inReservation(ThreadId T, Loc L) const {
    return Threads[T].Reservation.count(L.Index) != 0;
  }

private:
  /// Attempts to pair one blocked sender with a type-compatible blocked
  /// receiver (EC3). Returns true if a transfer happened; the error slot
  /// is set when the transfer itself is illegal.
  bool tryCommunicate(std::string &Error);
  /// tryCommunicate behind the trap frontier: an EC3 walk over an
  /// invalid location surfaces as a typed fault, not a process death.
  bool communicate(std::string &Error);

  bool valueMatchesType(const Value &V, const Type &Ty) const;

  /// Per-session state of the incremental stepping API.
  struct SteppingState {
    StepServices Services;
    TraceBuffer *TraceCtl = nullptr;
    uint64_t TraceRunStart = 0;
    uint64_t Steps = 0;
    std::vector<size_t> Runnable;
    std::vector<ThreadStatus> StatusScratch;
  };
  std::optional<SteppingState> Stepping;

  const CheckedProgram &Checked;
  MachineOptions Opts;
  /// The machine's own lowering, when Opts.VmCode was not given; a
  /// failure when the given VmCode's mode mismatched CheckReservations.
  std::optional<Expected<vm::CompiledProgram>> Lowered;
  Heap TheHeap;
  MachineStats Stats;
  std::vector<ThreadState> Threads;
  std::optional<RuntimeFault> LastFault;
  /// Reusable send-path buffers (EC3 live-set transfer): liveSetInto
  /// clears and refills them, so steady-state sends allocate nothing.
  std::vector<Loc> LiveBuf;
  EpochSet LiveSeen;
};

} // namespace fearless

#endif // FEARLESS_RUNTIME_MACHINE_H
