//===- concurrency/ParallelExec.h - Parallel executor -----------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "production" runtime: language threads run over the shared heap
/// with the dynamic reservation checks *erased* (Theorems 6.1/6.2 make
/// them redundant for checked programs) and send/recv realized by real
/// channels. Object accesses take no locks — that is fearless
/// concurrency: the type system already guarantees threads touch
/// disjoint parts of the heap.
///
/// Language threads are resumable green tasks on an M:N work-stealing
/// scheduler (TaskScheduler.h): a fixed pool of OS workers, per-worker
/// run queues, channel send/recv that parks and unparks *tasks*. Scales
/// to 100k language threads (bench_scheduler); docs/SCHEDULER.md
/// describes the machinery. The deterministic abstract machine
/// (runtime/Machine.h) is the reference the tests hold it to.
///
/// Shutdown protocol: when every thread that could still send has
/// finished, the channel set closes cleanly and threads parked in recv
/// stop as *cancelled* rather than deadlocking run() (see Channel.h). A
/// thread error — a program error or a structured fault, injected or a
/// runtime trap — or the optional watchdog aborts the run instead, waking
/// every parked receiver; all thread errors are reported, not just the
/// first. The watchdog escalates in two stages: soft cancel (close the
/// channels, let blocked receivers drain-then-stop within a grace
/// period), then hard abortAll. Per-thread counters are aggregated into
/// a RuntimeMetrics registry at join.
///
/// Runs `fearlessc run --workers N`, `fearlessd` run requests,
/// perfbench's exec-programs workload, bench_concurrency (E7),
/// bench_scheduler and the message-passing example.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_CONCURRENCY_PARALLELEXEC_H
#define FEARLESS_CONCURRENCY_PARALLELEXEC_H

#include "checker/Checker.h"
#include "concurrency/Channel.h"
#include "runtime/Heap.h"
#include "runtime/StepOps.h"
#include "support/Expected.h"
#include "support/Metrics.h"
#include "vm/Bytecode.h"

#include <optional>

namespace fearless {

/// Executor configuration.
struct ParallelExecOptions {
  /// Wall-clock budget for run(); when exceeded, the run aborts with a
  /// diagnostic instead of hanging (a genuinely stuck workload — e.g. an
  /// infinite loop — is otherwise unobservable from outside). 0 disables
  /// the watchdog; pure recv deadlocks are already resolved by channel
  /// closure and need no watchdog.
  /// When the budget expires, the run is first *soft* cancelled
  /// (channels close cleanly; blocked receivers drain then stop) and
  /// given a 50 ms grace to finish before the hard abortAll.
  uint64_t WatchdogMillis = 0;
  /// Deterministic fault injection (support/FaultInjector.h): consulted
  /// per thread start (`thread.start`), per worker step (`sched.step`),
  /// and by the VM's instrumented sites. A fired fault aborts the run.
  /// Null = disabled (one pointer test per site). Shared by all workers;
  /// must outlive run().
  FaultInjector *Faults = nullptr;
  /// Structured tracing (support/Trace.h): when set, run() gives every
  /// worker its own ring buffer (channel send/recv spans including
  /// blocked time, `if disconnected` spans, step ticks, a whole-thread
  /// span), the channel set a lifecycle buffer, and the executor a
  /// control buffer (watchdog). Null = disabled. Must outlive run().
  TraceSession *Trace = nullptr;
  /// Requested size of the worker pool; 0 = 2x hardware threads. The
  /// pool never exceeds the number of spawned tasks.
  size_t NumWorkers = 0;
  /// Scheduling-decision seed (`--sched-seed`). Seed 0 keeps
  /// round-robin initial placement and sequential steal order (the
  /// near-deterministic default); a nonzero seed permutes both, giving
  /// the property sweeps distinct-but-reproducible schedules. Results of
  /// checked programs are schedule-independent either way.
  uint64_t SchedSeed = 0;
  /// Steps a task may run before it is preempted back to the
  /// run queue, bounding how long a spinner can monopolize a worker.
  uint32_t PreemptQuantum = 128;
  /// The bytecode threads execute (vm/Vm.h). Must be lowered from the
  /// same CheckedProgram and outlive run(). Null = the executor lowers
  /// the program itself at construction, with checks erased and every
  /// `if disconnected` site dynamic. The VM's per-thread state lives in
  /// the ThreadState, so parking and preemption work unchanged.
  const vm::CompiledProgram *VmCode = nullptr;
};

/// One registered entry point (a language thread to run).
struct SpawnEntry {
  Symbol Fn;
  std::vector<Value> Args;
};

/// Runs a set of entry functions on the task pool until all finish.
class ParallelExec {
public:
  /// Without Opts.VmCode the program is lowered here; a lowering failure
  /// is reported by run().
  explicit ParallelExec(const CheckedProgram &Checked,
                        ParallelExecOptions Opts = {});
  /// Opts.VmCode may point into the executor itself.
  ParallelExec(const ParallelExec &) = delete;
  ParallelExec &operator=(const ParallelExec &) = delete;

  /// Registers a thread that will run \p FnName(\p Args). Must not be
  /// called after run().
  void spawn(Symbol FnName, std::vector<Value> Args = {});

  /// Launches all registered threads, joins them, and returns their
  /// results (in spawn order). Send without a matching receiver is
  /// buffered (asynchronous channels); recv parks. A thread whose recv
  /// can never be satisfied is cancelled cleanly (its result is unit and
  /// metrics().ThreadsCancelled counts it); a thread error or watchdog
  /// expiry cancels the run and reports every failed thread. May be
  /// called at most once per executor.
  Expected<std::vector<Value>> run();

  Heap &heap() { return TheHeap; }
  uint64_t totalSteps() const { return Metrics.Steps; }

  /// Aggregated counters of the last run (valid after run() returns).
  const RuntimeMetrics &metrics() const { return Metrics; }

private:
  ParallelExecOptions Opts;
  /// The executor's own lowering, when Opts.VmCode was not given.
  std::optional<Expected<vm::CompiledProgram>> Lowered;
  Heap TheHeap;
  ChannelSet Channels;
  std::vector<SpawnEntry> Entries;
  RuntimeMetrics Metrics;
  bool Ran = false;
};

} // namespace fearless

#endif // FEARLESS_CONCURRENCY_PARALLELEXEC_H
