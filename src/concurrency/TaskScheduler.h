//===- concurrency/TaskScheduler.h - M:N work-stealing scheduler *- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The M:N green-thread engine behind ParallelExec: language threads are
/// resumable tasks — the VM (runtime/StepOps.h) already yields at step
/// boundaries, so a task is just a ThreadState plus its result record —
/// scheduled onto a fixed pool of OS workers. Each worker owns a run
/// queue; work is taken own-queue first and stolen from peers when
/// empty, with a global inject queue for unparked tasks. Channel recv
/// parks the *task* (an intrusive ChannelWaiter — no allocation) instead
/// of blocking an OS thread; send hands values directly to parked
/// waiters. Every channel-set call returns the tasks it woke, and the
/// scheduler pushes them onto the inject queue after the set's mutex is
/// released: the set mutex, the scheduler mutex and the run-queue
/// mutexes are never held together.
///
/// It implements the executor's whole observable surface: the quiescence
/// shutdown and two-stage watchdog, the fault-injection points
/// (`thread.start`, `sched.step`, plus the VM's instrumented sites), the
/// abort on the first thread error, the trace event vocabulary
/// (`thread.run`, `chan.send`, `chan.recv`, `fault.escalated`,
/// `watchdog.*`), and the RuntimeMetrics counters, including
/// `tasks_spawned`, `steals`, and `parks`.
///
/// Scheduling is seeded (`SchedSeed`): seed 0 keeps round-robin initial
/// placement and sequential steal order; a nonzero seed permutes both
/// deterministically so property sweeps explore distinct schedules
/// reproducibly. docs/SCHEDULER.md documents task states, the parking
/// protocol, the lock rule, and the determinism knobs.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_CONCURRENCY_TASKSCHEDULER_H
#define FEARLESS_CONCURRENCY_TASKSCHEDULER_H

#include "concurrency/ParallelExec.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace fearless {

/// Terminal state of one language thread.
enum class ThreadRunOutcome { Cancelled, Finished, Errored };

/// Per-language-thread result record, folded into RuntimeMetrics and the
/// run's results by ParallelExec::run.
struct ThreadRunResult {
  Value Result;
  std::string Error;
  ThreadRunOutcome Out = ThreadRunOutcome::Cancelled;
  MachineStats Stats;
  /// The thread died to a structured fault (injected or a runtime trap),
  /// not a plain program error.
  bool Faulted = false;
};

/// Runs a batch of language threads as green tasks on a fixed worker
/// pool. Single-use: one run() per instance (ParallelExec constructs one
/// per run and enforces its own single-use contract on top).
class TaskScheduler {
public:
  /// Opts.VmCode must be set: the tasks run that bytecode.
  TaskScheduler(Heap &TheHeap, ChannelSet &Channels,
                const ParallelExecOptions &Opts);

  /// Scheduler-level counters of one run.
  struct RunStats {
    uint64_t TasksSpawned = 0;
    uint64_t Steals = 0;
    uint64_t Parks = 0;
    bool WatchdogFired = false;
    /// The executor control buffer (tid 0) and the run's start stamp on
    /// it, handed back so ParallelExec can close the exec.run span.
    TraceBuffer *Ctl = nullptr;
    uint64_t ExecStartNs = 0;
  };

  /// Runs every entry to completion (finished, cancelled, or errored)
  /// and returns one result record per entry, in spawn order.
  std::vector<ThreadRunResult> run(const std::vector<SpawnEntry> &Work,
                                   RunStats &Stats);

private:
  /// One resumable language thread. Derives from ChannelWaiter so
  /// parking on a channel is intrusive: the channel queues this very
  /// object, and unpark casts back. All fields are owned by whichever
  /// worker currently runs the task (ownership transfers through the
  /// run queues' mutexes).
  struct Task : ChannelWaiter {
    ThreadState T;
    size_t Index = 0;
    const SpawnEntry *E = nullptr;
    ThreadRunResult R;
    /// The next resume consumes WakeResult/Handoff (the task was parked
    /// on a channel). Set *before* the waiter is published.
    bool ResumeFromPark = false;
    bool Started = false;
    uint64_t TraceRunStartNs = 0;
  };

  /// Fixed-capacity FIFO ring of task pointers. Capacity is the total
  /// task count, so pushes never allocate or overflow; synchronization
  /// is the owner's external mutex.
  struct TaskRing {
    std::vector<Task *> Buf;
    size_t Head = 0, Count = 0;

    void init(size_t Capacity) { Buf.assign(Capacity ? Capacity : 1,
                                            nullptr); }
    bool empty() const { return Count == 0; }
    void push(Task *T) {
      Buf[(Head + Count) % Buf.size()] = T;
      ++Count;
    }
    Task *pop() {
      if (!Count)
        return nullptr;
      Task *T = Buf[Head];
      Head = (Head + 1) % Buf.size();
      --Count;
      return T;
    }
    /// Takes the most recently pushed task (the opposite end from the
    /// owner's pop) — classic steal-from-the-back.
    Task *steal() {
      if (!Count)
        return nullptr;
      --Count;
      return Buf[(Head + Count) % Buf.size()];
    }
  };

  struct Worker {
    std::mutex QM;
    TaskRing Q; ///< Guarded by QM.
    TraceBuffer *TB = nullptr;
    uint64_t Steals = 0;
    uint64_t Parks = 0;
    /// Steal order over the other workers (seeded permutation).
    std::vector<uint32_t> Victims;
    std::thread Thread;
  };

  void workerLoop(size_t W);
  Task *nextTask(size_t W);
  void resume(size_t W, Task &T);
  /// The thread died with \p Error: fail it, abort the run and wake every
  /// parked receiver.
  void abortRun(size_t W, Task &T, std::string Error, bool Faulted);
  void finish(size_t W, Task &T);
  /// Makes every task of a chain a channel-set call returned runnable
  /// (value handoff or channel closure): only enqueues on the inject
  /// queue — each runs later on a worker. Never called with the set
  /// mutex held.
  void unpark(ChannelWaiter *Woken);
  StepServices services(Task &T);

  Heap &TheHeap;
  ChannelSet &Channels;
  const ParallelExecOptions &Opts;

  std::vector<Task> Tasks;
  std::deque<Worker> Workers; ///< Deque: workers are never moved.

  /// Global scheduler mutex: inject queue, done counter,
  /// worker sleep/wake. Never held together with the channel-set mutex
  /// or a worker's QM.
  std::mutex SchedM;
  std::condition_variable WorkCV; ///< Workers idle-wait here.
  std::condition_variable DoneCV; ///< run() waits for completion here.
  TaskRing Inject;                ///< Unparked tasks; guarded by SchedM.
  size_t DoneCount = 0;   ///< Guarded by SchedM.
  bool StopWorkers = false; ///< Guarded by SchedM.
  std::atomic<bool> AbortFlag{false};
};

} // namespace fearless

#endif // FEARLESS_CONCURRENCY_TASKSCHEDULER_H
