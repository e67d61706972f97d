//===- concurrency/TaskScheduler.cpp --------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "concurrency/TaskScheduler.h"

#include "runtime/StepOps.h"
#include "support/FaultInjector.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>

using namespace fearless;

namespace {

/// splitmix64 finalizer: the scheduler's only randomness source, so every
/// placement and steal order is a pure function of SchedSeed.
uint64_t mix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

/// The watchdog's soft-cancel grace: after the budget expires the
/// channels close cleanly, and the run gets this long to quiesce before
/// the hard abort.
constexpr uint64_t WatchdogGraceMillis = 50;

} // namespace

TaskScheduler::TaskScheduler(Heap &TheHeap, ChannelSet &Channels,
                             const ParallelExecOptions &Opts)
    : TheHeap(TheHeap), Channels(Channels), Opts(Opts) {}

void TaskScheduler::unpark(ChannelWaiter *Woken) {
  if (!Woken)
    return;
  // Only enqueue. The chain belongs to the caller until it is pushed,
  // and the whole push holds SchedM, under which alone a worker pops the
  // inject queue: no woken task can run (and relink NextWaiter) before
  // the lock is released.
  bool Many = Woken->NextWaiter != nullptr;
  {
    std::lock_guard<std::mutex> Lock(SchedM);
    while (Woken) {
      ChannelWaiter *Next = Woken->NextWaiter;
      Inject.push(static_cast<Task *>(Woken));
      Woken = Next;
    }
  }
  if (Many)
    WorkCV.notify_all();
  else
    WorkCV.notify_one();
}

StepServices TaskScheduler::services(Task &T) {
  StepServices Services;
  Services.TheHeap = &TheHeap;
  Services.Stats = &T.R.Stats;
  Services.Faults = Opts.Faults;
  Services.VmCode = Opts.VmCode;
  return Services;
}

void TaskScheduler::workerLoop(size_t W) {
  while (Task *T = nextTask(W))
    resume(W, *T);
}

TaskScheduler::Task *TaskScheduler::nextTask(size_t W) {
  Worker &Me = Workers[W];
  for (;;) {
    // Unparked tasks first, so a busy local queue can never starve
    // them.
    {
      std::lock_guard<std::mutex> Lock(SchedM);
      if (StopWorkers)
        return nullptr;
      if (Task *T = Inject.pop())
        return T;
    }
    // Own queue, then steal from peers in this worker's victim order.
    {
      std::lock_guard<std::mutex> Lock(Me.QM);
      if (Task *T = Me.Q.pop())
        return T;
    }
    for (uint32_t V : Me.Victims) {
      Worker &Victim = Workers[V];
      std::lock_guard<std::mutex> Lock(Victim.QM);
      if (Task *T = Victim.Q.steal()) {
        ++Me.Steals;
        return T;
      }
    }
    // Idle: sleep until an unpark or stop — with a short poll as the
    // safety net for work that is only stealable (peer queues are not
    // covered by WorkCV).
    {
      std::unique_lock<std::mutex> Lock(SchedM);
      if (StopWorkers)
        return nullptr;
      if (!Inject.empty())
        continue;
      WorkCV.wait_for(Lock, std::chrono::milliseconds(2));
    }
  }
}

void TaskScheduler::resume(size_t W, Task &T) {
  Worker &Me = Workers[W];
  FaultInjector *Faults = Opts.Faults;

  if (!T.Started) {
    T.Started = true;
    T.TraceRunStartNs = Me.TB ? Me.TB->now() : 0;
    T.T.Id = static_cast<ThreadId>(T.Index);
    enterThread(T.T, *Opts.VmCode, T.E->Fn, T.E->Args);
    // Pre-size the `if disconnected` scratch to the graphs built before
    // run(), keeping growth out of the measured region.
    T.T.Scratch.reserve(TheHeap.size());
    // thread.start fault point: the thread dies before its first step.
    if (Faults && Faults->shouldFire(FaultPoint::ThreadStart)) {
      abortRun(W, T, injectedFault(FaultPoint::ThreadStart, T.T.Id).render(),
               true);
      return;
    }
  }

  if (T.ResumeFromPark) {
    T.ResumeFromPark = false;
    // The chan.recv span of a parked receive closes here at the wake,
    // covering the whole blocked time. The start was stamped by the
    // parking worker; stamps are session-origin-relative, so the
    // cross-buffer duration is consistent.
    if (Me.TB)
      Me.TB->record("chan.recv", "channel", 'X', T.T.TraceBlockStartNs,
                    Me.TB->now() - T.T.TraceBlockStartNs);
    switch (T.WakeResult) {
    case RecvResult::Ok:
      ++T.R.Stats.Recvs;
      resumeThread(T.T, T.Handoff);
      T.Handoff = Value();
      break;
    case RecvResult::Parked:
      // A woken waiter always carries Ok, Closed or Aborted; Parked here
      // is a broken channel-set invariant, not a cancellation.
      assert(false && "Parked is never a wake result");
      std::abort();
    case RecvResult::Closed:
    case RecvResult::Aborted:
      // Closed: every possible sender finished — a clean stop, the task
      // is cancelled mid-recv with a unit result. Aborted: another
      // thread failed or the watchdog fired; the originating diagnostic
      // is reported, not this task.
      T.R.Result = Value::unitVal();
      T.R.Out = ThreadRunOutcome::Cancelled;
      finish(W, T);
      return;
    }
  }

  // The task records into the current worker's buffer for this quantum;
  // exactly one worker runs a task at a time, so the single-writer rule
  // holds even as the task migrates.
  T.T.Trace = Me.TB;
  StepServices Services = services(T);

  for (uint32_t Step = 0; Step < Opts.PreemptQuantum; ++Step) {
    if (AbortFlag.load(std::memory_order_relaxed)) {
      // Hard abort: stop at the step boundary; the outcome stays
      // Cancelled — the originating error is reported by whoever
      // aborted.
      finish(W, T);
      return;
    }
    // sched.step fault point: the scheduler's per-step pulse.
    if (Faults && Faults->shouldFire(FaultPoint::SchedStep)) {
      abortRun(W, T, injectedFault(FaultPoint::SchedStep, T.T.Id).render(),
               true);
      return;
    }
    switch (stepThread(T.T, Services)) {
    case StepOutcome::Progress:
      break;
    case StepOutcome::Finished:
      T.R.Result = T.T.Result;
      T.R.Out = ThreadRunOutcome::Finished;
      finish(W, T);
      return;
    case StepOutcome::BlockedSend: {
      // Sends never block (channels are unbounded; a parked receiver
      // gets the value handed to it directly).
      TraceSpan Span(T.T.Trace, "chan.send", "channel");
      unpark(Channels.send(T.T.CommType, T.T.PendingSend));
      ++T.R.Stats.Sends;
      T.T.PendingSend = Value();
      resumeThread(T.T, Value::unitVal());
      break;
    }
    case StepOutcome::BlockedRecv: {
      // Park protocol. Everything the resuming worker needs — the
      // blocked-span start and the consume-wake flag — is written
      // *before* recvOrPark publishes the waiter: the moment it does, a
      // racing sender can hand off and another worker can resume the
      // task.
      uint64_t RecvStart = Me.TB ? Me.TB->now() : 0;
      T.T.TraceBlockStartNs = RecvStart;
      T.ResumeFromPark = true;
      Value Received;
      ChannelWaiter *Woken = nullptr;
      RecvResult A = Channels.recvOrPark(T.T.CommType, Received, T, Woken);
      if (A == RecvResult::Parked) {
        ++Me.Parks;
        // Parking already took the task out of the potential senders;
        // if that quiesced the run, the task itself is in Woken. It may
        // already be running elsewhere: touch nothing of it from here
        // on.
        unpark(Woken);
        return;
      }
      T.ResumeFromPark = false;
      if (Me.TB)
        Me.TB->record("chan.recv", "channel", 'X', RecvStart,
                      Me.TB->now() - RecvStart);
      if (A == RecvResult::Ok) {
        ++T.R.Stats.Recvs;
        resumeThread(T.T, Received);
        break;
      }
      // Closed / Aborted: clean stop (see the parked-wake case above).
      T.R.Result = Value::unitVal();
      T.R.Out = ThreadRunOutcome::Cancelled;
      finish(W, T);
      return;
    }
    case StepOutcome::Stuck:
      abortRun(W, T, T.T.Error, T.T.Fault.has_value());
      return;
    }
  }

  // Quantum exhausted: preempt back to the local queue so a spinner
  // cannot monopolize this worker (the global-first order in nextTask
  // then guarantees unparked tasks get a turn).
  {
    std::lock_guard<std::mutex> Lock(Me.QM);
    Me.Q.push(&T);
  }
  WorkCV.notify_one();
}

void TaskScheduler::abortRun(size_t W, Task &T, std::string Error,
                             bool Faulted) {
  Worker &Me = Workers[W];
  T.R.Error = std::move(Error);
  T.R.Out = ThreadRunOutcome::Errored;
  T.R.Faulted = Faulted;
  if (Faulted && Me.TB)
    Me.TB->instant("fault.escalated", "fault");
  // Parked tasks wake with RecvResult::Aborted; running ones stop at
  // their next step boundary.
  AbortFlag.store(true, std::memory_order_relaxed);
  unpark(Channels.abortAll());
  finish(W, T);
}

void TaskScheduler::finish(size_t W, Task &T) {
  Worker &Me = Workers[W];
  if (Me.TB) {
    const char *OutName = T.R.Out == ThreadRunOutcome::Finished ? "finished"
                          : T.R.Out == ThreadRunOutcome::Errored
                              ? "errored"
                              : "cancelled";
    Me.TB->instant(OutName, "thread");
    Me.TB->record("thread.run", "thread", 'X', T.TraceRunStartNs,
                  Me.TB->now() - T.TraceRunStartNs, "steps",
                  T.R.Stats.Steps);
  }
  unpark(Channels.threadFinished());
  bool AllDone = false;
  {
    std::lock_guard<std::mutex> Lock(SchedM);
    ++DoneCount;
    if (DoneCount == Tasks.size()) {
      StopWorkers = true;
      AllDone = true;
    }
  }
  if (AllDone) {
    WorkCV.notify_all();
    DoneCV.notify_all();
  }
}

std::vector<ThreadRunResult>
TaskScheduler::run(const std::vector<SpawnEntry> &Work, RunStats &Stats) {
  Stats.TasksSpawned = Work.size();
  if (Work.empty())
    return {};

  size_t HW = std::thread::hardware_concurrency();
  if (!HW)
    HW = 1;
  // Tasks never spawn tasks, so a worker past the task count could never
  // get work.
  size_t N = std::min<size_t>(Opts.NumWorkers ? Opts.NumWorkers : 2 * HW,
                              Work.size());

  // Task storage is preallocated and never moves: channels and queues
  // hold raw pointers into it for the whole run.
  Tasks.resize(Work.size());
  for (size_t I = 0; I < Work.size(); ++I) {
    Task &T = Tasks[I];
    T.Index = I;
    T.E = &Work[I];
  }
  Inject.init(Work.size());
  for (size_t WI = 0; WI < N; ++WI) {
    Workers.emplace_back();
    Workers.back().Q.init(Work.size());
  }

  // Seeded placement and steal order: seed 0 = round-robin placement and
  // sequential victim order; nonzero seeds permute both, deterministically.
  for (size_t I = 0; I < Tasks.size(); ++I) {
    size_t WI = Opts.SchedSeed == 0 ? I % N
                                    : mix64(Opts.SchedSeed ^ (0xA5A5ull + I)) % N;
    Workers[WI].Q.push(&Tasks[I]); // pre-start: no worker is running yet
  }
  for (size_t WI = 0; WI < N; ++WI) {
    std::vector<uint32_t> &V = Workers[WI].Victims;
    for (size_t O = 1; O < N; ++O)
      V.push_back(static_cast<uint32_t>((WI + O) % N));
    if (Opts.SchedSeed != 0) {
      uint64_t R = Opts.SchedSeed ^ (WI * 0x632BE59Bull + 1);
      for (size_t K = V.size(); K > 1; --K) {
        R = mix64(R);
        std::swap(V[K - 1], V[R % K]);
      }
    }
  }

  Channels.registerThreads(Work.size());

  // Tracing: register every buffer up front (worker W -> tid W+1) so no
  // worker touches the session mutex after it starts. The executor's
  // control buffer is tid 0; the channel set's lifecycle buffer sits
  // past the workers.
  TraceBuffer *TraceCtl = nullptr;
  if (Opts.Trace) {
    TraceCtl = &Opts.Trace->registerThread(0, "executor");
    for (size_t WI = 0; WI < N; ++WI)
      Workers[WI].TB =
          &Opts.Trace->registerThread(static_cast<uint32_t>(WI + 1),
                                      "worker");
    Channels.setTrace(
        &Opts.Trace->registerThread(static_cast<uint32_t>(N + 1),
                                    "channels"));
  }
  Stats.Ctl = TraceCtl;
  Stats.ExecStartNs = TraceCtl ? TraceCtl->now() : 0;

  for (size_t WI = 0; WI < N; ++WI) {
    Worker &Wk = Workers[WI];
    Wk.Thread = std::thread([this, WI] { workerLoop(WI); });
  }

  // Completion / watchdog wait with two-stage escalation. The scheduler
  // mutex is released around the channel shutdown calls: it is never
  // held together with the set mutex, and unpark takes it again.
  {
    std::unique_lock<std::mutex> Lock(SchedM);
    auto AllDone = [&] { return DoneCount == Tasks.size(); };
    if (Opts.WatchdogMillis > 0) {
      if (!DoneCV.wait_for(Lock,
                           std::chrono::milliseconds(Opts.WatchdogMillis),
                           AllDone)) {
        Stats.WatchdogFired = true;
        if (TraceCtl)
          TraceCtl->instant("watchdog.fired", "executor", "budget_ms",
                            Opts.WatchdogMillis);
        // Stage 1, soft cancel: close the channels cleanly so parked
        // receivers drain what is buffered and stop as cancelled, and
        // give the run a grace period to quiesce on its own.
        if (TraceCtl)
          TraceCtl->instant("watchdog.soft_cancel", "executor", "grace_ms",
                            WatchdogGraceMillis);
        Lock.unlock();
        unpark(Channels.closeAll());
        Lock.lock();
        bool Quiesced = DoneCV.wait_for(
            Lock, std::chrono::milliseconds(WatchdogGraceMillis), AllDone);
        // Stage 2, hard abort: spinners ignore the soft cancel; stop
        // them at the next step boundary and wake everyone.
        if (!Quiesced) {
          if (TraceCtl)
            TraceCtl->instant("watchdog.hard_abort", "executor");
          AbortFlag.store(true, std::memory_order_relaxed);
          Lock.unlock();
          unpark(Channels.abortAll());
          Lock.lock();
          DoneCV.wait(Lock, AllDone);
        }
      }
    } else {
      DoneCV.wait(Lock, AllDone);
    }
  }
  for (size_t WI = 0; WI < N; ++WI)
    Workers[WI].Thread.join();

  for (size_t WI = 0; WI < N; ++WI) {
    Stats.Steals += Workers[WI].Steals;
    Stats.Parks += Workers[WI].Parks;
  }
  std::vector<ThreadRunResult> Results;
  Results.reserve(Tasks.size());
  for (Task &T : Tasks)
    Results.push_back(std::move(T.R));
  return Results;
}
