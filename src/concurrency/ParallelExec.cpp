//===- concurrency/ParallelExec.cpp ---------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "concurrency/ParallelExec.h"

#include "concurrency/TaskScheduler.h"
#include "vm/Compiler.h"

#include <cassert>
#include <chrono>

using namespace fearless;

ParallelExec::ParallelExec(const CheckedProgram &Checked,
                           ParallelExecOptions Opts)
    : Opts(Opts), TheHeap(Checked.Structs) {
  if (Opts.VmCode)
    return;
  // Erased, as the checker's Theorems 6.1/6.2 allow; no verdict table,
  // so every `if disconnected` site traverses.
  Lowered.emplace(vm::compileProgram(Checked, vm::CompileOptions()));
  if (*Lowered)
    this->Opts.VmCode = &**Lowered;
}

void ParallelExec::spawn(Symbol FnName, std::vector<Value> Args) {
  assert(!Ran && "spawn after run(): the entry list is already snapshot");
  if (Ran)
    return;
  Entries.push_back(SpawnEntry{FnName, std::move(Args)});
}

Expected<std::vector<Value>> ParallelExec::run() {
  if (Ran)
    return fail("ParallelExec::run() may be called at most once per "
                "executor");
  Ran = true;
  if (Lowered && !*Lowered)
    return Lowered->takeFailure();
  // Snapshot the entries: the scheduler indexes a vector that can no
  // longer grow or reallocate under it.
  const std::vector<SpawnEntry> Work = std::move(Entries);
  Entries.clear();

  auto Started = std::chrono::steady_clock::now();
  TaskScheduler Sched(TheHeap, Channels, Opts);
  TaskScheduler::RunStats SStats;
  std::vector<ThreadRunResult> Slots = Sched.run(Work, SStats);

  // Fold the per-thread records into the metrics registry, close the
  // exec.run span, and turn errors/watchdog expiry into the diagnostic.
  Metrics = RuntimeMetrics();
  Metrics.TasksSpawned = SStats.TasksSpawned;
  Metrics.Steals = SStats.Steals;
  Metrics.Parks = SStats.Parks;
  Metrics.ThreadsSpawned = Work.size();
  Metrics.WatchdogFired = SStats.WatchdogFired ? 1 : 0;
  Metrics.HeapObjects = TheHeap.size();
  Metrics.ChecksErased = Opts.VmCode->ChecksErased;
  Metrics.WallMicros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - Started)
          .count());
  Metrics.FaultsInjected = Opts.Faults ? Opts.Faults->totalFired() : 0;
  for (const ThreadRunResult &S : Slots) {
    Metrics.mergeThread(S.Stats);
    Metrics.FaultsEscalated += S.Faulted ? 1 : 0;
    switch (S.Out) {
    case ThreadRunOutcome::Finished:
      ++Metrics.ThreadsFinished;
      break;
    case ThreadRunOutcome::Cancelled:
      ++Metrics.ThreadsCancelled;
      break;
    case ThreadRunOutcome::Errored:
      ++Metrics.ThreadsErrored;
      break;
    }
  }
  Channels.collectMetrics(Metrics);
  if (TraceBuffer *Ctl = SStats.Ctl)
    Ctl->record("exec.run", "executor", 'X', SStats.ExecStartNs,
                Ctl->now() - SStats.ExecStartNs, "threads", Work.size());

  // Report every failed thread, not just the first.
  std::string Errors;
  for (size_t I = 0; I < Slots.size(); ++I) {
    if (Slots[I].Out != ThreadRunOutcome::Errored)
      continue;
    if (!Errors.empty())
      Errors += "; ";
    Errors += "parallel thread " + std::to_string(I) + ": " +
              Slots[I].Error;
  }
  if (SStats.WatchdogFired) {
    std::string Msg = "watchdog: run exceeded " +
                      std::to_string(Opts.WatchdogMillis) + "ms with " +
                      std::to_string(Metrics.ThreadsCancelled) +
                      " thread(s) unfinished; aborted";
    Errors = Errors.empty() ? Msg : Msg + "; " + Errors;
  }
  if (!Errors.empty())
    return fail(Errors);

  std::vector<Value> Results;
  for (const ThreadRunResult &S : Slots)
    Results.push_back(S.Result);
  return Results;
}
