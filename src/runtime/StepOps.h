//===- runtime/StepOps.h - Thread configuration and one step ----*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One language thread's configuration of §3.2 — (d, h, s, e): the
/// reservation d, the shared store h, and the stack and control held as
/// the bytecode VM's register stack and frames (vm/Vm.h) — and the one
/// small step the executors (Machine, TaskScheduler) drive it by.
///
/// stepThread runs a bounded batch of VM instructions behind the trap
/// frontier: a structured fault raised anywhere inside the batch fails
/// this one thread as a typed error, never the process.
///
/// The rest of the header is the runtime side effects of the
/// reservation-checked E-rules (§3.2), `if disconnected` (§5.2) and EC3
/// send/recv (§7). Each operation owns its stuck message, its counters,
/// its fault point and its trace events. Operations that fail put the
/// thread in the stuck state themselves (ThreadState::Error,
/// ThreadStatus::Failed) and return StepOutcome::Stuck. The reservation
/// check and allocation run inside the VM's dispatch loop and are
/// inline; everything else is out of line.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_RUNTIME_STEPOPS_H
#define FEARLESS_RUNTIME_STEPOPS_H

#include "analysis/Verdict.h"
#include "runtime/Heap.h"
#include "runtime/RuntimeFault.h"
#include "runtime/Scratch.h"
#include "runtime/Value.h"
#include "support/FaultInjector.h"
#include "support/Metrics.h"
#include "support/Trace.h"
#include "vm/Vm.h"

#include <optional>
#include <string>
#include <vector>

namespace fearless {

namespace vm {
struct CompiledProgram;
} // namespace vm

using ThreadId = uint32_t;

enum class ThreadStatus {
  Runnable,
  BlockedSend,
  BlockedRecv,
  Finished,
  Failed,
};

/// One thread's configuration.
struct ThreadState {
  ThreadId Id = 0;

  /// The stack s and control e: the VM's register stack and frames.
  vm::VmState Vm;

  /// The reservation d (by object index): epoch-stamped dense membership,
  /// so the §3.2 dynamic check on every access is a load + compare. Sends
  /// and receives update it incrementally (Machine::tryCommunicate).
  ReservationTable Reservation;

  /// Per-thread scratch for `if disconnected`: repeated checks reuse the
  /// same epoch-stamped tables and perform no heap allocations in steady
  /// state (§5.2's O(min-side) bound without an allocator tax).
  DisconnectScratch Scratch;

  ThreadStatus Status = ThreadStatus::Runnable;
  Value Result;
  std::string Error;
  /// Structured description when the thread died to a runtime fault
  /// (trap or injection) rather than a plain stuck state. Set alongside
  /// Error by stepThread's trap handler; executors count it as an
  /// escalated fault, which the CLI maps to exit code 5.
  std::optional<RuntimeFault> Fault;

  /// Blocking communication state.
  Type CommType;
  Value PendingSend;

  /// Tracing (support/Trace.h). Null = disabled: every instrumentation
  /// site guards on this one pointer. The buffer is single-writer, owned
  /// by whichever executor steps this thread.
  TraceBuffer *Trace = nullptr;
  /// When the thread blocked in send/recv, for block→wake wait spans
  /// recorded by the machine at pairing time.
  uint64_t TraceBlockStartNs = 0;
};

/// Outcome of one step.
enum class StepOutcome { Progress, Finished, BlockedSend, BlockedRecv,
                         Stuck };

// MachineStats (the per-thread counters every step updates) lives in
// support/Metrics.h next to the RuntimeMetrics registry that aggregates
// it at join.

/// Services a stepping thread needs from its executor.
struct StepServices {
  Heap *TheHeap = nullptr;
  MachineStats *Stats = nullptr;
  /// Deterministic fault injection (support/FaultInjector.h). Null =
  /// disabled: every instrumented site guards on this one pointer, the
  /// same discipline as tracing. The injector is shared by every thread
  /// of a run and must outlive it.
  FaultInjector *Faults = nullptr;
  /// The program the thread runs. Whether reservations are checked, and
  /// how each `if disconnected` site is decided, was fixed when it was
  /// lowered (vm::CompileOptions). Must outlive the run.
  const vm::CompiledProgram *VmCode = nullptr;
};

/// Points the fresh thread \p T at \p Fn(\p Args) in \p Code: one frame
/// with the parameters in its first registers, runnable.
void enterThread(ThreadState &T, const vm::CompiledProgram &Code,
                 Symbol Fn, const std::vector<Value> &Args);

/// Resumes the blocked \p T with \p V, the result of its send (unit) or
/// recv (the received root), once the executor has paired it.
void resumeThread(ThreadState &T, const Value &V);

/// Executes one bounded batch of \p T's instructions. On
/// StepOutcome::Stuck, T.Error holds the reason (a reservation violation
/// or a genuine runtime fault); when the cause was a structured trap or
/// an injected fault, T.Fault additionally carries the typed
/// description. Traps raised inside the step (invalid heap/field access,
/// injected faults) are caught at this boundary — they fail the thread,
/// never the process.
StepOutcome stepThread(ThreadState &T, const StepServices &Services);

/// The typed fault an armed injection point \p P raises on \p Thread.
RuntimeFault injectedFault(FaultPoint P, uint32_t Thread);

/// Throws injectedFault(P, Thread) to stepThread's trap handler. Call
/// sites guard on StepServices::Faults so the disabled cost stays one
/// branch.
[[noreturn]] void injectFault(FaultPoint P, ThreadId Thread);

/// Puts \p T in the stuck state with reason \p Why.
StepOutcome failThread(ThreadState &T, std::string Why);

/// The dynamic reservation check of the E-rules, counted. Only checked
/// bytecode performs it.
inline bool inReservation(const ThreadState &T, const StepServices &S,
                          Loc L) {
  ++S.Stats->ReservationChecks;
  return T.Reservation.count(L.Index) != 0;
}

/// Stuck states of a failed reservation check: a value \p V flowing from
/// or into a variable or field (E2/E5a/E7a/E8, \p What names the
/// access), the base \p Base of a field access, and a `new` initializer.
StepOutcome valueViolation(ThreadState &T, const Value &V,
                           const char *What);
StepOutcome baseViolation(ThreadState &T, const Value &Base,
                          const char *Access);
StepOutcome initializerViolation(ThreadState &T);

/// Allocates a default-initialized \p StructName into \p T's reservation,
/// after the `heap.alloc` fault point. Returns an invalid location when
/// the heap is exhausted; report that with heapExhausted.
inline Loc allocateObject(ThreadState &T, const StepServices &S,
                          Symbol StructName) {
  if (S.Faults && S.Faults->shouldFire(FaultPoint::HeapAlloc))
    injectFault(FaultPoint::HeapAlloc, T.Id);
  Loc L = S.TheHeap->allocate(StructName);
  if (L.isValid()) {
    ++S.Stats->Allocations;
    T.Reservation.insert(L.Index);
  }
  return L;
}

/// The stuck state of a failed allocation, with the HeapExhausted fault.
StepOutcome heapExhausted(ThreadState &T, const StepServices &S);

/// send(\p V): the `chan.send` fault point, then \p T blocks offering
/// \p V at type \p Ty — the checker's τ, or, when \p Ty is invalid, the
/// type of the runtime value. The executor pairs it (EC3).
StepOutcome blockSend(ThreadState &T, const StepServices &S,
                      const Value &V, Type Ty);

/// recv<\p Ty>: the `chan.recv` fault point, then \p T blocks.
StepOutcome blockRecv(ThreadState &T, const StepServices &S, Type Ty);

/// `if disconnected(A, B)`: argument checks, the reservation check of
/// both arguments when \p CheckReservation, the `disconnect.traverse`
/// fault point and the site's counters. A site with a proven \p Verdict
/// skips the traversal (re-running it when \p CrossCheck, stuck on
/// disagreement); an Unknown one traverses. On Progress, \p Taken says
/// whether the then-branch runs.
StepOutcome ifDisconnected(ThreadState &T, const StepServices &S,
                           const Value &A, const Value &B,
                           bool CheckReservation, DisconnectVerdict Verdict,
                           bool CrossCheck, bool &Taken);

} // namespace fearless

#endif // FEARLESS_RUNTIME_STEPOPS_H
