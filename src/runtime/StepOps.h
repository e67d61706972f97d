//===- runtime/StepOps.h - Side effects both evaluators share ---*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime side effects of the reservation-checked E-rules (§3.2),
/// `if disconnected` (§5.2) and EC3 send/recv (§7), written once for both
/// evaluators: the tree-walking interpreter (runtime/Interp.cpp) and the
/// bytecode VM (vm/Vm.cpp). Each operation owns its stuck message, its
/// counters, its fault point and its trace events, so the two engines
/// cannot drift apart. The executors (Machine, TaskScheduler) use the
/// injected-fault constructor and the thread-start setup.
///
/// Operations that fail put the thread in the stuck state themselves
/// (ThreadState::Error, ThreadStatus::Failed) and return
/// StepOutcome::Stuck. The reservation check and allocation run inside
/// the VM's dispatch loop and are inline; everything else is out of line.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_RUNTIME_STEPOPS_H
#define FEARLESS_RUNTIME_STEPOPS_H

#include "runtime/Interp.h"

namespace fearless {

/// The typed fault an armed injection point \p P raises on \p Thread.
RuntimeFault injectedFault(FaultPoint P, uint32_t Thread);

/// Throws injectedFault(P, Thread) to stepThread's trap handler. Call
/// sites guard on InterpServices::Faults so the disabled cost stays one
/// branch.
[[noreturn]] void injectFault(FaultPoint P, ThreadId Thread);

/// Puts \p T in the stuck state with reason \p Why.
StepOutcome failThread(ThreadState &T, std::string Why);

/// The dynamic reservation check of the E-rules: counted, and skipped
/// entirely when checks are off.
inline bool inReservation(const ThreadState &T, const InterpServices &S,
                          Loc L) {
  if (!S.CheckReservations)
    return true;
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
inline Loc allocateObject(ThreadState &T, const InterpServices &S,
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
StepOutcome heapExhausted(ThreadState &T, const InterpServices &S);

/// send(\p V): the `chan.send` fault point, then \p T blocks offering
/// \p V at type \p Ty — the checker's τ, or, when \p Ty is invalid, the
/// type of the runtime value. The executor pairs it (EC3).
StepOutcome blockSend(ThreadState &T, const InterpServices &S,
                      const Value &V, Type Ty);

/// recv<\p Ty>: the `chan.recv` fault point, then \p T blocks.
StepOutcome blockRecv(ThreadState &T, const InterpServices &S, Type Ty);

/// `if disconnected(A, B)`: argument checks, the reservation check of
/// both arguments when \p CheckReservation, the `disconnect.traverse`
/// fault point and the site's counters. A site with a proven \p Verdict
/// skips the traversal (re-running it when \p CrossCheck, stuck on
/// disagreement); an Unknown one traverses. On Progress, \p Taken says
/// whether the then-branch runs.
StepOutcome ifDisconnected(ThreadState &T, const InterpServices &S,
                           const Value &A, const Value &B,
                           bool CheckReservation, DisconnectVerdict Verdict,
                           bool CrossCheck, bool &Taken);

/// Points the fresh thread \p T at \p Fn(\p Args): the parameters bound
/// in its stack, the body as its control, runnable.
void enterThread(ThreadState &T, const FnDecl &Fn,
                 const std::vector<Value> &Args);

} // namespace fearless

#endif // FEARLESS_RUNTIME_STEPOPS_H
