//===- runtime/StepOps.cpp ------------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "runtime/StepOps.h"

#include "runtime/Disconnected.h"

using namespace fearless;

RuntimeFault fearless::injectedFault(FaultPoint P, uint32_t Thread) {
  RuntimeFault F;
  F.Kind = RuntimeFaultKind::Injected;
  F.Detail = static_cast<uint32_t>(P);
  F.Thread = Thread;
  return F;
}

void fearless::injectFault(FaultPoint P, ThreadId Thread) {
  raiseInjectedFault(injectedFault(P, Thread));
}

StepOutcome fearless::failThread(ThreadState &T, std::string Why) {
  T.Error = std::move(Why);
  T.Status = ThreadStatus::Failed;
  return StepOutcome::Stuck;
}

StepOutcome fearless::valueViolation(ThreadState &T, const Value &V,
                                     const char *What) {
  return failThread(T, std::string("reservation violation: ") + What +
                           " yielded " + toString(V) +
                           " outside this thread's reservation");
}

StepOutcome fearless::baseViolation(ThreadState &T, const Value &Base,
                                    const char *Access) {
  return failThread(T, std::string("reservation violation: ") + Access +
                           " on " + toString(Base));
}

StepOutcome fearless::initializerViolation(ThreadState &T) {
  return failThread(T, "reservation violation: 'new' initializer outside "
                       "the reservation");
}

StepOutcome fearless::heapExhausted(ThreadState &T,
                                    const StepServices &S) {
  RuntimeFault F;
  F.Kind = RuntimeFaultKind::HeapExhausted;
  F.Thread = T.Id;
  T.Fault = F;
  return failThread(T, "heap exhausted: allocation failed at " +
                           std::to_string(S.TheHeap->size()) +
                           " live objects (capacity " +
                           std::to_string(S.TheHeap->capacity()) + ")");
}

StepOutcome fearless::blockSend(ThreadState &T, const StepServices &S,
                                const Value &V, Type Ty) {
  if (S.Faults && S.Faults->shouldFire(FaultPoint::ChanSend))
    injectFault(FaultPoint::ChanSend, T.Id);
  if (!Ty.isValid()) {
    switch (V.kind()) {
    case Value::Kind::Unit:
      Ty = Type::unitTy();
      break;
    case Value::Kind::Int:
      Ty = Type::intTy();
      break;
    case Value::Kind::Bool:
      Ty = Type::boolTy();
      break;
    case Value::Kind::Location:
      Ty = Type::structTy(S.TheHeap->get(V.asLoc()).Struct->Name);
      break;
    case Value::Kind::None:
      return failThread(T, "cannot derive the type of a sent 'none' "
                           "without checker information");
    }
  }
  T.PendingSend = V;
  T.CommType = Ty;
  T.Status = ThreadStatus::BlockedSend;
  if (T.Trace) {
    T.TraceBlockStartNs = T.Trace->now();
    T.Trace->instant("send.block", "channel");
  }
  return StepOutcome::BlockedSend;
}

StepOutcome fearless::blockRecv(ThreadState &T, const StepServices &S,
                                Type Ty) {
  if (S.Faults && S.Faults->shouldFire(FaultPoint::ChanRecv))
    injectFault(FaultPoint::ChanRecv, T.Id);
  T.CommType = Ty;
  T.Status = ThreadStatus::BlockedRecv;
  if (T.Trace) {
    T.TraceBlockStartNs = T.Trace->now();
    T.Trace->instant("recv.block", "channel");
  }
  return StepOutcome::BlockedRecv;
}

StepOutcome fearless::ifDisconnected(ThreadState &T,
                                     const StepServices &S,
                                     const Value &VA, const Value &VB,
                                     bool CheckReservation,
                                     DisconnectVerdict Verdict,
                                     bool CrossCheck, bool &Taken) {
  if (!VA.isLoc() || !VB.isLoc())
    return failThread(T, "'if disconnected' arguments must be objects");
  Loc A = VA.asLoc(), B = VB.asLoc();
  if (CheckReservation &&
      (!inReservation(T, S, A) || !inReservation(T, S, B)))
    return failThread(T, "reservation violation: 'if disconnected' "
                         "argument outside the reservation");
  if (S.Faults && S.Faults->shouldFire(FaultPoint::DisconnectTraverse))
    injectFault(FaultPoint::DisconnectTraverse, T.Id);
  ++S.Stats->DisconnectChecks;

  auto Traverse = [&] {
    return checkDisconnectedRefCount(*S.TheHeap, A, B, T.Scratch);
  };

  // A proven site skips the traversal entirely (the point of the must-*
  // verdicts). The cross-check re-runs it and treats disagreement as a
  // stuck state: it must never fire on sound verdicts, and the property
  // tests lean on that.
  if (Verdict != DisconnectVerdict::Unknown) {
    Taken = Verdict == DisconnectVerdict::MustDisconnected;
    if (CrossCheck && Traverse().Disconnected != Taken)
      return failThread(T, "static 'if disconnected' "
                           "verdict contradicts the runtime traversal "
                           "(analysis bug)");
    ++S.Stats->DisconnectElided;
    if (Taken)
      ++S.Stats->DisconnectTaken;
    if (T.Trace)
      T.Trace->instant("disconnect.elided", "disconnect");
    return StepOutcome::Progress;
  }

  uint64_t TraceStart = T.Trace ? T.Trace->now() : 0;
  DisconnectOutcome Out = Traverse();
  if (T.Trace)
    T.Trace->record("disconnect.traverse", "disconnect", 'X', TraceStart,
                    T.Trace->now() - TraceStart, "objects_visited",
                    Out.ObjectsVisited);
  S.Stats->DisconnectObjectsVisited += Out.ObjectsVisited;
  S.Stats->DisconnectEdgesTraversed += Out.EdgesTraversed;
  if (Out.Disconnected)
    ++S.Stats->DisconnectTaken;
  Taken = Out.Disconnected;
  return StepOutcome::Progress;
}
