//===- concurrency/Channel.cpp --------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "concurrency/Channel.h"

#include <algorithm>

using namespace fearless;

//===----------------------------------------------------------------------===//
// ValueChannel
//===----------------------------------------------------------------------===//

void ValueChannel::send(Value V) {
  // Count the value as in-flight *before* publishing it, so quiescence
  // detection never sees (no active sender, empty queues) while a value
  // is between the two. The set mutex is taken before the queue mutex —
  // the one global lock order.
  Parent.noteSend();
  bool Published = false;
  ChannelWaiter *Waiter = nullptr;
  {
    std::lock_guard<std::mutex> Lock(M);
    if (State == ChannelState::Open) {
      if (Waiters) {
        // Direct handoff: a task is parked waiting for exactly this
        // value — no queue round-trip, no allocation.
        Waiter = Waiters;
        Waiters = Waiter->NextWaiter;
        if (!Waiters)
          WaitersTail = nullptr;
        Waiter->NextWaiter = nullptr;
        Waiter->Handoff = V;
        Waiter->WakeResult = RecvResult::Ok;
        ++Sends;
        ++Recvs; // the waiter consumes it on wake
        PeakDepth = std::max<uint64_t>(PeakDepth, 1);
      } else {
        Queue.push(V);
        ++Sends;
        PeakDepth = std::max<uint64_t>(PeakDepth, Queue.size());
      }
      Published = true;
    }
  }
  if (!Published) {
    Parent.noteSendDropped();
    return;
  }
  if (Waiter) {
    // The handed-off value is consumed the moment the waiter wakes:
    // settle the in-flight count and re-activate + unpark the task.
    Parent.noteRecv();
    Parent.wakeHandoff(*Waiter);
  }
}

RecvAttempt ValueChannel::recvOrPark(Value &Out, ChannelWaiter &W) {
  {
    std::lock_guard<std::mutex> Lock(M);
    if (State == ChannelState::Aborted)
      return RecvAttempt::Aborted;
    if (!Queue.empty()) {
      Out = Queue.pop();
      ++Recvs;
    } else if (State == ChannelState::Closed) {
      return RecvAttempt::Closed;
    } else {
      // Empty and open: park. FIFO keeps handoff order fair and makes
      // the waiter/queue disjointness invariant easy to maintain.
      W.NextWaiter = nullptr;
      W.WakeResult = RecvResult::Ok;
      if (WaitersTail)
        WaitersTail->NextWaiter = &W;
      else
        Waiters = &W;
      WaitersTail = &W;
      return RecvAttempt::Parked;
    }
  }
  Parent.noteRecv();
  return RecvAttempt::Got;
}

ChannelWaiter *ValueChannel::close(ChannelState To) {
  ChannelWaiter *Woken = nullptr;
  {
    std::lock_guard<std::mutex> Lock(M);
    // Monotone: Open < Closed < Aborted.
    if (To == ChannelState::Closed && State != ChannelState::Open)
      return nullptr;
    State = To;
    if (To == ChannelState::Aborted)
      Queue.clear(); // a hard abort discards in-flight values
    // Hand every parked task its terminal result. A parked waiter
    // implies an empty queue (see the Waiters invariant), so Closed is
    // correct without a drain step.
    Woken = Waiters;
    Waiters = WaitersTail = nullptr;
    for (ChannelWaiter *W = Woken; W; W = W->NextWaiter)
      W->WakeResult = To == ChannelState::Closed ? RecvResult::Closed
                                                 : RecvResult::Aborted;
  }
  return Woken;
}

size_t ValueChannel::sizeApprox() const {
  std::lock_guard<std::mutex> Lock(M);
  return Queue.size();
}

//===----------------------------------------------------------------------===//
// ChannelSet
//===----------------------------------------------------------------------===//

ValueChannel &ChannelSet::channelFor(const Type &Ty) {
  std::lock_guard<std::mutex> Lock(M);
  auto &Slot = Channels[Ty];
  if (!Slot) {
    Slot = std::make_unique<ValueChannel>(*this, Shutdown);
    if (Trace)
      Trace->instant("channel.created", "channel", "channels",
                     Channels.size());
  }
  return *Slot;
}

void ChannelSet::setTrace(TraceBuffer *Buffer) {
  std::lock_guard<std::mutex> Lock(M);
  Trace = Buffer;
}

void ChannelSet::registerThreads(size_t N) {
  std::lock_guard<std::mutex> Lock(M);
  ActiveThreads += N;
}

void ChannelSet::threadFinished() {
  std::lock_guard<std::mutex> Lock(M);
  if (ActiveThreads)
    --ActiveThreads;
  maybeQuiesceLocked();
}

void ChannelSet::closeAll() {
  std::lock_guard<std::mutex> Lock(M);
  shutdownLocked(ChannelState::Closed);
}

void ChannelSet::abortAll() {
  std::lock_guard<std::mutex> Lock(M);
  shutdownLocked(ChannelState::Aborted);
}

void ChannelSet::noteSend() {
  std::lock_guard<std::mutex> Lock(M);
  ++PendingValues;
}

void ChannelSet::noteSendDropped() {
  std::lock_guard<std::mutex> Lock(M);
  if (PendingValues)
    --PendingValues;
  ++DroppedValues;
  if (Trace)
    Trace->instant("channel.send_dropped", "channel", "dropped_total",
                   DroppedValues);
}

void ChannelSet::noteRecv() {
  std::lock_guard<std::mutex> Lock(M);
  if (PendingValues)
    --PendingValues;
}

void ChannelSet::taskParked() {
  // A parked receiver cannot send until it receives. Called *after* the
  // waiter is queued, so the +1 of any racing wake (handoff or closure)
  // can only make ActiveThreads transiently overcount — delaying
  // quiescence, never firing it early.
  std::lock_guard<std::mutex> Lock(M);
  if (ActiveThreads)
    --ActiveThreads;
  maybeQuiesceLocked();
}

void ChannelSet::wakeHandoff(ChannelWaiter &W) {
  std::lock_guard<std::mutex> Lock(M);
  // The +1 is applied before the sink can reschedule the task, pairing
  // with the parker's (possibly still pending) -1.
  ++ActiveThreads;
  if (Sink)
    Sink->unpark(W);
}

void ChannelSet::setUnparkSink(TaskUnparkSink *S) {
  std::lock_guard<std::mutex> Lock(M);
  Sink = S;
}

void ChannelSet::maybeQuiesceLocked() {
  // No potential sender and nothing in flight: every parked receiver is
  // waiting for a value that can never arrive. Close cleanly.
  if (Shutdown == ChannelState::Open && ActiveThreads == 0 &&
      PendingValues == 0)
    shutdownLocked(ChannelState::Closed);
}

void ChannelSet::shutdownLocked(ChannelState To) {
  if (Shutdown == ChannelState::Aborted)
    return; // terminal
  if (To == ChannelState::Closed && Shutdown == ChannelState::Closed)
    return;
  Shutdown = To;
  // The two observable run-wide transitions: Open→Closed (quiescence:
  // drain-then-stop) and →Aborted (hard shutdown). Recorded under M.
  if (Trace)
    Trace->instant(To == ChannelState::Closed ? "channels.closed"
                                              : "channels.aborted",
                   "channel", "channels", Channels.size());
  for (auto &[Ty, Chan] : Channels) {
    (void)Ty;
    ChannelWaiter *Woken = Chan->close(To);
    // Waking a parked task makes it runnable (it will observe its
    // Closed/Aborted result and finish): re-activate before unparking,
    // mirroring wakeHandoff. Both happen under M — the permitted
    // set->scheduler lock direction.
    for (ChannelWaiter *W = Woken; W;) {
      ChannelWaiter *Next = W->NextWaiter;
      ++ActiveThreads;
      if (Sink)
        Sink->unpark(*W);
      W = Next;
    }
  }
}

void ChannelSet::collectMetrics(RuntimeMetrics &Out) {
  std::lock_guard<std::mutex> Lock(M);
  Out.ChannelsCreated += Channels.size();
  Out.ChannelDroppedValues += DroppedValues;
  for (auto &[Ty, Chan] : Channels) {
    (void)Ty;
    std::lock_guard<std::mutex> ChanLock(Chan->M);
    Out.ChannelSends += Chan->Sends;
    Out.ChannelRecvs += Chan->Recvs;
    Out.ChannelPeakDepth =
        std::max<uint64_t>(Out.ChannelPeakDepth, Chan->PeakDepth);
  }
}
