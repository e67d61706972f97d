//===- concurrency/Channel.cpp --------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "concurrency/Channel.h"

#include <algorithm>

using namespace fearless;

ChannelSet::Channel &ChannelSet::channelLocked(const Type &Ty) {
  auto [It, Created] = Channels.try_emplace(Ty);
  if (Created && Trace)
    Trace->instant("channel.created", "channel", "channels",
                   Channels.size());
  return It->second;
}

void ChannelSet::setTrace(TraceBuffer *Buffer) {
  std::lock_guard<std::mutex> Lock(M);
  Trace = Buffer;
}

void ChannelSet::registerThreads(size_t N) {
  std::lock_guard<std::mutex> Lock(M);
  ActiveThreads += N;
}

ChannelWaiter *ChannelSet::send(const Type &Ty, Value V) {
  std::lock_guard<std::mutex> Lock(M);
  Channel &C = channelLocked(Ty);
  if (State != ChannelState::Open) {
    ++DroppedValues;
    if (Trace)
      Trace->instant("channel.send_dropped", "channel", "dropped_total",
                     DroppedValues);
    return nullptr;
  }
  ++C.Sends;
  ChannelWaiter *W = C.Waiters;
  if (!W) {
    C.Queue.push(V);
    ++PendingValues;
    C.PeakDepth = std::max<uint64_t>(C.PeakDepth, C.Queue.size());
    return nullptr;
  }
  // Direct handoff: a task is parked waiting for exactly this value — no
  // queue round-trip, no allocation. It consumes the value on wake and is
  // a potential sender again from now on.
  C.Waiters = W->NextWaiter;
  if (!C.Waiters)
    C.WaitersTail = nullptr;
  W->NextWaiter = nullptr;
  W->Handoff = V;
  W->WakeResult = RecvResult::Ok;
  ++C.Recvs;
  C.PeakDepth = std::max<uint64_t>(C.PeakDepth, 1);
  ++ActiveThreads;
  return W;
}

RecvResult ChannelSet::recvOrPark(const Type &Ty, Value &Out,
                                  ChannelWaiter &W, ChannelWaiter *&Woken) {
  Woken = nullptr;
  std::lock_guard<std::mutex> Lock(M);
  Channel &C = channelLocked(Ty);
  if (State == ChannelState::Aborted)
    return RecvResult::Aborted;
  if (!C.Queue.empty()) {
    Out = C.Queue.pop();
    ++C.Recvs;
    --PendingValues;
    return RecvResult::Ok;
  }
  if (State == ChannelState::Closed)
    return RecvResult::Closed;
  // Empty and open: park. FIFO keeps handoff order fair and makes the
  // waiter/queue disjointness invariant easy to maintain. A parked
  // receiver cannot send until it receives, so it stops counting as a
  // potential sender here, in the same critical section — which may
  // complete quiescence and wake it (and every other waiter) at once.
  W.NextWaiter = nullptr;
  W.WakeResult = RecvResult::Ok;
  if (C.WaitersTail)
    C.WaitersTail->NextWaiter = &W;
  else
    C.Waiters = &W;
  C.WaitersTail = &W;
  if (ActiveThreads)
    --ActiveThreads;
  Woken = maybeQuiesceLocked();
  return RecvResult::Parked;
}

ChannelWaiter *ChannelSet::threadFinished() {
  std::lock_guard<std::mutex> Lock(M);
  if (ActiveThreads)
    --ActiveThreads;
  return maybeQuiesceLocked();
}

ChannelWaiter *ChannelSet::closeAll() {
  std::lock_guard<std::mutex> Lock(M);
  return shutdownLocked(ChannelState::Closed);
}

ChannelWaiter *ChannelSet::abortAll() {
  std::lock_guard<std::mutex> Lock(M);
  return shutdownLocked(ChannelState::Aborted);
}

ChannelWaiter *ChannelSet::maybeQuiesceLocked() {
  // No potential sender and nothing in flight: every parked receiver is
  // waiting for a value that can never arrive. Close cleanly.
  if (State == ChannelState::Open && ActiveThreads == 0 &&
      PendingValues == 0)
    return shutdownLocked(ChannelState::Closed);
  return nullptr;
}

ChannelWaiter *ChannelSet::shutdownLocked(ChannelState To) {
  if (To <= State)
    return nullptr; // monotone; Aborted is terminal
  State = To;
  // The two observable run-wide transitions: Open→Closed (quiescence:
  // drain-then-stop) and →Aborted (hard shutdown). Recorded under M.
  if (Trace)
    Trace->instant(To == ChannelState::Closed ? "channels.closed"
                                              : "channels.aborted",
                   "channel", "channels", Channels.size());
  RecvResult Result =
      To == ChannelState::Closed ? RecvResult::Closed : RecvResult::Aborted;
  ChannelWaiter *Head = nullptr, *Tail = nullptr;
  for (auto &[Ty, C] : Channels) {
    (void)Ty;
    if (To == ChannelState::Aborted) {
      // A hard abort discards in-flight values.
      PendingValues -= C.Queue.size();
      C.Queue.clear();
    }
    // Hand every parked task its terminal result. A parked waiter implies
    // an empty queue (see the Waiters invariant), so Closed is correct
    // without a drain step. A woken task runs again (to observe its
    // result and finish), so it counts as a potential sender again.
    for (ChannelWaiter *W = C.Waiters; W; W = W->NextWaiter) {
      W->WakeResult = Result;
      ++ActiveThreads;
    }
    if (!C.Waiters)
      continue;
    if (Tail)
      Tail->NextWaiter = C.Waiters;
    else
      Head = C.Waiters;
    Tail = C.WaitersTail;
    C.Waiters = C.WaitersTail = nullptr;
  }
  return Head;
}

void ChannelSet::collectMetrics(RuntimeMetrics &Out) {
  std::lock_guard<std::mutex> Lock(M);
  Out.ChannelsCreated += Channels.size();
  Out.ChannelDroppedValues += DroppedValues;
  for (auto &[Ty, C] : Channels) {
    (void)Ty;
    Out.ChannelSends += C.Sends;
    Out.ChannelRecvs += C.Recvs;
    Out.ChannelPeakDepth = std::max<uint64_t>(Out.ChannelPeakDepth,
                                              C.PeakDepth);
  }
}

size_t ChannelSet::depth(const Type &Ty) {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Channels.find(Ty);
  return It == Channels.end() ? 0 : It->second.Queue.size();
}
