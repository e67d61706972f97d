//===- concurrency/Channel.h - Typed channels -------------------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The channels the parallel executor's tasks communicate over: one MPMC
/// queue per static type τ, realizing send-τ / recv-τ. Because the
/// type system guarantees reservation safety, the transferred object
/// graphs need no synchronization — only the channel itself is locked.
///
/// The channel set also implements the executor's shutdown protocol.
/// Every language thread registers as a potential sender; a thread stops
/// being one when it finishes or while it is parked in recv (a parked
/// receiver cannot send until it receives). The set therefore detects
/// global quiescence — no potential sender left and no value in flight —
/// and closes every channel *cleanly*: receivers drain what remains and
/// then observe RecvResult::Closed, a clean stop rather than an error.
/// Channels created after shutdown are born in the shutdown state, so a
/// late recv cannot resurrect a closed run. A hard abort (thread error or
/// watchdog) instead puts channels in the Aborted state, which wakes
/// receivers immediately without draining.
///
/// Receiving never blocks an OS thread (docs/SCHEDULER.md): when no
/// value is ready, `recvOrPark` queues the caller's intrusive
/// ChannelWaiter on the channel and the *task* parks. A later send hands
/// its value directly to the oldest waiter (no queue round-trip) and
/// unparks it through the set's TaskUnparkSink; channel closure wakes
/// every waiter with the Closed/Aborted result instead.
///
/// Lock order (global, deadlock-freedom invariant): set mutex -> channel
/// mutex -> scheduler internals. The unpark sink is invoked with the set
/// mutex held and may take scheduler locks, but must never re-enter the
/// channel set.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_CONCURRENCY_CHANNEL_H
#define FEARLESS_CONCURRENCY_CHANNEL_H

#include "ast/Types.h"
#include "runtime/Value.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace fearless {

class ChannelSet;

/// Lifecycle of a channel (and, for the set, of the whole run).
enum class ChannelState {
  Open,    ///< Senders may still publish.
  Closed,  ///< Every possible sender finished: drain, then stop cleanly.
  Aborted, ///< Hard shutdown (error / watchdog): stop immediately.
};

/// How a parked receive ended (ChannelWaiter::WakeResult).
enum class RecvResult {
  Ok,      ///< A value was dequeued.
  Closed,  ///< Drained and no sender can ever publish again.
  Aborted, ///< The run was torn down.
};

/// Outcome of a non-blocking receive-or-park attempt.
enum class RecvAttempt {
  Got,     ///< A value was dequeued; the task keeps running.
  Parked,  ///< The waiter was queued on the channel; the task parked.
  Closed,  ///< Drained and no sender can ever publish again.
  Aborted, ///< The run was torn down.
};

/// Intrusive park node for one blocked task. Embedded in the scheduler's
/// task object, so parking and unparking allocate nothing. While queued
/// on a channel the node is owned by that channel (guarded by its
/// mutex); after the wake callback fires it belongs to the scheduler
/// again, with `WakeResult` (and `Handoff` when Ok) telling the resumed
/// task how its recv ended.
struct ChannelWaiter {
  ChannelWaiter *NextWaiter = nullptr;
  /// The value a sender handed directly to this waiter (WakeResult Ok).
  Value Handoff;
  RecvResult WakeResult = RecvResult::Ok;
};

/// Scheduler-side wake callback: makes a previously parked task runnable
/// again. Invoked with the set mutex held (see the lock-order note in
/// the file header); implementations may take scheduler locks but must
/// not call back into the channel set.
class TaskUnparkSink {
public:
  virtual ~TaskUnparkSink() = default;
  virtual void unpark(ChannelWaiter &W) = 0;
};

/// Growable FIFO ring of in-flight values. Steady-state push/pop cycles
/// reuse capacity and never allocate — a std::deque here would allocate a
/// fresh block every few hundred operations as its cursor crosses block
/// boundaries, breaking the scheduler's allocation-free park/unpark
/// guarantee whenever a send races ahead of the matching park (the
/// bench_scheduler differential allocation check catches this under
/// ThreadSanitizer timing). Values are trivial scalars (runtime/Value.h),
/// so popped slots need no destruction.
class ValueRing {
public:
  /// The initial capacity is allocated eagerly at channel creation, not
  /// lazily on the first buffered send: whether a send buffers (instead
  /// of handing off to a parked waiter) depends on thread timing, and a
  /// lazy first-touch allocation would make the steady state
  /// nondeterministically non-allocation-free.
  ValueRing() : Buf(8) {}

  bool empty() const { return Count == 0; }
  size_t size() const { return Count; }
  void push(Value V) {
    if (Count == Buf.size())
      grow();
    Buf[(Head + Count) % Buf.size()] = V;
    ++Count;
  }
  Value pop() {
    Value V = Buf[Head];
    Head = (Head + 1) % Buf.size();
    --Count;
    return V;
  }
  /// Discards queued values; capacity is retained.
  void clear() { Head = Count = 0; }

private:
  void grow() {
    std::vector<Value> Next(Buf.size() * 2);
    for (size_t I = 0; I < Count; ++I)
      Next[I] = Buf[(Head + I) % Buf.size()];
    Buf.swap(Next);
    Head = 0;
  }

  std::vector<Value> Buf;
  size_t Head = 0, Count = 0;
};

/// A multi-producer multi-consumer value queue with parked receivers.
class ValueChannel {
public:
  ValueChannel(ChannelSet &Parent, ChannelState Initial)
      : Parent(Parent), State(Initial) {}

  /// Enqueues \p V; never blocks (unbounded). When a task is parked on
  /// this channel the value is handed to the oldest waiter directly and
  /// the waiter is unparked through the set's sink. During shutdown the
  /// value is dropped and counted in the set's dropped-value metric.
  void send(Value V);

  /// Non-blocking receive: dequeues into \p Out (Got), or queues \p W
  /// on the channel (Parked — the caller must then tell the set via
  /// taskParked() that this task is no longer a potential sender), or
  /// reports the shutdown state. On a Closed channel the queue is drained
  /// first; on an Aborted channel the call returns Aborted immediately.
  RecvAttempt recvOrPark(Value &Out, ChannelWaiter &W);

  /// Transitions to \p To (Closed or Aborted) and wakes all parked
  /// receivers. Open → Closed → Aborted transitions only; a close never
  /// reopens and an abort is terminal. Returns the chain of task
  /// waiters that were queued (their WakeResult already set); the caller
  /// (ChannelSet::shutdownLocked) re-activates and unparks them.
  ChannelWaiter *close(ChannelState To);

  size_t sizeApprox() const;

private:
  friend class ChannelSet;

  ChannelSet &Parent;
  mutable std::mutex M;
  ValueRing Queue;
  ChannelState State;
  /// FIFO chain of parked tasks. Invariant: non-empty only
  /// while Queue is empty and State is Open — a send prefers handoff to
  /// enqueueing, and a task parks only on an empty open channel.
  ChannelWaiter *Waiters = nullptr;
  ChannelWaiter *WaitersTail = nullptr;
  // Per-channel counters, guarded by M.
  uint64_t Sends = 0;
  uint64_t Recvs = 0;
  uint64_t PeakDepth = 0;
};

/// One channel per static type τ, plus the shutdown protocol state for a
/// single executor run.
class ChannelSet {
public:
  /// Returns the channel for \p Ty, creating it on first use. A channel
  /// created after shutdown is born Closed/Aborted.
  ValueChannel &channelFor(const Type &Ty);

  /// Registers \p N language threads as potential senders. Must be
  /// called before any of them runs; a set shuts down the moment no
  /// potential sender remains, so registering late would race the
  /// detection.
  void registerThreads(size_t N);

  /// One thread finished (normally or not): it can never send again.
  /// May trigger clean closure of every channel.
  void threadFinished();

  /// Closes every channel cleanly (queues drain, then RecvResult::Closed)
  /// and marks the set so later-created channels are born closed.
  void closeAll();

  /// Hard shutdown: every channel (including ones created later) aborts;
  /// queued values are discarded.
  void abortAll();

  /// One task parked on a channel: until it is woken it is no longer a
  /// potential sender. May complete quiescence
  /// (which immediately wakes the parked task with RecvResult::Closed).
  /// Call *after* recvOrPark returned Parked, outside any channel lock.
  void taskParked();

  /// Installs the scheduler's wake callback for parked tasks. Must be
  /// set before any task parks and cleared (null) only once no waiter
  /// can remain. Invoked with the set mutex held.
  void setUnparkSink(TaskUnparkSink *Sink);

  /// Adds this set's channel counters into \p Out.
  void collectMetrics(RuntimeMetrics &Out);

  /// Attaches a trace buffer for lifecycle events (channel creation,
  /// Open→Closed/Aborted transitions, dropped sends). The set records
  /// only while holding its own mutex, satisfying the buffer's
  /// single-writer rule. Null detaches.
  void setTrace(TraceBuffer *Buffer);

private:
  friend class ValueChannel;

  // Quiescence-detection hooks, called by ValueChannel *without* its
  // queue lock held (lock order is set mutex, then queue mutex).
  void noteSend();        ///< A value is about to be published.
  void noteSendDropped(); ///< The publish was refused (shutdown).
  void noteRecv();        ///< A value was consumed.
  /// A sender handed its value straight to the parked waiter \p W: the
  /// task becomes a potential sender again (+1 active, applied before
  /// the task can be rescheduled) and is unparked through the sink.
  void wakeHandoff(ChannelWaiter &W);

  /// Pre: M held. Closes every existing channel and records the state
  /// for channels created later.
  void shutdownLocked(ChannelState To);
  /// Pre: M held. Triggers clean closure once no potential sender
  /// remains and no value is in flight.
  void maybeQuiesceLocked();

  std::mutex M;
  std::map<Type, std::unique_ptr<ValueChannel>> Channels;
  /// Registered threads that are neither finished nor parked in recv.
  size_t ActiveThreads = 0;
  /// Values sent but not yet received, across all channels.
  size_t PendingValues = 0;
  uint64_t DroppedValues = 0;
  ChannelState Shutdown = ChannelState::Open;
  /// Lifecycle trace buffer; written only under M.
  TraceBuffer *Trace = nullptr;
  /// Wake callback for parked tasks; guarded by M, invoked under M.
  TaskUnparkSink *Sink = nullptr;
};

} // namespace fearless

#endif // FEARLESS_CONCURRENCY_CHANNEL_H
