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
/// graphs need no synchronization — only the channels are locked, all
/// of them by the one mutex of their ChannelSet. Every operation is one
/// critical section: the τ lookup, the queue or waiter change, the
/// counters and the shutdown accounting happen together.
///
/// The channel set also implements the executor's shutdown protocol.
/// Every language thread registers as a potential sender; a thread stops
/// being one when it finishes or while it is parked in recv (a parked
/// receiver cannot send until it receives). The set therefore detects
/// global quiescence — no potential sender left and no value in flight —
/// and closes every channel *cleanly*: receivers drain what remains and
/// then observe RecvResult::Closed, a clean stop rather than an error.
/// The set has one lifecycle state, so a channel created after shutdown
/// is born in it and a late recv cannot resurrect a closed run. A hard
/// abort (thread error or watchdog) instead puts the set in the Aborted
/// state, which discards queued values and wakes receivers without
/// draining.
///
/// Receiving never blocks an OS thread (docs/SCHEDULER.md): when no
/// value is ready, `recvOrPark` queues the caller's intrusive
/// ChannelWaiter on the channel and the *task* parks. A later send hands
/// its value directly to the oldest waiter (no queue round-trip); channel
/// closure wakes every waiter with the Closed/Aborted result instead.
/// The set never calls out: each operation returns the chain of waiters
/// it woke, and the caller makes them runnable after the set mutex is
/// released, so the set mutex is never held together with a scheduler
/// lock.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_CONCURRENCY_CHANNEL_H
#define FEARLESS_CONCURRENCY_CHANNEL_H

#include "ast/Types.h"
#include "runtime/Value.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <map>
#include <mutex>
#include <vector>

namespace fearless {

/// Lifecycle of the channels of one run.
enum class ChannelState {
  Open,    ///< Senders may still publish.
  Closed,  ///< Every possible sender finished: drain, then stop cleanly.
  Aborted, ///< Hard shutdown (error / watchdog): stop immediately.
};

/// How a receive ended, or (Parked) that it has not ended yet.
enum class RecvResult {
  Ok,      ///< A value was dequeued or handed over.
  Parked,  ///< The waiter was queued on the channel; the task parks.
  Closed,  ///< Drained and no sender can ever publish again.
  Aborted, ///< The run was torn down.
};

/// Intrusive park node for one blocked task. Embedded in the scheduler's
/// task object, so parking and unparking allocate nothing. While queued
/// on a channel the node belongs to the channel set (guarded by its
/// mutex). A set operation that wakes it unlinks it, sets `WakeResult`
/// (and `Handoff` when Ok), and returns it in a chain linked through
/// `NextWaiter`; from then on it belongs to the caller again.
struct ChannelWaiter {
  ChannelWaiter *NextWaiter = nullptr;
  /// The value a sender handed directly to this waiter (WakeResult Ok).
  Value Handoff;
  /// Ok, Closed or Aborted once woken.
  RecvResult WakeResult = RecvResult::Ok;
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

/// One channel per static type τ, plus the shutdown protocol state for a
/// single executor run, all under one mutex. Each operation below takes
/// it exactly once. Those that can wake parked tasks return them as a
/// chain linked through ChannelWaiter::NextWaiter (null when none), each
/// with its WakeResult/Handoff set and already counted as a potential
/// sender again; the caller must make every one runnable.
class ChannelSet {
public:
  /// Registers \p N language threads as potential senders. Must be
  /// called before any of them runs; a set shuts down the moment no
  /// potential sender remains, so registering late would race the
  /// detection.
  void registerThreads(size_t N);

  /// Publishes \p V on τ's channel (creating it on first use); never
  /// blocks (unbounded). When a task is parked there, the value is handed
  /// to the oldest waiter, which is returned. After shutdown the value is
  /// dropped and counted in `channel_dropped_values`.
  [[nodiscard]] ChannelWaiter *send(const Type &Ty, Value V);

  /// Non-blocking receive on τ's channel (creating it on first use):
  /// dequeues into \p Out (Ok), or queues \p W and parks (Parked), or
  /// reports the shutdown state. Closed channels drain first; Aborted
  /// ones report Aborted at once. Parking takes the caller out of the
  /// potential senders in the same critical section, which may complete
  /// quiescence: then \p Woken holds every waiter closure woke, \p W
  /// included. After Parked the caller must not touch \p W again except
  /// through \p Woken.
  [[nodiscard]] RecvResult recvOrPark(const Type &Ty, Value &Out,
                                      ChannelWaiter &W,
                                      ChannelWaiter *&Woken);

  /// One thread finished (normally or not): it can never send again.
  /// May trigger clean closure of every channel.
  [[nodiscard]] ChannelWaiter *threadFinished();

  /// Closes every channel cleanly (queues drain, then RecvResult::Closed)
  /// and marks the set so later-created channels are born closed.
  [[nodiscard]] ChannelWaiter *closeAll();

  /// Hard shutdown: every channel (including ones created later) aborts;
  /// queued values are discarded.
  [[nodiscard]] ChannelWaiter *abortAll();

  /// Adds this set's channel counters into \p Out.
  void collectMetrics(RuntimeMetrics &Out);

  /// Values queued on τ's channel right now (0 if it does not exist; it
  /// is not created). Read-only: lets tests see that an abort discards
  /// the queue, which no send or recv can show.
  size_t depth(const Type &Ty);

  /// Attaches a trace buffer for lifecycle events (channel creation,
  /// Open→Closed/Aborted transitions, dropped sends). The set records
  /// only while holding its own mutex, satisfying the buffer's
  /// single-writer rule. Null detaches.
  void setTrace(TraceBuffer *Buffer);

private:
  /// One channel's data; its lifecycle is the set's State.
  struct Channel {
    ValueRing Queue;
    /// FIFO chain of parked tasks. Invariant: non-empty only while Queue
    /// is empty and the set is Open — a send prefers handoff to
    /// enqueueing, and a task parks only on an empty open channel.
    ChannelWaiter *Waiters = nullptr;
    ChannelWaiter *WaitersTail = nullptr;
    uint64_t Sends = 0;
    uint64_t Recvs = 0;
    uint64_t PeakDepth = 0;
  };

  /// Pre: M held. The channel for \p Ty, created on first use.
  Channel &channelLocked(const Type &Ty);
  /// Pre: M held. Moves the set to \p To (monotone: Open < Closed <
  /// Aborted) and returns every waiter it woke.
  ChannelWaiter *shutdownLocked(ChannelState To);
  /// Pre: M held. Clean closure once no potential sender remains and no
  /// value is in flight; returns the waiters it woke.
  ChannelWaiter *maybeQuiesceLocked();

  std::mutex M;
  std::map<Type, Channel> Channels;
  ChannelState State = ChannelState::Open;
  /// Registered threads that are neither finished nor parked in recv.
  size_t ActiveThreads = 0;
  /// Values queued but not yet received, across all channels.
  size_t PendingValues = 0;
  uint64_t DroppedValues = 0;
  /// Lifecycle trace buffer; written only under M.
  TraceBuffer *Trace = nullptr;
};

} // namespace fearless

#endif // FEARLESS_CONCURRENCY_CHANNEL_H
