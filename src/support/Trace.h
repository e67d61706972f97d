//===- support/Trace.h - Structured runtime tracing -------------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Low-overhead structured tracing for the runtime: per-thread
/// fixed-capacity ring buffers of POD trace events, RAII span helpers,
/// and a session registry that merges the buffers (after join) into
/// Chrome `trace_event` JSON loadable in Perfetto / chrome://tracing.
///
/// Design constraints, in priority order:
///
///  1. **Allocation-free hot path.** A buffer's storage is reserved once
///     at registration; recording an event is a clock read plus a store
///     into the ring. Event names and categories are static strings —
///     nothing is copied or owned. This preserves the PR 2 steady-state
///     zero-allocation guarantee (`allocs_per_iter == 0`) with tracing
///     *enabled*, not just disabled.
///  2. **Near-zero disabled cost.** The runtime-disabled path is a null
///     `TraceBuffer *`: every instrumentation site guards on one pointer
///     test (measured in bench_trace: about 0.3 ns, below what a whole
///     run can resolve).
///  3. **No synchronization at record time.** Each buffer has exactly one
///     writer (a worker thread, a language thread stepped by the
///     deterministic machine, or a lock-protected subsystem such as
///     ChannelSet, which records only under its own mutex). The session
///     mutex is taken only at registration and export, both outside the
///     measured region.
///
/// Ring semantics: when a buffer is full, new events overwrite the
/// oldest — a trace always holds the *newest* window of activity, and
/// the exporter reports how many events were dropped.
///
/// Documented for users in docs/OBSERVABILITY.md (event schema, how to
/// open a trace in Perfetto); surfaced on the CLI as
/// `fearlessc run --trace out.json`.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_SUPPORT_TRACE_H
#define FEARLESS_SUPPORT_TRACE_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace fearless {

/// One recorded event. POD; names/categories are static strings and are
/// never owned. `Phase` follows the Chrome trace_event phases that the
/// exporter emits: 'X' (complete, with duration) and 'i' (instant).
struct TraceEvent {
  const char *Name = nullptr;
  const char *Category = nullptr;
  /// Optional single numeric argument (`"args":{ArgName:ArgValue}`);
  /// null ArgName means no argument.
  const char *ArgName = nullptr;
  uint64_t StartNs = 0; ///< Nanoseconds since the session origin.
  uint64_t DurNs = 0;   ///< 0 for instant events.
  uint64_t ArgValue = 0;
  uint32_t Tid = 0;
  char Phase = 'X';
};

/// A fixed-capacity single-writer ring buffer of trace events. Storage
/// is allocated once at construction; `record` never allocates. On
/// overflow the oldest events are overwritten (newest-window semantics).
class TraceBuffer {
public:
  TraceBuffer(uint32_t Tid, const char *Label, size_t Capacity,
              uint64_t OriginNs)
      : Events(Capacity ? Capacity : 1), ThreadId(Tid), ThreadLabel(Label),
        OriginNs(OriginNs) {}

  /// Nanoseconds since the owning session's origin (steady clock).
  uint64_t now() const;

  /// Records a complete ('X') or instant ('i') event. Single-writer:
  /// only this buffer's owning thread may call it.
  void record(const char *Name, const char *Category, char Phase,
              uint64_t StartNs, uint64_t DurNs,
              const char *ArgName = nullptr, uint64_t ArgValue = 0) {
    TraceEvent &E = Events[Count % Events.size()];
    E.Name = Name;
    E.Category = Category;
    E.ArgName = ArgName;
    E.StartNs = StartNs;
    E.DurNs = DurNs;
    E.ArgValue = ArgValue;
    E.Tid = ThreadId;
    E.Phase = Phase;
    ++Count;
  }

  /// Records an instant event stamped now.
  void instant(const char *Name, const char *Category,
               const char *ArgName = nullptr, uint64_t ArgValue = 0) {
    record(Name, Category, 'i', now(), 0, ArgName, ArgValue);
  }

  uint32_t tid() const { return ThreadId; }
  const char *label() const { return ThreadLabel; }
  size_t capacity() const { return Events.size(); }
  /// Events recorded over the buffer's lifetime (monotone).
  uint64_t recorded() const { return Count; }
  /// Events currently retained (== recorded() until the ring wraps).
  size_t retained() const {
    return Count < Events.size() ? static_cast<size_t>(Count)
                                 : Events.size();
  }
  /// Events lost to ring overwrite.
  uint64_t dropped() const {
    return Count > Events.size() ? Count - Events.size() : 0;
  }

  /// Visits retained events oldest-first. Export-time only — must not
  /// race the owning writer thread.
  void forEachRetained(
      const std::function<void(const TraceEvent &)> &Fn) const {
    size_t N = retained();
    size_t Start = Count > Events.size()
                       ? static_cast<size_t>(Count % Events.size())
                       : 0;
    for (size_t I = 0; I < N; ++I)
      Fn(Events[(Start + I) % Events.size()]);
  }

private:
  std::vector<TraceEvent> Events;
  uint64_t Count = 0;
  uint32_t ThreadId;
  const char *ThreadLabel;
  uint64_t OriginNs;
};

/// Session configuration.
struct TraceConfig {
  /// Events retained per thread buffer. The default (64Ki events à 56
  /// bytes ≈ 3.5 MiB/thread) holds a few seconds of heavily instrumented
  /// runtime activity.
  size_t BufferCapacity = 64 * 1024;
};

/// One tracing session: owns every registered thread buffer and merges
/// them into Chrome trace_event JSON after the writers have joined.
class TraceSession {
public:
  explicit TraceSession(TraceConfig Config = {});

  /// Creates and returns a buffer for a writer thread. Thread-safe; the
  /// returned reference is stable for the session's lifetime. Call once
  /// per writer, before its hot loop.
  TraceBuffer &registerThread(uint32_t Tid, const char *Label);

  /// Nanoseconds since the session origin.
  uint64_t nowNs() const;

  /// Merges every buffer into a Chrome trace_event JSON object
  /// (`{"traceEvents":[...]}`), including process/thread metadata and a
  /// dropped-event tally in `otherData`. Must not race active writers —
  /// call after join.
  std::string toChromeJson() const;

  /// Writes toChromeJson() to \p Path. Returns false and fills \p Error
  /// on an unwritable path instead of aborting.
  bool writeChromeJson(const std::string &Path, std::string &Error) const;

  /// Sum of every buffer's dropped-event count.
  uint64_t droppedEvents() const;
  size_t bufferCount() const;

private:
  TraceConfig Config;
  uint64_t OriginNs;
  mutable std::mutex M;
  /// Deque: growth never invalidates handed-out buffer references.
  std::deque<TraceBuffer> Buffers;
};

/// RAII span: stamps the start on construction and records one complete
/// event into \p Buffer on destruction. A null buffer (tracing disabled)
/// reduces every operation to one pointer test.
class TraceSpan {
public:
  TraceSpan(TraceBuffer *Buffer, const char *Name,
            const char *Category = "runtime")
      : Buffer(Buffer), Name(Name), Category(Category) {
    if (Buffer)
      StartNs = Buffer->now();
  }
  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

  /// Attaches one numeric argument to the event (latest call wins).
  void setArg(const char *Name, uint64_t Value) {
    ArgName = Name;
    ArgValue = Value;
  }

  ~TraceSpan() {
    if (Buffer)
      Buffer->record(Name, Category, 'X', StartNs,
                     Buffer->now() - StartNs, ArgName, ArgValue);
  }

private:
  TraceBuffer *Buffer;
  const char *Name;
  const char *Category;
  const char *ArgName = nullptr;
  uint64_t StartNs = 0;
  uint64_t ArgValue = 0;
};

} // namespace fearless

#endif // FEARLESS_SUPPORT_TRACE_H
