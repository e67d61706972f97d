//===- support/Trace.cpp --------------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "support/JsonEscape.h"

#include <cstdio>
#include <fstream>

using namespace fearless;

namespace {

uint64_t steadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Appends nanoseconds as fractional microseconds (Chrome's `ts`/`dur`
/// unit) with nanosecond resolution.
void appendMicros(std::string &Out, uint64_t Ns) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%llu.%03u",
                static_cast<unsigned long long>(Ns / 1000),
                static_cast<unsigned>(Ns % 1000));
  Out += Buf;
}

void appendEvent(std::string &Out, const TraceEvent &E) {
  Out += "{\"name\":\"";
  Out += escapeJson(E.Name);
  Out += "\",\"cat\":\"";
  Out += escapeJson(E.Category ? E.Category : "runtime");
  Out += "\",\"ph\":\"";
  Out += E.Phase;
  Out += "\",\"pid\":1,\"tid\":";
  Out += std::to_string(E.Tid);
  Out += ",\"ts\":";
  appendMicros(Out, E.StartNs);
  if (E.Phase == 'X') {
    Out += ",\"dur\":";
    appendMicros(Out, E.DurNs);
  }
  if (E.Phase == 'i')
    Out += ",\"s\":\"t\""; // instant scope: thread
  if (E.ArgName) {
    Out += ",\"args\":{\"";
    Out += escapeJson(E.ArgName);
    Out += "\":";
    Out += std::to_string(E.ArgValue);
    Out += "}";
  }
  Out += "}";
}

} // namespace

uint64_t TraceBuffer::now() const { return steadyNowNs() - OriginNs; }

TraceSession::TraceSession(TraceConfig Config)
    : Config(Config), OriginNs(steadyNowNs()) {}

TraceBuffer &TraceSession::registerThread(uint32_t Tid,
                                          const char *Label) {
  std::lock_guard<std::mutex> Lock(M);
  Buffers.emplace_back(Tid, Label, Config.BufferCapacity, OriginNs);
  return Buffers.back();
}

uint64_t TraceSession::nowNs() const { return steadyNowNs() - OriginNs; }

uint64_t TraceSession::droppedEvents() const {
  std::lock_guard<std::mutex> Lock(M);
  uint64_t Dropped = 0;
  for (const TraceBuffer &B : Buffers)
    Dropped += B.dropped();
  return Dropped;
}

size_t TraceSession::bufferCount() const {
  std::lock_guard<std::mutex> Lock(M);
  return Buffers.size();
}

std::string TraceSession::toChromeJson() const {
  std::lock_guard<std::mutex> Lock(M);
  std::string Out = "{\"traceEvents\":[";
  bool First = true;
  auto Emit = [&](const std::string &Event) {
    if (!First)
      Out += ",\n";
    First = false;
    Out += Event;
  };

  // Process metadata, then one thread-name row per buffer.
  Emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
       "\"args\":{\"name\":\"fearless\"}}");
  uint64_t Dropped = 0, Recorded = 0;
  for (const TraceBuffer &B : Buffers) {
    std::string Meta = "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                       "\"tid\":";
    Meta += std::to_string(B.tid());
    Meta += ",\"args\":{\"name\":\"";
    Meta += escapeJson(B.label());
    Meta += "\"}}";
    Emit(Meta);
    Dropped += B.dropped();
    Recorded += B.recorded();
  }

  for (const TraceBuffer &B : Buffers)
    B.forEachRetained([&](const TraceEvent &E) {
      std::string Event;
      Event.reserve(160);
      appendEvent(Event, E);
      Emit(Event);
    });

  Out += "],\"displayTimeUnit\":\"ns\",\"otherData\":{"
         "\"recorded_events\":\"" +
         std::to_string(Recorded) + "\",\"dropped_events\":\"" +
         std::to_string(Dropped) + "\"}}";
  Out += "\n";
  return Out;
}

bool TraceSession::writeChromeJson(const std::string &Path,
                                   std::string &Error) const {
  std::ofstream Out(Path);
  if (!Out) {
    Error = "cannot open trace output '" + Path + "' for writing";
    return false;
  }
  Out << toChromeJson();
  Out.flush();
  if (!Out) {
    Error = "failed while writing trace output '" + Path + "'";
    return false;
  }
  return true;
}
