//===- tests/trace_test.cpp -----------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// The structured tracing layer (support/Trace.h):
//
//  - ring semantics: wraparound keeps the *newest* window and tallies the
//    drops;
//  - the record/span hot path performs zero heap allocations once a
//    buffer exists (and a null buffer costs nothing), extending the PR 2
//    steady-state guarantee to tracing;
//  - the exporter produces strictly valid JSON in the Chrome trace_event
//    schema (pid/tid/ts/dur/name/ph), validated here by an in-test
//    recursive-descent JSON parser — a real parse, not a substring grep;
//  - multi-thread merges (real OS threads via ParallelExec) contain
//    events from multiple tids in one valid document;
//  - elided `if disconnected` sites surface as `disconnect.elided` while
//    real traversals surface as `disconnect.traverse` spans;
//  - tracing never changes results: a traced run matches an untraced one
//    step for step;
//  - an unwritable output path fails cleanly with a rendered error.
//
//===----------------------------------------------------------------------===//

#include <atomic>
#include <cstdlib>
#include <new>

// Allocation counting: this binary replaces global operator new so tests
// can assert the trace record path allocates nothing in steady state.
static std::atomic<uint64_t> GHeapAllocs{0};

void *operator new(std::size_t Size) {
  GHeapAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Size) { return ::operator new(Size); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

#include "TestUtil.h"

#include "analysis/StaticDisconnect.h"
#include "concurrency/ParallelExec.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace fearless;
using namespace fearless::testutil;

namespace {

uint64_t heapAllocs() {
  return GHeapAllocs.load(std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// A small strict JSON parser: enough to *actually parse* exporter output
// instead of grepping it. Rejects trailing garbage, unterminated strings,
// bad escapes, and malformed numbers.
//===----------------------------------------------------------------------===//

struct Json {
  enum Kind { Null, Bool, Number, String, Array, Object } K = Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<Json> Elems;
  std::map<std::string, Json> Fields;

  bool has(const std::string &Key) const { return Fields.count(Key); }
  const Json &at(const std::string &Key) const {
    static const Json Missing;
    auto It = Fields.find(Key);
    return It == Fields.end() ? Missing : It->second;
  }
};

class JsonParser {
public:
  explicit JsonParser(std::string Text) : S(std::move(Text)) {}

  /// Parses the whole document; Ok is false on any syntax error or
  /// trailing garbage.
  Json parse() {
    Json V = value();
    ws();
    if (Pos != S.size())
      Ok = false;
    return V;
  }

  bool ok() const { return Ok; }
  std::string errorAt() const {
    return "offset " + std::to_string(Pos) + " of " +
           std::to_string(S.size());
  }

private:
  std::string S; ///< Owned: the parser may outlive the caller's buffer.
  size_t Pos = 0;
  bool Ok = true;

  void ws() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t' ||
                              S[Pos] == '\n' || S[Pos] == '\r'))
      ++Pos;
  }
  bool eat(char C) {
    ws();
    if (Pos < S.size() && S[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }
  bool lit(const char *L) {
    size_t N = std::string(L).size();
    if (S.compare(Pos, N, L) == 0) {
      Pos += N;
      return true;
    }
    Ok = false;
    return false;
  }

  Json value() {
    ws();
    if (Pos >= S.size()) {
      Ok = false;
      return {};
    }
    char C = S[Pos];
    if (C == '{')
      return object();
    if (C == '[')
      return array();
    if (C == '"') {
      Json V;
      V.K = Json::String;
      V.Str = string();
      return V;
    }
    if (C == 't') {
      Json V;
      V.K = Json::Bool;
      V.B = true;
      lit("true");
      return V;
    }
    if (C == 'f') {
      Json V;
      V.K = Json::Bool;
      lit("false");
      return V;
    }
    if (C == 'n') {
      lit("null");
      return {};
    }
    return number();
  }

  Json object() {
    Json V;
    V.K = Json::Object;
    eat('{');
    ws();
    if (eat('}'))
      return V;
    do {
      ws();
      if (Pos >= S.size() || S[Pos] != '"') {
        Ok = false;
        return V;
      }
      std::string Key = string();
      if (!eat(':')) {
        Ok = false;
        return V;
      }
      V.Fields[Key] = value();
    } while (eat(','));
    if (!eat('}'))
      Ok = false;
    return V;
  }

  Json array() {
    Json V;
    V.K = Json::Array;
    eat('[');
    ws();
    if (eat(']'))
      return V;
    do {
      V.Elems.push_back(value());
    } while (eat(','));
    if (!eat(']'))
      Ok = false;
    return V;
  }

  std::string string() {
    std::string Out;
    ++Pos; // opening quote
    while (Pos < S.size() && S[Pos] != '"') {
      char C = S[Pos];
      if (static_cast<unsigned char>(C) < 0x20) {
        Ok = false; // raw control character: invalid JSON
        return Out;
      }
      if (C == '\\') {
        ++Pos;
        if (Pos >= S.size()) {
          Ok = false;
          return Out;
        }
        switch (S[Pos]) {
        case '"':
          Out += '"';
          break;
        case '\\':
          Out += '\\';
          break;
        case '/':
          Out += '/';
          break;
        case 'b':
          Out += '\b';
          break;
        case 'f':
          Out += '\f';
          break;
        case 'n':
          Out += '\n';
          break;
        case 'r':
          Out += '\r';
          break;
        case 't':
          Out += '\t';
          break;
        case 'u': {
          if (Pos + 4 >= S.size()) {
            Ok = false;
            return Out;
          }
          for (int I = 1; I <= 4; ++I)
            if (!isxdigit(static_cast<unsigned char>(S[Pos + I]))) {
              Ok = false;
              return Out;
            }
          Pos += 4;
          Out += '?'; // codepoint value irrelevant to these tests
          break;
        }
        default:
          Ok = false;
          return Out;
        }
        ++Pos;
      } else {
        Out += C;
        ++Pos;
      }
    }
    if (Pos >= S.size()) {
      Ok = false; // unterminated
      return Out;
    }
    ++Pos; // closing quote
    return Out;
  }

  Json number() {
    size_t Start = Pos;
    if (Pos < S.size() && S[Pos] == '-')
      ++Pos;
    size_t Digits = Pos;
    while (Pos < S.size() && isdigit(static_cast<unsigned char>(S[Pos])))
      ++Pos;
    if (Pos == Digits) {
      Ok = false;
      return {};
    }
    if (Pos < S.size() && S[Pos] == '.') {
      ++Pos;
      size_t Frac = Pos;
      while (Pos < S.size() && isdigit(static_cast<unsigned char>(S[Pos])))
        ++Pos;
      if (Pos == Frac) {
        Ok = false;
        return {};
      }
    }
    if (Pos < S.size() && (S[Pos] == 'e' || S[Pos] == 'E')) {
      ++Pos;
      if (Pos < S.size() && (S[Pos] == '+' || S[Pos] == '-'))
        ++Pos;
      size_t Exp = Pos;
      while (Pos < S.size() && isdigit(static_cast<unsigned char>(S[Pos])))
        ++Pos;
      if (Pos == Exp) {
        Ok = false;
        return {};
      }
    }
    Json V;
    V.K = Json::Number;
    V.Num = std::strtod(S.c_str() + Start, nullptr);
    return V;
  }
};

//===----------------------------------------------------------------------===//
// Chrome trace_event schema validation helpers.
//===----------------------------------------------------------------------===//

/// Parses \p Text into \p Doc and checks the Chrome trace_event container
/// schema: top-level object, "traceEvents" array, every event an object
/// carrying name/ph/pid/tid (and ts for non-metadata, dur for 'X'
/// completes). Fails the current test on violations. An out-parameter
/// because gtest ASSERT_* requires a void-returning function.
void validateChromeTrace(const std::string &Text, Json &Doc) {
  JsonParser Parser(Text);
  Doc = Parser.parse();
  EXPECT_TRUE(Parser.ok()) << "invalid JSON at " << Parser.errorAt();
  EXPECT_EQ(Doc.K, Json::Object);
  ASSERT_TRUE(Doc.has("traceEvents"));
  const Json &Events = Doc.at("traceEvents");
  EXPECT_EQ(Events.K, Json::Array);
  for (const Json &E : Events.Elems) {
    ASSERT_EQ(E.K, Json::Object);
    ASSERT_TRUE(E.has("name"));
    EXPECT_EQ(E.at("name").K, Json::String);
    ASSERT_TRUE(E.has("ph"));
    ASSERT_EQ(E.at("ph").K, Json::String);
    ASSERT_EQ(E.at("ph").Str.size(), 1u);
    ASSERT_TRUE(E.has("pid"));
    EXPECT_EQ(E.at("pid").K, Json::Number);
    ASSERT_TRUE(E.has("tid"));
    EXPECT_EQ(E.at("tid").K, Json::Number);
    char Ph = E.at("ph").Str[0];
    if (Ph != 'M') {
      ASSERT_TRUE(E.has("ts")) << E.at("name").Str;
      EXPECT_EQ(E.at("ts").K, Json::Number);
    }
    if (Ph == 'X') {
      ASSERT_TRUE(E.has("dur")) << E.at("name").Str;
      EXPECT_EQ(E.at("dur").K, Json::Number);
      EXPECT_GE(E.at("dur").Num, 0.0);
    }
    if (Ph == 'i') {
      EXPECT_TRUE(E.has("s")) << E.at("name").Str;
    }
  }
}

/// True if any non-metadata event in \p Doc is named \p Name.
bool hasEvent(const Json &Doc, const std::string &Name) {
  for (const Json &E : Doc.at("traceEvents").Elems)
    if (E.at("name").Str == Name && E.at("ph").Str != "M")
      return true;
  return false;
}

/// Distinct tids among non-metadata events.
size_t distinctTids(const Json &Doc) {
  std::map<double, int> Tids;
  for (const Json &E : Doc.at("traceEvents").Elems)
    if (E.at("ph").Str != "M")
      ++Tids[E.at("tid").Num];
  return Tids.size();
}

//===----------------------------------------------------------------------===//
// Ring semantics.
//===----------------------------------------------------------------------===//

TEST(TraceRing, WraparoundKeepsNewestWindow) {
  TraceConfig Config;
  Config.BufferCapacity = 8;
  TraceSession Session(Config);
  TraceBuffer &Buf = Session.registerThread(7, "ring");
  for (uint64_t I = 0; I < 20; ++I)
    Buf.record("evt", "test", 'i', /*StartNs=*/I, 0, "i", I);

  EXPECT_EQ(Buf.capacity(), 8u);
  EXPECT_EQ(Buf.recorded(), 20u);
  EXPECT_EQ(Buf.retained(), 8u);
  EXPECT_EQ(Buf.dropped(), 12u);
  EXPECT_EQ(Session.droppedEvents(), 12u);

  // The retained window is exactly the newest 8 events, oldest first.
  std::vector<uint64_t> Args;
  Buf.forEachRetained(
      [&](const TraceEvent &E) { Args.push_back(E.ArgValue); });
  ASSERT_EQ(Args.size(), 8u);
  for (size_t I = 0; I < Args.size(); ++I)
    EXPECT_EQ(Args[I], 12 + I);
}

TEST(TraceRing, PartiallyFilledRetainsInOrder) {
  TraceConfig Config;
  Config.BufferCapacity = 16;
  TraceSession Session(Config);
  TraceBuffer &Buf = Session.registerThread(0, "ring");
  for (uint64_t I = 0; I < 5; ++I)
    Buf.instant("evt", "test", "i", I);
  EXPECT_EQ(Buf.retained(), 5u);
  EXPECT_EQ(Buf.dropped(), 0u);
  std::vector<uint64_t> Args;
  Buf.forEachRetained(
      [&](const TraceEvent &E) { Args.push_back(E.ArgValue); });
  EXPECT_EQ(Args, (std::vector<uint64_t>{0, 1, 2, 3, 4}));
}

//===----------------------------------------------------------------------===//
// Allocation-freedom: the PR 2 guarantee extends to tracing.
//===----------------------------------------------------------------------===//

TEST(TraceAlloc, RecordAndSpanAreAllocationFree) {
  TraceConfig Config;
  Config.BufferCapacity = 256;
  TraceSession Session(Config);
  TraceBuffer &Buf = Session.registerThread(0, "hot");
  Buf.instant("warm", "test"); // nothing to warm, but mirror the benches

  uint64_t Before = heapAllocs();
  for (int I = 0; I < 10000; ++I) {
    Buf.record("evt", "test", 'X', 1, 2, "n", 3);
    Buf.instant("tick", "test");
    TraceSpan Span(&Buf, "span", "test");
    Span.setArg("i", static_cast<uint64_t>(I));
  }
  EXPECT_EQ(heapAllocs() - Before, 0u)
      << "trace record hot path allocated";
}

TEST(TraceAlloc, NullBufferSpanIsAllocationFree) {
  // The runtime-disabled path every instrumented site takes when tracing
  // is off: must be free in both senses.
  TraceBuffer *Null = nullptr;
  uint64_t Before = heapAllocs();
  for (int I = 0; I < 10000; ++I) {
    TraceSpan Span(Null, "span", "test");
    Span.setArg("i", static_cast<uint64_t>(I));
  }
  EXPECT_EQ(heapAllocs() - Before, 0u)
      << "disabled tracing allocated";
}

//===----------------------------------------------------------------------===//
// Exporter: strictly valid Chrome trace_event JSON.
//===----------------------------------------------------------------------===//

TEST(TraceExport, MachineTraceIsValidChromeJson) {
  Pipeline P = mustCompile(programs::MessagePassing);
  // The bytecode `fearlessc run` uses.
  const vm::CompiledProgram Code = shippedBytecode(P);
  TraceSession Trace;
  MachineOptions Opts;
  Opts.Trace = &Trace;
  Opts.VmCode = &Code;
  Machine M(P.Checked, Opts);
  M.spawn(sym(P, "producer"), {Value::intVal(10)});
  M.spawn(sym(P, "consumer"), {Value::intVal(10)});
  Expected<MachineSummary> R = M.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());

  Json Doc;
  validateChromeTrace(Trace.toChromeJson(), Doc);
  // Machine control buffer + both language threads contribute.
  EXPECT_GE(distinctTids(Doc), 2u);
  EXPECT_TRUE(hasEvent(Doc, "machine.run"));
  // EC3 pairing reconstructs both sides' wait spans.
  EXPECT_TRUE(hasEvent(Doc, "send.block"));
  EXPECT_TRUE(hasEvent(Doc, "recv.block"));
  EXPECT_TRUE(hasEvent(Doc, "send.wait"));
  EXPECT_TRUE(hasEvent(Doc, "recv.wait"));
  EXPECT_TRUE(hasEvent(Doc, "send.transfer"));
}

TEST(TraceExport, ParallelMergeIsValidJsonAcrossThreads) {
  Pipeline P = mustCompile(programs::MessagePassing);
  TraceSession Trace;
  ParallelExecOptions Opts;
  Opts.Trace = &Trace;
  ParallelExec Exec(P.Checked, Opts);
  Exec.spawn(sym(P, "producer"), {Value::intVal(50)});
  Exec.spawn(sym(P, "consumer"), {Value::intVal(50)});
  Expected<std::vector<Value>> R = Exec.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  EXPECT_EQ((*R)[1], Value::intVal(50 * 49 / 2));

  // The merged document must parse strictly even though it interleaves
  // buffers written concurrently by real OS threads.
  Json Doc;
  validateChromeTrace(Trace.toChromeJson(), Doc);
  EXPECT_GE(Trace.bufferCount(), 4u); // executor + 2 workers + channels
  EXPECT_GE(distinctTids(Doc), 3u);
  EXPECT_TRUE(hasEvent(Doc, "exec.run"));
  EXPECT_TRUE(hasEvent(Doc, "thread.run"));
  EXPECT_TRUE(hasEvent(Doc, "chan.send"));
  EXPECT_TRUE(hasEvent(Doc, "chan.recv"));
  EXPECT_TRUE(hasEvent(Doc, "channels.closed"));
  EXPECT_TRUE(hasEvent(Doc, "finished"));
}

TEST(TraceExport, PoolStartsNoMoreWorkersThanTasks) {
  // Tasks never spawn tasks, so a worker past the task count could never
  // get work: asking for 8 workers to run one task starts one.
  Pipeline P = mustCompile("def one() : int { 1 }");
  TraceSession Trace;
  ParallelExecOptions Opts;
  Opts.Trace = &Trace;
  Opts.NumWorkers = 8;
  ParallelExec Exec(P.Checked, Opts);
  Exec.spawn(sym(P, "one"), {});
  Expected<std::vector<Value>> R = Exec.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  EXPECT_EQ((*R)[0], Value::intVal(1));

  Json Doc;
  validateChromeTrace(Trace.toChromeJson(), Doc);
  size_t WorkerLanes = 0;
  for (const Json &E : Doc.at("traceEvents").Elems)
    if (E.at("ph").Str == "M" && E.at("name").Str == "thread_name" &&
        E.at("args").at("name").Str == "worker")
      ++WorkerLanes;
  EXPECT_EQ(WorkerLanes, 1u);
}

TEST(TraceExport, ElidedAndTraversedChecksAreDistinguished) {
  // One site the static analysis proves must-disconnected: with the
  // verdict table installed the machine's bytecode answers without a
  // traversal (disconnect.elided); without it the real traversal runs
  // and its span carries the visit count.
  auto FR = checkSource(R"(
struct gnode { next : gnode; }

def detach(unused : int) : int {
  let a = new gnode();
  let b = new gnode();
  a.next = b;
  a.next = a;
  if disconnected(a, b) { 1 } else { 0 }
}
)");
  ASSERT_TRUE(FR.hasValue()) << (FR ? "" : FR.error().render());
  AnalysisReport Report = analyzeProgram(FR->Checked);
  ASSERT_EQ(Report.Sites.size(), 1u);
  ASSERT_EQ(Report.Sites[0].Verdict, DisconnectVerdict::MustDisconnected);
  DisconnectVerdictTable Table = Report.verdictTable();
  Symbol Detach = FR->Prog->Names.intern("detach");

  auto RunTraced = [&](const DisconnectVerdictTable *Verdicts) {
    TraceSession Trace;
    MachineOptions Opts;
    Opts.Trace = &Trace;
    Opts.StaticVerdicts = Verdicts;
    Opts.CrossCheckElision = false;
    Machine M(FR->Checked, Opts);
    M.spawn(Detach, {Value::intVal(0)});
    Expected<MachineSummary> R = M.run();
    EXPECT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
    if (R) {
      EXPECT_EQ(R->ThreadResults[0], Value::intVal(1));
    }
    Json Doc;
    validateChromeTrace(Trace.toChromeJson(), Doc);
    return Doc;
  };

  Json Elided = RunTraced(&Table);
  EXPECT_TRUE(hasEvent(Elided, "disconnect.elided"));
  EXPECT_FALSE(hasEvent(Elided, "disconnect.traverse"));

  Json Traversed = RunTraced(nullptr);
  EXPECT_TRUE(hasEvent(Traversed, "disconnect.traverse"));
  EXPECT_FALSE(hasEvent(Traversed, "disconnect.elided"));
}

//===----------------------------------------------------------------------===//
// Tracing is an observer: results and step counts are unchanged.
//===----------------------------------------------------------------------===//

TEST(TraceExport, TracedRunMatchesUntraced) {
  Pipeline P = mustCompile(programs::MessagePassing);
  const vm::CompiledProgram Code = shippedBytecode(P);
  MachineOptions PlainOpts;
  PlainOpts.VmCode = &Code;
  Machine Plain(P.Checked, PlainOpts);
  Plain.spawn(sym(P, "producer"), {Value::intVal(25)});
  Plain.spawn(sym(P, "consumer"), {Value::intVal(25)});
  Expected<MachineSummary> R1 = Plain.run();
  ASSERT_TRUE(R1.hasValue()) << (R1 ? "" : R1.error().render());

  TraceSession Trace;
  MachineOptions Opts = PlainOpts;
  Opts.Trace = &Trace;
  Machine Traced(P.Checked, Opts);
  Traced.spawn(sym(P, "producer"), {Value::intVal(25)});
  Traced.spawn(sym(P, "consumer"), {Value::intVal(25)});
  Expected<MachineSummary> R2 = Traced.run();
  ASSERT_TRUE(R2.hasValue()) << (R2 ? "" : R2.error().render());

  EXPECT_EQ(R1->Steps, R2->Steps);
  ASSERT_EQ(R1->ThreadResults.size(), R2->ThreadResults.size());
  for (size_t I = 0; I < R1->ThreadResults.size(); ++I)
    EXPECT_EQ(R1->ThreadResults[I], R2->ThreadResults[I]);
}

TEST(TraceExport, WriteFailsCleanlyOnUnwritablePath) {
  TraceSession Trace;
  std::string Error;
  EXPECT_FALSE(Trace.writeChromeJson(
      "/nonexistent-dir-fearless/trace.json", Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_NE(Error.find("nonexistent-dir-fearless"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The parser itself: make sure the validator would actually catch breakage.
//===----------------------------------------------------------------------===//

TEST(TraceJsonParser, RejectsMalformedDocuments) {
  for (const char *Bad :
       {"{", "{\"a\":}", "[1,]", "{\"a\":1}garbage", "\"unterminated",
        "{\"a\":01e}", "{\"a\":\"\\q\"}", "nul"}) {
    JsonParser Parser{std::string(Bad)};
    (void)Parser.parse();
    EXPECT_FALSE(Parser.ok()) << "accepted: " << Bad;
  }
  JsonParser Good{std::string(
      "{\"traceEvents\":[{\"name\":\"a b\\n\",\"ph\":\"X\",\"pid\":1,"
      "\"tid\":0,\"ts\":1.5,\"dur\":0.25}],\"n\":-1.5e3}")};
  Json Doc = Good.parse();
  EXPECT_TRUE(Good.ok());
  EXPECT_EQ(Doc.at("traceEvents").Elems.size(), 1u);
  EXPECT_EQ(Doc.at("n").Num, -1500.0);
}

} // namespace
