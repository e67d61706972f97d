//===- tests/server_test.cpp - fearlessd daemon tests ---------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// The daemon suite: the wire protocol's encode/decode layer in memory
// (every malformed-frame path), and a live in-process Server driven over
// real unix sockets — single-flight compilation under concurrent clients,
// bit-identical hit/miss/standalone output, typed admission-control
// rejections, negative caching, and drain shutdown.
//
//===----------------------------------------------------------------------===//

#include "driver/CompilePipeline.h"
#include "server/Client.h"
#include "server/DerivationCache.h"
#include "server/Server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace fearless;
using namespace fearless::server;

namespace {

//===----------------------------------------------------------------------===//
// Test programs
//===----------------------------------------------------------------------===//

const char *const TinyProgram = R"(
def add(a : int, b : int) : int {
  a + b
}

def main() : int {
  add(40, 2)
}
)";

const char *const ListProgram = R"(
struct node {
  value : int;
  iso next : node?;
}

def sum(n : node) : int {
  let some(nx) = n.next in { n.value + sum(nx) } else { n.value }
}

def main() : int {
  let c = new node(3, none);
  let b = new node(2, some c);
  let a = new node(1, some b);
  sum(a)
}
)";

const char *const BrokenProgram = "def main( : int { 42 }";

//===----------------------------------------------------------------------===//
// Json
//===----------------------------------------------------------------------===//

TEST(Json, RoundTripAndDeterministicOrder) {
  Json Doc = Json::object();
  Doc.set("b", true);
  Doc.set("n", static_cast<int64_t>(-7));
  Doc.set("s", "he\"llo\n");
  Json Arr = Json::array();
  Arr.push(static_cast<int64_t>(1));
  Arr.push(static_cast<int64_t>(2));
  Doc.set("a", std::move(Arr));
  std::string Bytes = Doc.dump();
  // Insertion order is serialization order — the determinism the
  // bit-identity tests lean on.
  EXPECT_EQ(Bytes, "{\"b\":true,\"n\":-7,\"s\":\"he\\\"llo\\n\","
                   "\"a\":[1,2]}");
  Expected<Json> Back = parseJson(Bytes);
  ASSERT_TRUE(Back.hasValue());
  EXPECT_EQ(Back->dump(), Bytes);
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_FALSE(parseJson("").hasValue());
  EXPECT_FALSE(parseJson("{").hasValue());
  EXPECT_FALSE(parseJson("{\"a\": }").hasValue());
  EXPECT_FALSE(parseJson("[1,]").hasValue());
  EXPECT_FALSE(parseJson("{} trailing").hasValue());
  EXPECT_FALSE(parseJson("\"unterminated").hasValue());
  // The nesting-depth cap stops stack exhaustion.
  std::string Deep(1000, '[');
  Deep += std::string(1000, ']');
  EXPECT_FALSE(parseJson(Deep).hasValue());
}

TEST(Json, IntegersStayExact) {
  Expected<Json> V = parseJson("{\"x\": 9007199254740993}");
  ASSERT_TRUE(V.hasValue());
  EXPECT_EQ(V->getInt("x", 0), 9007199254740993ll);
}

//===----------------------------------------------------------------------===//
// Framing + request decode (pure, in memory)
//===----------------------------------------------------------------------===//

TEST(Wire, FrameReaderReassemblesSplitFrames) {
  std::string F1 = frameMessage("hello");
  std::string F2 = frameMessage("world!");
  std::string Stream = F1 + F2;
  FrameReader R;
  // Feed one byte at a time: a frame must only surface once complete.
  std::vector<std::string> Got;
  for (char C : Stream) {
    R.feed(std::string_view(&C, 1));
    while (std::optional<std::string> P = R.next())
      Got.push_back(*P);
  }
  ASSERT_EQ(Got.size(), 2u);
  EXPECT_EQ(Got[0], "hello");
  EXPECT_EQ(Got[1], "world!");
  EXPECT_EQ(R.pending(), 0u);
}

TEST(Wire, TruncatedFrameNeverSurfaces) {
  std::string F = frameMessage("payload");
  FrameReader R;
  R.feed(std::string_view(F).substr(0, F.size() - 1));
  EXPECT_FALSE(R.next().has_value());
  EXPECT_FALSE(R.overflowed());
  EXPECT_GT(R.pending(), 0u);
}

TEST(Wire, OversizedDeclaredLengthFailsBeforePayload) {
  FrameReader R(/*MaxFrameBytes=*/16);
  // Header declares 16 MiB; only the 4 header bytes are ever fed.
  char Hdr[4] = {0x01, 0x00, 0x00, 0x00};
  R.feed(std::string_view(Hdr, 4));
  EXPECT_TRUE(R.overflowed());
  EXPECT_FALSE(R.next().has_value());
}

TEST(Wire, DecodeRejectsBadRequests) {
  EXPECT_FALSE(decodeRequest("not json").hasValue());
  EXPECT_FALSE(decodeRequest("[1,2,3]").hasValue());
  EXPECT_FALSE(decodeRequest("{\"op\": \"check\"}").hasValue()); // no v
  EXPECT_FALSE(
      decodeRequest("{\"v\": \"fearless-wire-v1\", \"op\": \"frobnicate\"}")
          .hasValue());
  // check requires a source.
  EXPECT_FALSE(
      decodeRequest("{\"v\": \"fearless-wire-v1\", \"op\": \"check\"}")
          .hasValue());
  // args must be integers.
  EXPECT_FALSE(
      decodeRequest("{\"v\": \"fearless-wire-v1\", \"op\": \"run\", "
                    "\"source\": \"x\", \"args\": [\"y\"]}")
          .hasValue());
  // metrics needs no source.
  EXPECT_TRUE(
      decodeRequest("{\"v\": \"fearless-wire-v1\", \"op\": \"metrics\"}")
          .hasValue());
}

TEST(Wire, RequestEncodeDecodeRoundTrip) {
  // Every option key set away from its default must survive the trip.
  WireRequest R;
  R.Op = WireOp::Run;
  R.Id = 42;
  R.Name = "t.fls";
  R.Source = TinyProgram;
  R.Fn = "entry";
  R.Args = {1, -2};
  R.Pipeline.UseOracle = false;
  R.Pipeline.Interprocedural = false;
  R.Pipeline.Checks = false;
  R.Pipeline.Elide = false;
  R.Run.Seed = 7;
  R.Run.Stats = true;
  R.Run.Metrics = true;
  R.Run.Workers = 3;
  R.Run.SchedSeed = 11;
  R.Analyze.Json = true;
  R.Analyze.DumpSummaries = true;
  R.Analyze.Werror = true;
  Expected<WireRequest> Back = decodeRequest(encodeRequest(R));
  ASSERT_TRUE(Back.hasValue());
  EXPECT_EQ(Back->Op, WireOp::Run);
  EXPECT_EQ(Back->Id, 42);
  EXPECT_EQ(Back->Name, "t.fls");
  EXPECT_EQ(Back->Source, TinyProgram);
  EXPECT_EQ(Back->Fn, "entry");
  EXPECT_EQ(Back->Args, (std::vector<int64_t>{1, -2}));
  EXPECT_FALSE(Back->Pipeline.UseOracle);
  EXPECT_FALSE(Back->Pipeline.Interprocedural);
  EXPECT_FALSE(Back->Pipeline.Checks);
  EXPECT_FALSE(Back->Pipeline.Elide);
  EXPECT_EQ(Back->Run.Seed, 7u);
  EXPECT_TRUE(Back->Run.Stats);
  EXPECT_TRUE(Back->Run.Metrics);
  EXPECT_EQ(Back->Run.Workers, std::optional<size_t>(3));
  EXPECT_EQ(Back->Run.SchedSeed, 11u);
  EXPECT_TRUE(Back->Analyze.Json);
  EXPECT_TRUE(Back->Analyze.DumpSummaries);
  EXPECT_TRUE(Back->Analyze.Werror);

  // Worker count 0 (the auto-sized pool) is distinct from "no pool".
  R.Run.Workers = 0;
  Back = decodeRequest(encodeRequest(R));
  ASSERT_TRUE(Back.hasValue());
  EXPECT_EQ(Back->Run.Workers, std::optional<size_t>(0));
}

TEST(Wire, DefaultRequestEncodingIsPinned) {
  // The exact bytes a default request encodes to: the wire keys, their
  // order and their defaults are the protocol (docs/SERVER.md).
  EXPECT_EQ(encodeRequest(WireRequest()),
            "{\"v\":\"fearless-wire-v1\",\"op\":\"check\",\"name\":\"\","
            "\"options\":{\"oracle\":true,\"interprocedural\":true,"
            "\"checks\":true,\"elide\":true,\"seed\":0,\"stats\":false,"
            "\"metrics\":false,\"workers\":-1,\"sched_seed\":0,"
            "\"json\":false,\"summaries\":false,\"werror\":false}}");
  // A request without an options object decodes to the same defaults.
  Expected<WireRequest> Bare = decodeRequest(
      "{\"v\":\"fearless-wire-v1\",\"op\":\"check\",\"source\":\"x\"}");
  ASSERT_TRUE(Bare.hasValue());
  Bare->Name.clear();
  Bare->Source.clear();
  EXPECT_EQ(encodeRequest(*Bare), encodeRequest(WireRequest()));
}

//===----------------------------------------------------------------------===//
// DerivationCache (no sockets)
//===----------------------------------------------------------------------===//

TEST(DerivationCache, KeySeparatesSourceAndOptions) {
  PipelineOptions A, B;
  B.Elide = false;
  EXPECT_NE(cacheKey(TinyProgram, A), cacheKey(TinyProgram, B));
  EXPECT_NE(cacheKey(TinyProgram, A), cacheKey(ListProgram, A));
  EXPECT_EQ(cacheKey(TinyProgram, A), cacheKey(TinyProgram, A));
}

TEST(DerivationCache, SingleFlightAcrossThreads) {
  DerivationCache Cache(64u << 20);
  constexpr int N = 8;
  std::atomic<int> Hits{0};
  std::atomic<bool> Failed{false};
  std::vector<std::thread> Threads;
  for (int I = 0; I < N; ++I)
    Threads.emplace_back([&] {
      bool WasHit = false;
      auto A = Cache.getOrBuild(ListProgram, PipelineOptions{}, &WasHit);
      if (!A.hasValue())
        Failed = true;
      if (WasHit)
        ++Hits;
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_FALSE(Failed);
  CacheStats S = Cache.stats();
  // The Building placeholder is inserted under the mutex, so exactly one
  // thread ever compiles; everyone else is a hit (possibly a coalesced
  // wait, which still counts as a hit).
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, static_cast<uint64_t>(N - 1));
  EXPECT_EQ(Hits.load(), N - 1);
}

TEST(DerivationCache, NegativeCachingOfBrokenPrograms) {
  DerivationCache Cache(64u << 20);
  bool Hit1 = false, Hit2 = false;
  auto A1 = Cache.getOrBuild(BrokenProgram, PipelineOptions{}, &Hit1);
  auto A2 = Cache.getOrBuild(BrokenProgram, PipelineOptions{}, &Hit2);
  ASSERT_FALSE(A1.hasValue());
  ASSERT_FALSE(A2.hasValue());
  EXPECT_FALSE(Hit1);
  EXPECT_TRUE(Hit2);
  EXPECT_EQ(A1.error().render(), A2.error().render());
  EXPECT_EQ(Cache.stats().Misses, 1u);
}

TEST(DerivationCache, EvictsWhenOverBudget) {
  // A budget far below one artifact: every distinct source evicts the
  // previous entry.
  DerivationCache Cache(/*MaxBytes=*/1024);
  ASSERT_TRUE(Cache.getOrBuild(TinyProgram, PipelineOptions{}).hasValue());
  ASSERT_TRUE(Cache.getOrBuild(ListProgram, PipelineOptions{}).hasValue());
  CacheStats S = Cache.stats();
  EXPECT_GE(S.Evictions, 1u);
  EXPECT_LE(S.Entries, 1u);
}

TEST(DerivationCache, ZeroBudgetDisablesCaching) {
  DerivationCache Cache(0);
  bool Hit = true;
  ASSERT_TRUE(
      Cache.getOrBuild(TinyProgram, PipelineOptions{}, &Hit).hasValue());
  EXPECT_FALSE(Hit);
  ASSERT_TRUE(
      Cache.getOrBuild(TinyProgram, PipelineOptions{}, &Hit).hasValue());
  EXPECT_FALSE(Hit);
  EXPECT_EQ(Cache.stats().Hits, 0u);
  EXPECT_EQ(Cache.stats().Misses, 2u);
}

//===----------------------------------------------------------------------===//
// Live server fixture
//===----------------------------------------------------------------------===//

std::string uniqueSocketPath() {
  static std::atomic<int> Counter{0};
  return "/tmp/fearless-test-" + std::to_string(::getpid()) + "-" +
         std::to_string(Counter++) + ".sock";
}

class ServerTest : public ::testing::Test {
protected:
  void startServerAt(ServerOptions O) {
    Path = uniqueSocketPath();
    O.SocketPath = Path;
    if (O.Workers == 0)
      O.Workers = 2;
    S = std::make_unique<Server>(std::move(O));
    ExpectedVoid Started = S->start();
    ASSERT_TRUE(Started.hasValue()) << Started.error().render();
  }

  void TearDown() override {
    if (S) {
      S->requestShutdown();
      S->run();
    }
  }

  WireClient connectClient() {
    WireClient C;
    ExpectedVoid R = C.connect(Path);
    EXPECT_TRUE(R.hasValue());
    return C;
  }

  std::unique_ptr<Server> S;
  std::string Path;
};

WireRequest checkRequest(const char *Source, int64_t Id = 1) {
  WireRequest R;
  R.Op = WireOp::Check;
  R.Id = Id;
  R.Name = "test.fls";
  R.Source = Source;
  return R;
}

WireRequest runRequest(const char *Source, int64_t Id = 1) {
  WireRequest R = checkRequest(Source, Id);
  R.Op = WireOp::Run;
  R.Fn = "main";
  return R;
}

/// What `fearlessc` does without --daemon: serves \p R over a fresh
/// build.
RequestOutcome serveStandalone(const Request &R) {
  return serveRequest(R, [&](const PipelineOptions &PO) {
    return buildArtifact(R.Source, PO);
  });
}

//===----------------------------------------------------------------------===//
// Protocol abuse over a real socket
//===----------------------------------------------------------------------===//

TEST_F(ServerTest, MalformedJsonGetsBadRequest) {
  startServerAt({});
  WireClient C = connectClient();
  ASSERT_TRUE(C.sendPayload("this is not json").hasValue());
  Expected<std::string> P = C.readPayload();
  ASSERT_TRUE(P.hasValue());
  Expected<WireResponse> R = decodeResponse(*P);
  ASSERT_TRUE(R.hasValue());
  EXPECT_FALSE(R->Ok);
  EXPECT_EQ(R->ErrorCode, "bad_request");
  EXPECT_EQ(R->Exit, 1);
}

TEST_F(ServerTest, UnknownOpGetsBadRequest) {
  startServerAt({});
  WireClient C = connectClient();
  ASSERT_TRUE(
      C.sendPayload("{\"v\": \"fearless-wire-v1\", \"op\": \"frobnicate\"}")
          .hasValue());
  Expected<std::string> P = C.readPayload();
  ASSERT_TRUE(P.hasValue());
  Expected<WireResponse> R = decodeResponse(*P);
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R->ErrorCode, "bad_request");
}

TEST_F(ServerTest, OversizedFrameGetsBadFrameAndDisconnect) {
  ServerOptions O;
  O.MaxFrameBytes = 4096; // small, but a real request still fits
  startServerAt(std::move(O));
  WireClient C = connectClient();
  // Declared length far beyond the server's limit; the server must
  // answer before any payload arrives, then close.
  char Hdr[4] = {0x7F, 0x00, 0x00, 0x00};
  ASSERT_TRUE(C.sendRaw(std::string_view(Hdr, 4)).hasValue());
  Expected<std::string> P = C.readPayload();
  ASSERT_TRUE(P.hasValue());
  Expected<WireResponse> R = decodeResponse(*P);
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R->ErrorCode, "bad_frame");
  // The connection is dead: the next read observes EOF.
  EXPECT_FALSE(C.readPayload().hasValue());
  // ...and the daemon survived: a fresh connection still works.
  WireClient C2 = connectClient();
  Expected<WireResponse> R2 = C2.request(checkRequest(TinyProgram));
  ASSERT_TRUE(R2.hasValue());
  EXPECT_TRUE(R2->Ok) << R2->Err;
}

TEST_F(ServerTest, TruncatedFrameThenDisconnectIsHarmless) {
  startServerAt({});
  {
    WireClient C = connectClient();
    std::string F = frameMessage(encodeRequest(checkRequest(TinyProgram)));
    ASSERT_TRUE(
        C.sendRaw(std::string_view(F).substr(0, F.size() / 2)).hasValue());
    // Destructor closes mid-frame.
  }
  WireClient C2 = connectClient();
  Expected<WireResponse> R = C2.request(checkRequest(TinyProgram));
  ASSERT_TRUE(R.hasValue());
  EXPECT_TRUE(R->Ok) << R->Err;
}

//===----------------------------------------------------------------------===//
// Cache behavior through the wire
//===----------------------------------------------------------------------===//

TEST_F(ServerTest, CheckHitIsBitIdenticalToMissAndStandalone) {
  startServerAt({});
  WireClient C = connectClient();
  Expected<WireResponse> Miss = C.request(checkRequest(ListProgram, 1));
  Expected<WireResponse> Hit = C.request(checkRequest(ListProgram, 2));
  ASSERT_TRUE(Miss.hasValue());
  ASSERT_TRUE(Hit.hasValue());
  EXPECT_TRUE(Miss->Ok) << Miss->Err;
  EXPECT_FALSE(Miss->Cached);
  EXPECT_TRUE(Hit->Cached);
  EXPECT_EQ(Miss->Out, Hit->Out);
  EXPECT_EQ(Miss->Err, Hit->Err);
  EXPECT_EQ(Miss->Exit, Hit->Exit);

  // The standalone path (what `fearlessc check` prints) must agree byte
  // for byte — it is the same code path, and this pins that.
  RequestOutcome O = serveStandalone(checkRequest(ListProgram));
  EXPECT_EQ(O.Exit, Miss->Exit);
  EXPECT_EQ(O.Out, Miss->Out);
  EXPECT_EQ(O.Err, Miss->Err);
}

TEST_F(ServerTest, RunIsBitIdenticalToStandaloneArtifactRun) {
  startServerAt({});
  WireClient C = connectClient();
  WireRequest Req = runRequest(ListProgram);
  Req.Run.Stats = true;
  Expected<WireResponse> Cold = C.request(Req);
  Expected<WireResponse> Warm = C.request(Req);
  ASSERT_TRUE(Cold.hasValue());
  ASSERT_TRUE(Warm.hasValue());
  EXPECT_TRUE(Cold->Ok) << Cold->Err;
  EXPECT_FALSE(Cold->Cached);
  EXPECT_TRUE(Warm->Cached);
  EXPECT_EQ(Cold->Out, Warm->Out);

  RequestOutcome O = serveStandalone(Req);
  EXPECT_EQ(O.Exit, Cold->Exit);
  EXPECT_EQ(O.Out, Cold->Out);
  EXPECT_EQ(O.Err, Cold->Err);
}

TEST_F(ServerTest, CompileFailureMapsToParseExitAndIsCached) {
  startServerAt({});
  WireClient C = connectClient();
  Expected<WireResponse> R1 = C.request(checkRequest(BrokenProgram, 1));
  Expected<WireResponse> R2 = C.request(checkRequest(BrokenProgram, 2));
  ASSERT_TRUE(R1.hasValue());
  ASSERT_TRUE(R2.hasValue());
  EXPECT_FALSE(R1->Ok);
  EXPECT_EQ(R1->Exit, 3);
  EXPECT_EQ(R1->ErrorCode, "parse");
  EXPECT_FALSE(R1->Cached);
  EXPECT_TRUE(R2->Cached); // negative caching
  EXPECT_EQ(R1->Err, R2->Err);
  EXPECT_FALSE(R1->Err.empty());
}

TEST_F(ServerTest, TooDeeplyNestedSourceIsAParseErrorAndServingGoesOn) {
  // 10k nested parentheses used to overflow the parser's stack and take
  // the whole daemon down; now the depth cap turns them into a parse
  // diagnostic on the worker that compiled them.
  std::string Deep = "def main() : int { " + std::string(10000, '(') + "1" +
                     std::string(10000, ')') + " }\n";
  startServerAt({});
  WireClient C = connectClient();
  Expected<WireResponse> R1 = C.request(checkRequest(Deep.c_str(), 1));
  ASSERT_TRUE(R1.hasValue());
  EXPECT_FALSE(R1->Ok);
  EXPECT_EQ(R1->Exit, 3);
  EXPECT_EQ(R1->ErrorCode, "parse");
  EXPECT_NE(R1->Err.find("nesting exceeds the maximum depth"),
            std::string::npos)
      << R1->Err;
  Expected<WireResponse> R2 = C.request(checkRequest(TinyProgram, 2));
  ASSERT_TRUE(R2.hasValue());
  EXPECT_TRUE(R2->Ok) << R2->Err;
}

TEST_F(ServerTest, MissingEntryFunctionReportsCliError) {
  startServerAt({});
  WireClient C = connectClient();
  WireRequest R = runRequest(TinyProgram);
  R.Fn = "nonexistent";
  Expected<WireResponse> Resp = C.request(R);
  ASSERT_TRUE(Resp.hasValue());
  EXPECT_FALSE(Resp->Ok);
  EXPECT_EQ(Resp->Exit, 1);
  EXPECT_EQ(Resp->Err, "no function 'nonexistent'\n");
}

TEST_F(ServerTest, ConcurrentClientsSameKeyCompileOnce) {
  startServerAt({});
  constexpr int N = 6;
  std::vector<std::thread> Threads;
  std::atomic<int> OkCount{0};
  std::vector<std::string> Outputs(N);
  for (int I = 0; I < N; ++I)
    Threads.emplace_back([&, I] {
      WireClient C;
      if (!C.connect(Path).hasValue())
        return;
      Expected<WireResponse> R = C.request(checkRequest(ListProgram, I + 1));
      if (R.hasValue() && R->Ok) {
        ++OkCount;
        Outputs[I] = R->Out;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  ASSERT_EQ(OkCount.load(), N);
  for (int I = 1; I < N; ++I)
    EXPECT_EQ(Outputs[I], Outputs[0]);
  RuntimeMetrics M = S->metricsSnapshot();
  // Single-flight: one compile total, everyone else hit or coalesced.
  EXPECT_EQ(M.CacheMisses, 1u);
  EXPECT_EQ(M.CacheHits, static_cast<uint64_t>(N - 1));
}

//===----------------------------------------------------------------------===//
// Admission control + shutdown
//===----------------------------------------------------------------------===//

TEST_F(ServerTest, OverloadGetsTypedRejection) {
  ServerOptions O;
  O.Workers = 1;
  O.MaxSessions = 1;
  startServerAt(std::move(O));

  // Session A occupies the only worker: it sends half a frame and
  // holds the connection open, so the worker is parked in recv.
  WireClient Busy = connectClient();
  std::string F = frameMessage(encodeRequest(checkRequest(TinyProgram)));
  ASSERT_TRUE(
      Busy.sendRaw(std::string_view(F).substr(0, F.size() / 2)).hasValue());
  for (int Spin = 0;
       Spin < 200 && S->metricsSnapshot().SessionsActive < 1; ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_GE(S->metricsSnapshot().SessionsActive, 1u);

  // Session B fills the one-slot pending queue.
  WireClient Queued = connectClient();

  // Sessions C...: with the worker busy and the queue full, the accept
  // thread must answer `overloaded` (exit 6) and close. The first extra
  // connection can race B into the queue slot, so keep connecting until
  // a rejection is observed.
  bool SawRejection = false;
  for (int I = 0; I < 10 && !SawRejection; ++I) {
    WireClient C = connectClient();
    // A rejected connection gets exactly one frame, then EOF. An
    // admitted one would block forever waiting on our request — so poll
    // RequestsRejected to decide whether this connection was rejected.
    Expected<std::string> P = C.readPayload();
    if (!P.hasValue())
      continue;
    Expected<WireResponse> R = decodeResponse(*P);
    ASSERT_TRUE(R.hasValue());
    EXPECT_EQ(R->ErrorCode, "overloaded");
    EXPECT_EQ(R->Exit, 6);
    SawRejection = true;
  }
  EXPECT_TRUE(SawRejection);
  EXPECT_GE(S->metricsSnapshot().RequestsRejected, 1u);

  // Unblock the worker so teardown drains cleanly.
  ASSERT_TRUE(
      Busy.sendRaw(std::string_view(F).substr(F.size() / 2)).hasValue());
  Expected<std::string> P = Busy.readPayload();
  EXPECT_TRUE(P.hasValue());
}

TEST_F(ServerTest, ShutdownOpAcksDrainsAndRemovesSocket) {
  startServerAt({});
  WireClient C = connectClient();
  // Populate the cache so the daemon is mid-life, then shut down.
  ASSERT_TRUE(C.request(checkRequest(TinyProgram)).hasValue());
  WireRequest R;
  R.Op = WireOp::Shutdown;
  R.Id = 9;
  Expected<WireResponse> Resp = C.request(R);
  ASSERT_TRUE(Resp.hasValue());
  EXPECT_TRUE(Resp->Ok);
  EXPECT_EQ(Resp->Id, 9);
  S->run(); // drains promptly — no hang
  EXPECT_TRUE(S->stopped());
  // The daemon removed its socket path on the way out.
  EXPECT_NE(::access(Path.c_str(), F_OK), 0);
  S.reset();
}

TEST_F(ServerTest, MetricsAggregateAcrossRuns) {
  startServerAt({});
  WireClient C = connectClient();
  ASSERT_TRUE(C.request(runRequest(TinyProgram, 1)).hasValue());
  ASSERT_TRUE(C.request(runRequest(TinyProgram, 2)).hasValue());
  WireRequest MR;
  MR.Op = WireOp::Metrics;
  Expected<WireResponse> Resp = C.request(MR);
  ASSERT_TRUE(Resp.hasValue());
  EXPECT_TRUE(Resp->Ok);
  // The out payload is the daemon-lifetime RuntimeMetrics JSON line.
  EXPECT_NE(Resp->Out.find("\"cache_hits\": 1"), std::string::npos)
      << Resp->Out;
  EXPECT_NE(Resp->Out.find("\"cache_misses\": 1"), std::string::npos);
  EXPECT_NE(Resp->Out.find("\"requests_rejected\": 0"), std::string::npos);
  RuntimeMetrics M = S->metricsSnapshot();
  EXPECT_GT(M.VmInstructions, 0u); // two runs folded into the lifetime
}

} // namespace
