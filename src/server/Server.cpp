//===- server/Server.cpp --------------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"

#include "analysis/StaticDisconnect.h"
#include "driver/CompilePipeline.h"
#include "support/Trace.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace fearless;
using namespace fearless::server;

namespace {

/// Trace thread-id block for server threads (runtime workers use small
/// ids, the compile buffer uses 9999).
constexpr uint32_t AcceptTraceTid = 9000;
constexpr uint32_t WorkerTraceTidBase = 9100;

int closeQuietly(int Fd) {
  if (Fd >= 0)
    ::close(Fd);
  return -1;
}

} // namespace

Server::Server(ServerOptions O)
    : Opts(std::move(O)), Cache(Opts.CacheBytes) {
  WorkerCount = Opts.Workers;
  if (WorkerCount == 0) {
    unsigned HW = std::thread::hardware_concurrency();
    WorkerCount = HW == 0 ? 2 : (HW < 4 ? HW : 4);
  }
}

Server::~Server() {
  requestShutdown();
  run(); // joins whatever is still alive; idempotent
}

ExpectedVoid Server::start() {
  if (Opts.SocketPath.empty())
    return fail("fearlessd: socket path must not be empty");
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Opts.SocketPath.size() >= sizeof(Addr.sun_path))
    return fail("fearlessd: socket path too long (max " +
                std::to_string(sizeof(Addr.sun_path) - 1) + " bytes): " +
                Opts.SocketPath);
  std::memcpy(Addr.sun_path, Opts.SocketPath.c_str(),
              Opts.SocketPath.size() + 1);

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return fail(std::string("fearlessd: socket(): ") +
                std::strerror(errno));
  // The daemon owns the path: replace a stale socket file from a
  // previous (crashed) instance instead of failing to start.
  ::unlink(Opts.SocketPath.c_str());
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    std::string E = std::strerror(errno);
    closeQuietly(Fd);
    return fail("fearlessd: bind(" + Opts.SocketPath + "): " + E);
  }
  if (::listen(Fd, 128) < 0) {
    std::string E = std::strerror(errno);
    closeQuietly(Fd);
    ::unlink(Opts.SocketPath.c_str());
    return fail("fearlessd: listen(" + Opts.SocketPath + "): " + E);
  }

  ListenFd.store(Fd, std::memory_order_release);
  Started = true;
  AcceptThread = std::thread([this] { acceptLoop(); });
  WorkerThreads.reserve(WorkerCount);
  for (size_t I = 0; I < WorkerCount; ++I)
    WorkerThreads.emplace_back([this, I] { workerLoop(I); });
  return {};
}

void Server::run() {
  if (AcceptThread.joinable())
    AcceptThread.join();
  for (std::thread &T : WorkerThreads)
    if (T.joinable())
      T.join();
  WorkerThreads.clear();
  // Everything has drained; reject whatever is still queued and remove
  // the socket path so the next instance starts clean.
  std::deque<int> Leftover;
  {
    std::lock_guard<std::mutex> L(QueueM);
    Leftover.swap(Pending);
  }
  for (int Fd : Leftover) {
    Json R = makeErrorResponse(0, WireError::ShuttingDown,
                               "daemon is shutting down");
    sendFrame(Fd, R.dump());
    closeQuietly(Fd);
  }
  // Close the listener only here, with every thread joined: closing it
  // in the accept thread would race requestShutdown()'s ::shutdown().
  closeQuietly(ListenFd.exchange(-1, std::memory_order_acq_rel));
  if (Started && !Opts.SocketPath.empty())
    ::unlink(Opts.SocketPath.c_str());
}

void Server::requestShutdown() {
  bool Expected = false;
  if (!Stop.compare_exchange_strong(Expected, true))
    return;
  // Unblock accept(): shut the listener down (not close — the fd stays
  // valid until run() has joined everyone). The accept thread sees the
  // error, checks Stop, and exits.
  int LFd = ListenFd.load(std::memory_order_acquire);
  if (LFd >= 0)
    ::shutdown(LFd, SHUT_RDWR);
  std::lock_guard<std::mutex> L(QueueM);
  // Poke idle sessions so their blocking recv() returns 0; in-flight
  // requests still complete and their responses still flush (SHUT_RD
  // leaves the write half open).
  for (int Fd : ActiveFds)
    ::shutdown(Fd, SHUT_RD);
  QueueCV.notify_all();
}

void Server::acceptLoop() {
  TraceBuffer *TB = nullptr;
  if (Opts.Trace)
    TB = &Opts.Trace->registerThread(AcceptTraceTid, "server-accept");
  const int LFd = ListenFd.load(std::memory_order_acquire);
  while (!stopped()) {
    int Fd = ::accept(LFd, nullptr, nullptr);
    if (Fd < 0) {
      if (stopped())
        break;
      if (errno == EINTR || errno == ECONNABORTED)
        continue;
      break; // listener is gone; shut down rather than spin
    }
    if (TB)
      TB->instant("server.accept", "server");
    if (stopped()) {
      Json R = makeErrorResponse(0, WireError::ShuttingDown,
                                 "daemon is shutting down");
      sendFrame(Fd, R.dump());
      closeQuietly(Fd);
      break;
    }
    std::unique_lock<std::mutex> L(QueueM);
    if (Pending.size() >= Opts.MaxSessions) {
      // Admission control: answer with one typed overloaded response
      // and close, instead of queueing without bound.
      L.unlock();
      RequestsRejected.fetch_add(1, std::memory_order_relaxed);
      Json R = makeErrorResponse(
          0, WireError::Overloaded,
          "pending-session queue is full (" +
              std::to_string(Opts.MaxSessions) + "); retry later");
      sendFrame(Fd, R.dump());
      closeQuietly(Fd);
      continue;
    }
    Pending.push_back(Fd);
    L.unlock();
    QueueCV.notify_one();
  }
  // Wake the workers so they notice Stop even with an empty queue.
  // (The listener fd is closed by run(), after this thread is joined.)
  QueueCV.notify_all();
}

void Server::workerLoop(size_t Index) {
  TraceBuffer *TB = nullptr;
  if (Opts.Trace)
    TB = &Opts.Trace->registerThread(
        static_cast<uint32_t>(WorkerTraceTidBase + Index),
        "server-worker");
  while (true) {
    int Fd = -1;
    {
      std::unique_lock<std::mutex> L(QueueM);
      QueueCV.wait(L, [&] { return stopped() || !Pending.empty(); });
      if (Pending.empty()) {
        if (stopped())
          return;
        continue;
      }
      Fd = Pending.front();
      Pending.pop_front();
      if (stopped()) {
        // Draining: queued-but-unserved sessions get the typed
        // shutting_down response rather than silence.
        L.unlock();
        Json R = makeErrorResponse(0, WireError::ShuttingDown,
                                   "daemon is shutting down");
        sendFrame(Fd, R.dump());
        closeQuietly(Fd);
        continue;
      }
      ActiveFds.push_back(Fd);
    }
    SessionsActive.fetch_add(1, std::memory_order_relaxed);
    SessionsTotal.fetch_add(1, std::memory_order_relaxed);
    serveSession(Fd, TB);
    SessionsActive.fetch_sub(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> L(QueueM);
      for (size_t I = 0; I < ActiveFds.size(); ++I)
        if (ActiveFds[I] == Fd) {
          ActiveFds[I] = ActiveFds.back();
          ActiveFds.pop_back();
          break;
        }
    }
    closeQuietly(Fd);
  }
}

void Server::serveSession(int Fd, TraceBuffer *TB) {
  FrameReader Reader(Opts.MaxFrameBytes);
  char Buf[64 * 1024];
  while (true) {
    std::optional<std::string> Payload = Reader.next();
    if (!Payload) {
      if (Reader.overflowed()) {
        // The declared length exceeds the limit; the stream cannot be
        // resynchronized, so answer once and drop the connection.
        Json R = makeErrorResponse(
            0, WireError::BadFrame,
            "frame exceeds the " + std::to_string(Opts.MaxFrameBytes) +
                "-byte payload limit");
        sendFrame(Fd, R.dump());
        return;
      }
      ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
      if (N <= 0)
        return; // EOF (clean disconnect, or shutdown's SHUT_RD) / error
      Reader.feed(std::string_view(Buf, static_cast<size_t>(N)));
      continue;
    }
    RequestsTotal.fetch_add(1, std::memory_order_relaxed);
    bool ShutdownRequested = false;
    Json Response = handleRequest(*Payload, TB, ShutdownRequested);
    bool Sent = sendFrame(Fd, Response.dump());
    if (ShutdownRequested) {
      requestShutdown();
      return;
    }
    if (!Sent || stopped())
      return;
  }
}

Json Server::handleRequest(const std::string &Payload, TraceBuffer *TB,
                           bool &ShutdownRequested) {
  TraceSpan RequestSpan(TB, "server.request", "server");

  Expected<WireRequest> Req = decodeRequest(Payload);
  if (!Req)
    return makeErrorResponse(0, WireError::BadRequest,
                             Req.error().Message);
  if (stopped() && Req->Op != WireOp::Shutdown &&
      Req->Op != WireOp::Metrics)
    return makeErrorResponse(Req->Id, WireError::ShuttingDown,
                             "daemon is shutting down");

  switch (Req->Op) {
  case WireOp::Shutdown:
    ShutdownRequested = true;
    return makeExecResponse(Req->Id, 0, "", "", false);

  case WireOp::Metrics: {
    RuntimeMetrics M = metricsSnapshot();
    return makeExecResponse(Req->Id, 0, M.toJson() + "\n", "", false);
  }

  case WireOp::Analyze: {
    // Diagnostic path: always fresh (uncached) — its output is the
    // rendered report, not a cacheable artifact.
    SourceAnalysisOptions AO;
    AO.Interprocedural = Req->Interprocedural;
    AO.DumpSummaries = Req->Summaries;
    AO.Json = Req->Json;
    SourceAnalysis A = analyzeSourceText(Req->Source, Req->Name, AO);
    if (A.HardError)
      return makeExecResponse(Req->Id, 3, A.Rendered, "", false);
    if (Req->Werror && A.LintDiags > 0) {
      std::string Err = "fearlessc: error: " +
                        std::to_string(A.LintDiags) +
                        " lint diagnostic(s) with --werror\n";
      return makeExecResponse(Req->Id, 4, A.Rendered, Err, false);
    }
    return makeExecResponse(Req->Id, 0, A.Rendered, "", false);
  }

  case WireOp::Check:
  case WireOp::Run: {
    PipelineOptions PO;
    PO.UseOracle = Req->Oracle;
    PO.Interprocedural = Req->Interprocedural;
    PO.Checks = Req->Checks;
    PO.Elide = Req->Elide;
    PO.EmitChecks = Req->Checks && Req->Workers < 0;

    bool WasHit = false;
    Expected<std::shared_ptr<const CompiledArtifact>> Artifact = [&] {
      TraceSpan LookupSpan(TB, "cache.lookup", "server");
      auto R = Cache.getOrBuild(Req->Source, PO, &WasHit);
      LookupSpan.setArg("hit", WasHit ? 1 : 0);
      return R;
    }();
    if (!Artifact) {
      // Exactly the bytes the CLI prints for a compile failure, plus
      // the DiagnosticStage exit code.
      std::string Err = Artifact.error().render() + "\n";
      return makeExecResponse(Req->Id,
                              exitCodeForStage(Artifact.error().Stage),
                              "", Err, WasHit);
    }

    if (Req->Op == WireOp::Check) {
      std::string Out =
          renderCheckOutput(**Artifact, Req->Name, Req->Stats);
      return makeExecResponse(Req->Id, 0, Out, "", WasHit);
    }

    RunSpec Spec;
    Spec.Fn = Req->Fn;
    Spec.Args = Req->Args;
    Spec.Seed = Req->Seed;
    if (Req->Workers >= 0) {
      Spec.Workers = static_cast<size_t>(Req->Workers);
      Spec.WorkersSet = true;
    }
    Spec.SchedSeed = Req->SchedSeed;
    Spec.Stats = Req->Stats;
    Spec.Metrics = Req->Metrics;
    RunOutcome O = runArtifact(**Artifact, Spec);
    if (O.HasMetrics) {
      std::lock_guard<std::mutex> L(MetricsM);
      Lifetime.merge(O.Metrics);
    }
    return makeExecResponse(Req->Id, O.Exit, O.Out, O.Err, WasHit);
  }
  }
  return makeErrorResponse(0, WireError::Internal, "unreachable op");
}

RuntimeMetrics Server::metricsSnapshot() const {
  RuntimeMetrics M;
  {
    std::lock_guard<std::mutex> L(MetricsM);
    M = Lifetime;
  }
  CacheStats CS = Cache.stats();
  M.SessionsActive = SessionsActive.load(std::memory_order_relaxed);
  M.CacheHits = CS.Hits;
  M.CacheMisses = CS.Misses;
  M.RequestsRejected =
      RequestsRejected.load(std::memory_order_relaxed);
  return M;
}

bool Server::sendFrame(int Fd, std::string_view Payload) {
  std::string Frame = frameMessage(Payload);
  size_t Off = 0;
  while (Off < Frame.size()) {
    ssize_t N = ::send(Fd, Frame.data() + Off, Frame.size() - Off,
                       MSG_NOSIGNAL);
    if (N <= 0) {
      if (N < 0 && errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}
