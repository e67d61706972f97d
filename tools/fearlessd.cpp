//===- tools/fearlessd.cpp - The check/run daemon --------------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// fearlessd — the long-lived check/run daemon. Listens on a unix socket,
// speaks fearless-wire-v1 (docs/SERVER.md), serves check/analyze/run
// requests through the shared CompilePipeline with a content-hash
// derivation cache, and exposes daemon-lifetime metrics.
//
//   fearlessd --socket /tmp/fearless.sock [options]
//
// Options:
//   --socket PATH        unix socket path (required; the daemon owns it)
//   --workers N          session workers = max concurrent sessions
//                        (0 = auto, default; at most 1024)
//   --max-sessions N     pending-session queue bound before typed
//                        `overloaded` rejections (default 64)
//   --cache-bytes N      derivation-cache budget in bytes (default
//                        67108864 = 64 MiB; 0 disables caching)
//   --max-frame-bytes N  largest accepted request frame (default 16 MiB)
//   --trace FILE         write a Chrome trace of server activity on exit
//
// Every N is decimal digits only: a sign, a blank or an out-of-range
// value is a usage error, never a wrapped or truncated number.
//
// Exit codes: 0 clean shutdown, 1 startup/runtime failure, 2 usage.
// Clients: `fearlessc --daemon PATH <check|analyze|run|metrics|
// shutdown> ...` (bit-identical output to standalone fearlessc).
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"
#include "support/Trace.h"

#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

using namespace fearless;
using namespace fearless::server;

namespace {

/// Ceiling on --workers: each is an OS thread serving one session.
constexpr size_t MaxWorkers = 1024;

int usage() {
  std::fprintf(
      stderr,
      "usage: fearlessd --socket PATH [options]\n"
      "  --socket PATH        unix socket path (required)\n"
      "  --workers N          session workers = max concurrent sessions\n"
      "                       (0 = auto; at most 1024)\n"
      "  --max-sessions N     pending-session queue bound before typed\n"
      "                       overloaded rejections (default 64)\n"
      "  --cache-bytes N      derivation-cache budget in bytes\n"
      "                       (default 64 MiB; 0 disables caching)\n"
      "  --max-frame-bytes N  largest accepted request frame\n"
      "                       (default 16 MiB)\n"
      "  --trace FILE         write a Chrome trace on exit\n");
  return 2;
}

/// Parses \p Text as a base-10 count, the whole string or nothing. A
/// leading sign or blank is rejected, since strtoull would accept it and
/// wrap ("-1" is not SIZE_MAX workers), and so is an out-of-range value.
bool parseSize(const char *Text, size_t &Out) {
  if (!std::isdigit(static_cast<unsigned char>(*Text)))
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (*End != '\0' || errno == ERANGE)
    return false;
  Out = static_cast<size_t>(V);
  return true;
}

} // namespace

int main(int argc, char **argv) {
  ServerOptions Opts;
  std::string TracePath;
  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--socket") && I + 1 < argc)
      Opts.SocketPath = argv[++I];
    else if (!std::strcmp(argv[I], "--workers") && I + 1 < argc) {
      if (!parseSize(argv[++I], Opts.Workers) || Opts.Workers > MaxWorkers)
        return usage();
    } else if (!std::strcmp(argv[I], "--max-sessions") && I + 1 < argc) {
      if (!parseSize(argv[++I], Opts.MaxSessions) ||
          Opts.MaxSessions == 0)
        return usage();
    } else if (!std::strcmp(argv[I], "--cache-bytes") && I + 1 < argc) {
      if (!parseSize(argv[++I], Opts.CacheBytes))
        return usage();
    } else if (!std::strcmp(argv[I], "--max-frame-bytes") &&
               I + 1 < argc) {
      if (!parseSize(argv[++I], Opts.MaxFrameBytes) ||
          Opts.MaxFrameBytes == 0)
        return usage();
    } else if (!std::strcmp(argv[I], "--trace") && I + 1 < argc)
      TracePath = argv[++I];
    else
      return usage();
  }
  if (Opts.SocketPath.empty())
    return usage();

  TraceSession Trace;
  if (!TracePath.empty())
    Opts.Trace = &Trace;

  // Route SIGINT/SIGTERM through a dedicated sigwait thread: the
  // server's shutdown path takes locks, so it must not run inside a
  // signal handler. The mask is installed before any server thread
  // starts, so every thread inherits it.
  sigset_t Sigs;
  sigemptyset(&Sigs);
  sigaddset(&Sigs, SIGINT);
  sigaddset(&Sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &Sigs, nullptr);

  Server S(std::move(Opts));
  ExpectedVoid Started = S.start();
  if (!Started) {
    std::fprintf(stderr, "%s\n", Started.error().render().c_str());
    return 1;
  }
  std::fprintf(stderr, "fearlessd: listening (workers=%zu)\n",
               S.workerCount());

  std::thread SignalThread([&S, Sigs] {
    int Sig = 0;
    if (sigwait(&Sigs, &Sig) == 0)
      S.requestShutdown();
  });
  // The thread stays parked in sigwait on a shutdown-op exit; process
  // exit reaps it.
  SignalThread.detach();

  S.run();
  std::fprintf(stderr, "fearlessd: shut down\n");

  if (!TracePath.empty()) {
    std::string Error;
    if (!Trace.writeChromeJson(TracePath, Error)) {
      std::fprintf(stderr, "fearlessd: --trace: %s\n", Error.c_str());
      return 1;
    }
  }
  return 0;
}
