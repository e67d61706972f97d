//===- server/Wire.cpp ----------------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "server/Wire.h"

using namespace fearless;
using namespace fearless::server;

// The wire vocabulary. tools/check_docs.py extracts this array and
// requires a docs/SERVER.md entry per op — keep names lowercase.
const char *const fearless::server::OpNames[NumWireOps] = {
    "check", "analyze", "run", "metrics", "shutdown",
};

std::optional<WireOp> fearless::server::parseOp(std::string_view Name) {
  for (size_t I = 0; I < NumWireOps; ++I)
    if (Name == OpNames[I])
      return static_cast<WireOp>(I);
  return std::nullopt;
}

const char *fearless::server::wireErrorName(WireError E) {
  switch (E) {
  case WireError::Usage:
    return "usage";
  case WireError::Parse:
    return "parse";
  case WireError::Check:
    return "check";
  case WireError::Runtime:
    return "runtime";
  case WireError::Internal:
    return "internal";
  case WireError::Overloaded:
    return "overloaded";
  case WireError::ShuttingDown:
    return "shutting_down";
  case WireError::BadFrame:
    return "bad_frame";
  case WireError::BadRequest:
    return "bad_request";
  }
  return "internal";
}

int fearless::server::wireErrorExit(WireError E) {
  switch (E) {
  case WireError::Usage:
    return 2;
  case WireError::Parse:
    return 3;
  case WireError::Check:
    return 4;
  case WireError::Runtime:
    return 5;
  case WireError::Overloaded:
  case WireError::ShuttingDown:
    return 6;
  case WireError::Internal:
  case WireError::BadFrame:
  case WireError::BadRequest:
    return 1;
  }
  return 1;
}

std::string fearless::server::frameMessage(std::string_view Payload) {
  std::string Out;
  Out.reserve(WireHeaderBytes + Payload.size());
  uint32_t N = static_cast<uint32_t>(Payload.size());
  Out += static_cast<char>((N >> 24) & 0xFF);
  Out += static_cast<char>((N >> 16) & 0xFF);
  Out += static_cast<char>((N >> 8) & 0xFF);
  Out += static_cast<char>(N & 0xFF);
  Out.append(Payload);
  return Out;
}

bool FrameReader::overflowed() {
  if (Buf.size() < WireHeaderBytes)
    return false;
  uint32_t N = (static_cast<uint32_t>(static_cast<unsigned char>(Buf[0]))
                << 24) |
               (static_cast<uint32_t>(static_cast<unsigned char>(Buf[1]))
                << 16) |
               (static_cast<uint32_t>(static_cast<unsigned char>(Buf[2]))
                << 8) |
               static_cast<uint32_t>(static_cast<unsigned char>(Buf[3]));
  return N > MaxFrame;
}

std::optional<std::string> FrameReader::next() {
  if (Buf.size() < WireHeaderBytes || overflowed())
    return std::nullopt;
  uint32_t N = (static_cast<uint32_t>(static_cast<unsigned char>(Buf[0]))
                << 24) |
               (static_cast<uint32_t>(static_cast<unsigned char>(Buf[1]))
                << 16) |
               (static_cast<uint32_t>(static_cast<unsigned char>(Buf[2]))
                << 8) |
               static_cast<uint32_t>(static_cast<unsigned char>(Buf[3]));
  if (Buf.size() < WireHeaderBytes + N)
    return std::nullopt;
  std::string Payload = Buf.substr(WireHeaderBytes, N);
  Buf.erase(0, WireHeaderBytes + N);
  return Payload;
}

Expected<WireRequest>
fearless::server::decodeRequest(std::string_view Payload) {
  Expected<Json> Doc = parseJson(Payload);
  if (!Doc)
    return fail("request payload is not valid JSON: " +
                Doc.error().Message);
  if (!Doc->isObject())
    return fail("request payload must be a JSON object");
  std::string V = Doc->getString("v", "");
  if (V != WireVersion)
    return fail("unsupported protocol version '" + V + "' (expected " +
                WireVersion + ")");
  std::string OpName = Doc->getString("op", "");
  std::optional<WireOp> Op = parseOp(OpName);
  if (!Op)
    return fail("unknown op '" + OpName + "'");

  WireRequest R;
  R.Op = *Op;
  R.Id = Doc->getInt("id", 0);
  R.Name = Doc->getString("name", "<wire>");
  R.Source = Doc->getString("source", "");
  R.Fn = Doc->getString("fn", "main");
  if (const Json *Args = Doc->find("args")) {
    if (!Args->isArray())
      return fail("'args' must be an array of integers");
    for (const Json &A : Args->items()) {
      if (!A.isNumber())
        return fail("'args' must be an array of integers");
      R.Args.push_back(A.intValue());
    }
  }
  if (const Json *Opts = Doc->find("options")) {
    if (!Opts->isObject())
      return fail("'options' must be an object");
    // An absent key keeps the request value's default.
    PipelineOptions &PO = R.Pipeline;
    PO.UseOracle = Opts->getBool("oracle", PO.UseOracle);
    PO.Interprocedural = Opts->getBool("interprocedural", PO.Interprocedural);
    PO.Checks = Opts->getBool("checks", PO.Checks);
    PO.Elide = Opts->getBool("elide", PO.Elide);
    RunOptions &Run = R.Run;
    Run.Seed = static_cast<uint64_t>(Opts->getInt("seed", 0));
    Run.Stats = Opts->getBool("stats", Run.Stats);
    Run.Metrics = Opts->getBool("metrics", Run.Metrics);
    // -1 (or any negative count) = the deterministic machine.
    if (int64_t W = Opts->getInt("workers", -1); W >= 0)
      Run.Workers = static_cast<size_t>(W);
    Run.SchedSeed = static_cast<uint64_t>(Opts->getInt("sched_seed", 0));
    SourceAnalysisOptions &AO = R.Analyze;
    AO.Json = Opts->getBool("json", AO.Json);
    AO.DumpSummaries = Opts->getBool("summaries", AO.DumpSummaries);
    AO.Werror = Opts->getBool("werror", AO.Werror);
  }
  bool NeedsSource = R.Op == WireOp::Check || R.Op == WireOp::Analyze ||
                     R.Op == WireOp::Run;
  if (NeedsSource && R.Source.empty())
    return fail(std::string("op '") + OpNames[static_cast<size_t>(R.Op)] +
                "' requires a non-empty 'source'");
  return R;
}

std::string fearless::server::encodeRequest(const WireRequest &R) {
  Json Doc = Json::object();
  Doc.set("v", WireVersion);
  Doc.set("op", OpNames[static_cast<size_t>(R.Op)]);
  if (R.Id)
    Doc.set("id", R.Id);
  Doc.set("name", R.Name);
  if (!R.Source.empty())
    Doc.set("source", R.Source);
  if (R.Op == WireOp::Run) {
    Doc.set("fn", R.Fn);
    Json Args = Json::array();
    for (int64_t A : R.Args)
      Args.push(A);
    Doc.set("args", std::move(Args));
  }
  Json Opts = Json::object();
  Opts.set("oracle", R.Pipeline.UseOracle);
  Opts.set("interprocedural", R.Pipeline.Interprocedural);
  Opts.set("checks", R.Pipeline.Checks);
  Opts.set("elide", R.Pipeline.Elide);
  Opts.set("seed", static_cast<int64_t>(R.Run.Seed));
  Opts.set("stats", R.Run.Stats);
  Opts.set("metrics", R.Run.Metrics);
  Opts.set("workers",
           R.Run.Workers ? static_cast<int64_t>(*R.Run.Workers) : -1);
  Opts.set("sched_seed", static_cast<int64_t>(R.Run.SchedSeed));
  Opts.set("json", R.Analyze.Json);
  Opts.set("summaries", R.Analyze.DumpSummaries);
  Opts.set("werror", R.Analyze.Werror);
  Doc.set("options", std::move(Opts));
  return Doc.dump();
}

Json fearless::server::makeExecResponse(int64_t Id, int Exit,
                                        std::string_view Out,
                                        std::string_view Err,
                                        bool Cached) {
  Json Doc = Json::object();
  Doc.set("v", WireVersion);
  Doc.set("id", Id);
  Doc.set("ok", Exit == 0);
  Doc.set("exit", Exit);
  Doc.set("out", std::string(Out));
  Doc.set("err", std::string(Err));
  Doc.set("cached", Cached);
  if (Exit != 0) {
    // The exit → error-code map is the DiagnosticStage table.
    const char *Code = Exit == 2   ? "usage"
                       : Exit == 3 ? "parse"
                       : Exit == 4 ? "check"
                       : Exit == 5 ? "runtime"
                                   : "internal";
    std::string Message(Err);
    while (!Message.empty() &&
           (Message.back() == '\n' || Message.back() == '\r'))
      Message.pop_back();
    Json E = Json::object();
    E.set("code", Code);
    E.set("message", std::move(Message));
    Doc.set("error", std::move(E));
  }
  return Doc;
}

Json fearless::server::makeErrorResponse(int64_t Id, WireError Code,
                                         std::string_view Message) {
  Json Doc = Json::object();
  Doc.set("v", WireVersion);
  Doc.set("id", Id);
  Doc.set("ok", false);
  Doc.set("exit", wireErrorExit(Code));
  Doc.set("out", "");
  Doc.set("err", "");
  Doc.set("cached", false);
  Json E = Json::object();
  E.set("code", wireErrorName(Code));
  E.set("message", std::string(Message));
  Doc.set("error", std::move(E));
  return Doc;
}
