//===- server/Wire.h - The fearless-wire-v1 protocol ------------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The versioned wire protocol spoken between `fearlessd` and its
/// clients (`fearlessc --daemon`, bench_server, tests): length-prefixed
/// JSON frames over a unix stream socket. docs/SERVER.md is the
/// normative spec; tools/check_docs.py gates it against the OpNames
/// vocabulary below so the documentation cannot drift from this header.
///
/// Framing: a 4-byte big-endian unsigned payload length, then exactly
/// that many bytes of UTF-8 JSON. A frame longer than the receiver's
/// limit is answered with a `bad_frame` error and the connection is
/// closed (the length cannot be trusted, so the stream cannot be
/// resynchronized).
///
/// This header contains pure encode/decode logic only — no sockets —
/// so the tests can exercise every malformed-frame path in memory.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_SERVER_WIRE_H
#define FEARLESS_SERVER_WIRE_H

#include "driver/CompilePipeline.h"
#include "server/Json.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace fearless {
namespace server {

/// The protocol version tag carried in every request and response.
inline constexpr const char *WireVersion = "fearless-wire-v1";

/// Frame length prefix size and the default payload cap. The cap bounds
/// a single request's memory (admission control for bytes, not just
/// sessions); 16 MiB comfortably fits the generated corpus programs.
inline constexpr size_t WireHeaderBytes = 4;
inline constexpr size_t DefaultMaxFrameBytes = 16u << 20;

/// Request operations: the request value's ops. Named by an
/// array-of-names (mirroring FaultInjector's PointNames) so
/// tools/check_docs.py can extract the vocabulary and require a
/// docs/SERVER.md section per op.
using WireOp = RequestOp;
inline constexpr size_t NumWireOps = 5;
extern const char *const OpNames[NumWireOps];

/// Parses an op name; nullopt for unknown ops.
std::optional<WireOp> parseOp(std::string_view Name);

/// Typed error codes of error responses. `usage`/`parse`/`check`/
/// `runtime`/`internal` map 1:1 onto the CLI's DiagnosticStage exit-code
/// table (docs/OBSERVABILITY.md, "Exit codes"); `overloaded` and
/// `shutting_down` are admission-control outcomes with the dedicated
/// client exit code 6; `bad_frame`/`bad_request` are protocol errors.
enum class WireError : uint8_t {
  Usage,        // exit 2: malformed request field values
  Parse,        // exit 3: source failed to parse
  Check,        // exit 4: region checker / verifier rejection
  Runtime,      // exit 5: structured runtime fault
  Internal,     // exit 1: infrastructure failure
  Overloaded,   // exit 6: admission queue full, retry later
  ShuttingDown, // exit 6: daemon is draining
  BadFrame,     // exit 1: framing violation (connection closes)
  BadRequest,   // exit 1: frame held no valid request object
};
const char *wireErrorName(WireError E);
/// The exit code a CLI client reports for an error response.
int wireErrorExit(WireError E);

/// Prepends the 4-byte big-endian length to \p Payload.
std::string frameMessage(std::string_view Payload);

/// Incremental frame reader: feed bytes, take complete payloads.
/// Oversized declared lengths fail immediately — before any payload
/// accumulates.
class FrameReader {
public:
  explicit FrameReader(size_t MaxFrameBytes = DefaultMaxFrameBytes)
      : MaxFrame(MaxFrameBytes) {}

  /// Appends raw bytes from the stream.
  void feed(std::string_view Bytes) { Buf.append(Bytes); }

  /// True when feed() saw a declared length beyond the limit. The
  /// stream is unrecoverable at that point.
  bool overflowed();

  /// Extracts the next complete payload, if any.
  std::optional<std::string> next();

  /// Bytes buffered but not yet consumed (truncated-frame detection).
  size_t pending() const { return Buf.size(); }

private:
  size_t MaxFrame;
  std::string Buf;
};

/// One request on the wire: the request value every executor serves
/// (driver/CompilePipeline.h) plus the client's correlation id.
struct WireRequest : Request {
  /// Echoed verbatim in the response. 0 when absent.
  int64_t Id = 0;
};

/// Decodes a request payload. Failure means the frame was readable JSON
/// but not a valid request (answered with `bad_request`).
Expected<WireRequest> decodeRequest(std::string_view Payload);

/// Encodes a request (client side).
std::string encodeRequest(const WireRequest &R);

/// Builds an execution response: echoed id, the CLI exit code, and the
/// exact stdout/stderr bytes the standalone CLI would print. `ok` is
/// `exit == 0`; a nonzero exit attaches an `error` object whose code is
/// the exit's DiagnosticStage name (1 internal, 2 usage, 3 parse,
/// 4 check, 5 runtime) and whose message is \p Err trimmed.
Json makeExecResponse(int64_t Id, int Exit, std::string_view Out,
                      std::string_view Err, bool Cached);

/// Builds a protocol-level error response (admission control, framing,
/// malformed requests): `ok` false, empty out/err, the code's exit.
Json makeErrorResponse(int64_t Id, WireError Code,
                       std::string_view Message);

} // namespace server
} // namespace fearless

#endif // FEARLESS_SERVER_WIRE_H
