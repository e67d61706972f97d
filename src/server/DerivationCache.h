//===- server/DerivationCache.h - Content-hash artifact cache ---*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's derivation cache: content hash of (source text, pipeline
/// options) → shared CompiledArtifact (interned AST, check result with
/// signatures and verifier counts, region-graph verdict table, bytecode
/// chunks). An artifact keeps no typing derivation: compile() verifies
/// each function's as soon as it is checked and drops it. The
/// paper's checked artifacts are pure functions of the source — the same
/// cache-the-proof framing that makes region capabilities shareable once
/// proven — so repeated submissions skip parse/check/analyze/compile
/// entirely and go straight to execution.
///
/// Three properties the server relies on:
///
///  - **Single-flight.** N concurrent requests for the same key trigger
///    exactly one compile; the other N-1 block until the builder
///    publishes (tests/server_test.cpp, ConcurrentSameKey).
///  - **Bounded.** Total approxBytes is capped; publishing past the cap
///    evicts least-recently-used Ready entries. Evicted artifacts stay
///    alive for whoever already holds the shared_ptr.
///  - **Negative caching.** A source that fails to parse or check is
///    also a pure function of the text: the diagnostic is cached under
///    the same key (tiny footprint), so hammering a broken program
///    costs one compile, not one per request.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_SERVER_DERIVATIONCACHE_H
#define FEARLESS_SERVER_DERIVATIONCACHE_H

#include "driver/CompilePipeline.h"

#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>

namespace fearless {
namespace server {

/// 128-bit content key: two independent FNV-1a passes over the source
/// (different offset bases) with the option fingerprint mixed into both
/// lanes. Collisions would silently serve the wrong artifact, so the
/// key is wide enough that they are out of reach for any realistic
/// corpus; the definition is part of the wire spec (docs/SERVER.md).
struct CacheKey {
  uint64_t Lo = 0;
  uint64_t Hi = 0;
  auto operator<=>(const CacheKey &) const = default;
};

/// Computes the cache key for one (source, options) pair.
CacheKey cacheKey(std::string_view Source, const PipelineOptions &Opts);

/// Point-in-time cache counters (served under the cache mutex).
struct CacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  /// Requests that blocked on another session's in-flight compile of
  /// the same key (they count as hits: no compile work was done).
  uint64_t CoalescedWaits = 0;
  uint64_t Entries = 0;
  uint64_t Bytes = 0;
};

class DerivationCache {
public:
  /// \p MaxBytes bounds the sum of approxBytes over Ready entries;
  /// 0 disables caching entirely (every lookup is a miss that builds
  /// privately — the differential baseline for the bench).
  explicit DerivationCache(size_t MaxBytes) : MaxBytes(MaxBytes) {}

  /// Returns the artifact for (Source, Opts), building it at most once
  /// across all concurrent callers. \p WasHit reports whether this call
  /// skipped the compile (a cached artifact or a coalesced wait).
  /// Failures are the cached (or fresh) pipeline diagnostic.
  Expected<std::shared_ptr<const CompiledArtifact>>
  getOrBuild(std::string_view Source, const PipelineOptions &Opts,
             bool *WasHit = nullptr);

  CacheStats stats() const;

private:
  struct Entry {
    enum class State { Building, Ready, Failed } S = State::Building;
    std::shared_ptr<const CompiledArtifact> Artifact;
    Diagnostic Error;
    size_t Bytes = 0;
    /// Position in the LRU list (valid for Ready/Failed entries).
    std::list<CacheKey>::iterator LruPos;
    bool InLru = false;
  };

  /// Evicts LRU entries until the budget holds. Caller holds M.
  void evictLocked();
  /// Moves \p It to the most-recently-used position. Caller holds M.
  void touchLocked(std::map<CacheKey, Entry>::iterator It);

  const size_t MaxBytes;
  mutable std::mutex M;
  std::condition_variable BuildDone;
  std::map<CacheKey, Entry> Entries;
  /// LRU order, least recently used first.
  std::list<CacheKey> Lru;
  CacheStats Stats;
};

} // namespace server
} // namespace fearless

#endif // FEARLESS_SERVER_DERIVATIONCACHE_H
