//===- concurrency/Backoff.h - Supervision restart backoff ------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The task scheduler's supervision restart backoff: capped exponential
/// growth computed with *saturation*, plus a deterministic jitter drawn
/// from (seed, thread index, attempt).
///
/// Saturation matters: the naive `Base << Attempt` wraps a uint64_t once
/// Attempt reaches the bit width (and is outright undefined behaviour at
/// Attempt >= 64), silently turning a maxed-out backoff into an
/// arbitrary small one — exactly when a repeatedly-faulting thread
/// should be backing off the hardest. The shift is therefore performed
/// only when it provably cannot pass the cap.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_CONCURRENCY_BACKOFF_H
#define FEARLESS_CONCURRENCY_BACKOFF_H

#include <cstdint>

namespace fearless {

/// min(Cap, Base * 2^Attempt), computed without overflow for any
/// Attempt. A zero Base stays zero (backoff disabled) regardless of the
/// attempt number.
inline uint64_t restartBackoffMillis(uint64_t Base, uint64_t Cap,
                                     uint32_t Attempt) {
  if (Base == 0)
    return 0;
  if (Base >= Cap)
    return Cap;
  // Base << Attempt > Cap  <=>  Base > Cap >> Attempt, and a shift of 64+
  // (undefined for uint64_t) can only mean saturation since Base >= 1.
  if (Attempt >= 64 || Base > (Cap >> Attempt))
    return Cap;
  return Base << Attempt;
}

/// The backoff actually slept before restart attempt `Attempt + 1` of
/// thread \p ThreadIndex: the saturated exponential plus a deterministic
/// jitter in [0, backoff] (splitmix64 of seed/thread/attempt). A pure
/// function, so recovery timelines are reproducible for a given plan.
inline uint64_t jitteredRestartMillis(uint64_t Base, uint64_t Cap,
                                      uint64_t Seed, uint64_t ThreadIndex,
                                      uint32_t Attempt) {
  uint64_t Backoff = restartBackoffMillis(Base, Cap, Attempt);
  uint64_t J = Seed + 0x9E3779B97F4A7C15ull * (ThreadIndex + 1) + Attempt;
  J = (J ^ (J >> 30)) * 0xBF58476D1CE4E5B9ull;
  J = (J ^ (J >> 27)) * 0x94D049BB133111EBull;
  return Backoff + (Backoff ? J % (Backoff + 1) : 0);
}

} // namespace fearless

#endif // FEARLESS_CONCURRENCY_BACKOFF_H
