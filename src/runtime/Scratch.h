//===- runtime/Scratch.h - Reusable hot-path scratch state ------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Epoch-stamped dense scratch structures for the runtime's hot paths.
///
/// The three operations the VM performs on (nearly) every step —
/// reservation membership, `if disconnected`, and live-set collection for
/// `send` — are all set problems over heap locations, and heap locations
/// are dense `uint32_t` indices that are never freed. That makes the
/// classic epoch-stamp trick a perfect fit: membership is an array of
/// stamps, "in the set" means `Stamp[i] == Epoch`, and resetting the set
/// is a single epoch increment instead of an O(n) clear or a fresh
/// allocation. The arrays grow monotonically with the heap and are reused
/// across calls, so steady-state operation performs **zero heap
/// allocations** — the property bench_ifdisconnected's detach-one case
/// exists to demonstrate and tests/property_test.cpp cross-validates.
///
/// Epoch wraparound (a `uint32_t` increment every check, so reachable
/// after ~4.3 billion resets) falls back to an explicit O(n) clear; the
/// stamps are then again strictly older than any epoch the set will use.
/// An explicit unit test drives a scratch across the wrap.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_RUNTIME_SCRATCH_H
#define FEARLESS_RUNTIME_SCRATCH_H

#include "runtime/Value.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

namespace fearless {

/// A set of heap-location indices with O(1) membership, insertion, and
/// reset. One generation of the set is identified by an epoch; begin()
/// starts a new, empty generation without touching the stamp array.
class EpochSet {
public:
  /// Starts a new empty generation able to hold indices < \p N. O(1)
  /// except when the universe grows or the epoch wraps around.
  void begin(size_t N) {
    if (Stamp.size() < N)
      Stamp.resize(N, 0);
    if (++Epoch == 0) {
      std::fill(Stamp.begin(), Stamp.end(), 0);
      Epoch = 1;
    }
  }

  /// Pre-sizes the universe without starting a generation.
  void reserve(size_t N) {
    if (Stamp.size() < N)
      Stamp.resize(N, 0);
  }

  bool contains(uint32_t Index) const { return Stamp[Index] == Epoch; }

  /// Inserts \p Index; returns true when it was not yet a member.
  bool insert(uint32_t Index) {
    if (Stamp[Index] == Epoch)
      return false;
    Stamp[Index] = Epoch;
    return true;
  }

  size_t universe() const { return Stamp.size(); }
  uint32_t epoch() const { return Epoch; }
  /// Test hook: jump the epoch close to the wraparound point so tests can
  /// exercise the O(n)-clear fallback without 2^32 checks.
  void setEpochForTesting(uint32_t E) { Epoch = E; }

private:
  std::vector<uint32_t> Stamp;
  uint32_t Epoch = 0;
};

/// Reusable state for one `if disconnected` evaluation (both the §5.2
/// refcount algorithm and the naive exact baseline). Owned per-thread
/// (ThreadState) so concurrent threads never share scratch; in
/// steady state a check touches only pre-grown arrays.
class DisconnectScratch {
public:
  /// One side of the interleaved traversal: membership + per-object
  /// encounter counts + the insertion-ordered list of members (for the
  /// final refcount comparison) + a FIFO frontier (vector + head cursor
  /// instead of a deque — no per-segment allocations).
  struct Side {
    EpochSet Mark;
    std::vector<uint32_t> Count;   ///< Valid only where Mark holds.
    std::vector<uint32_t> Members; ///< Indices inserted this generation.
    std::vector<Loc> Frontier;
    size_t FrontierHead = 0;
    bool Exhausted = false;

    void begin(size_t N) {
      Mark.begin(N);
      if (Count.size() < N)
        Count.resize(N, 0);
      Members.clear();
      Frontier.clear();
      FrontierHead = 0;
      Exhausted = false;
    }

    /// Seeds the side with its traversal root (encounter count zero).
    void seed(Loc Root) {
      Mark.insert(Root.Index);
      Count[Root.Index] = 0;
      Members.push_back(Root.Index);
      Frontier.push_back(Root);
    }

    /// Records an encounter of \p Target via an edge; returns true when
    /// the object is new to this side (and enqueues it).
    bool encounter(Loc Target) {
      if (!Mark.insert(Target.Index)) {
        ++Count[Target.Index];
        return false;
      }
      Count[Target.Index] = 1;
      Members.push_back(Target.Index);
      Frontier.push_back(Target);
      return true;
    }

    bool frontierEmpty() const { return FrontierHead == Frontier.size(); }
    Loc popFrontier() { return Frontier[FrontierHead++]; }
  };

  /// Prepares both sides for a check over a heap of \p HeapSize objects.
  void begin(size_t HeapSize) {
    Sides[0].begin(HeapSize);
    Sides[1].begin(HeapSize);
  }

  /// Pre-sizes both sides (e.g. to the heap's current size) so the first
  /// check after a build phase does not pay the growth.
  void reserve(size_t HeapSize) {
    Sides[0].Mark.reserve(HeapSize);
    Sides[1].Mark.reserve(HeapSize);
    if (Sides[0].Count.size() < HeapSize)
      Sides[0].Count.resize(HeapSize, 0);
    if (Sides[1].Count.size() < HeapSize)
      Sides[1].Count.resize(HeapSize, 0);
  }

  Side &side(unsigned I) { return Sides[I]; }

  /// Test hook: forwards to both sides' mark sets (see EpochSet).
  void setEpochForTesting(uint32_t E) {
    Sides[0].Mark.setEpochForTesting(E);
    Sides[1].Mark.setEpochForTesting(E);
  }
  uint32_t epoch() const { return Sides[0].Mark.epoch(); }

private:
  Side Sides[2];
};

/// A thread's reservation d: the set of heap locations the thread may
/// touch. Dense epoch-stamped membership makes the §3.2 dynamic check —
/// performed on every variable read, field access, and write — a bounds
/// test plus one load-and-compare, while clear() (used when tests hand a
/// reservation from one thread to another) stays O(1) via an epoch bump.
/// Unlike the per-check scratch sets above, membership must survive
/// across operations, so erase() writes stamp 0 (never a live epoch: the
/// epoch starts at 1 and the wraparound fallback re-clears to 0).
class ReservationTable {
public:
  class const_iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = uint32_t;
    using difference_type = std::ptrdiff_t;
    using pointer = const uint32_t *;
    using reference = uint32_t;

    const_iterator(const ReservationTable *T, uint32_t I)
        : Table(T), Index(I) {
      advance();
    }
    uint32_t operator*() const { return Index; }
    const_iterator &operator++() {
      ++Index;
      advance();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator Old = *this;
      ++*this;
      return Old;
    }
    bool operator==(const const_iterator &O) const {
      return Index == O.Index;
    }
    bool operator!=(const const_iterator &O) const { return !(*this == O); }

  private:
    void advance() {
      while (Index < Table->Stamp.size() && !Table->contains(Index))
        ++Index;
    }
    const ReservationTable *Table;
    uint32_t Index;
  };

  bool contains(uint32_t Index) const {
    return Index < Stamp.size() && Stamp[Index] == Epoch;
  }
  /// unordered_set-compatible membership spelling.
  size_t count(uint32_t Index) const { return contains(Index) ? 1 : 0; }

  void insert(uint32_t Index) {
    if (Index >= Stamp.size())
      Stamp.resize(std::max<size_t>(Index + 1, Stamp.size() * 2), 0);
    if (Stamp[Index] != Epoch) {
      Stamp[Index] = Epoch;
      ++Members;
    }
  }

  void erase(uint32_t Index) {
    if (contains(Index)) {
      Stamp[Index] = 0;
      --Members;
    }
  }

  /// O(1): bump the epoch (all stamps become stale). Falls back to an
  /// O(n) zero-fill on wraparound.
  void clear() {
    Members = 0;
    if (++Epoch == 0) {
      std::fill(Stamp.begin(), Stamp.end(), 0);
      Epoch = 1;
    }
  }

  size_t size() const { return Members; }
  bool empty() const { return Members == 0; }

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const {
    return const_iterator(this, static_cast<uint32_t>(Stamp.size()));
  }

private:
  friend class const_iterator;
  std::vector<uint32_t> Stamp;
  uint32_t Epoch = 1;
  size_t Members = 0;
};

} // namespace fearless

#endif // FEARLESS_RUNTIME_SCRATCH_H
