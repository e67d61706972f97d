//===- support/FaultInjector.h - Deterministic fault injection --*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic, seeded fault injection for the runtime: a fixed set of
/// named fault points (channel send/recv, heap allocation, thread start,
/// scheduler step, disconnect traversal) that the executors and the VM
/// consult on their hot paths, with per-point triggers
/// (nth-occurrence, every-k, seeded probability) parsed from a compact
/// spec string (`fearlessc run --faults SPEC`, or the FEARLESS_FAULTS
/// environment hook used by benches and CI chaos runs).
///
/// Design constraints mirror support/Trace.h:
///
///  1. **One branch when disabled.** The runtime-disabled path is a null
///     `FaultInjector *`: every site guards on one pointer test
///     (`if (FI && FI->shouldFire(...))`). An armed injector costs one
///     relaxed atomic increment per *armed* point and a plain load for
///     unarmed ones; nothing on the query path allocates (asserted in
///     tests/fault_test.cpp, measured in bench/bench_faults.cpp).
///  2. **Deterministic.** Decisions depend only on (plan seed, point,
///     per-point occurrence index) — never on wall clock or global RNG —
///     so a fault spec plus a seed replays the same fault schedule. Under
///     the parallel executor the *count* of nth/every-k firings is
///     exact; which language thread observes an occurrence index may
///     vary with interleaving (the atomic counters race benignly).
///  3. **Thread-safe.** The per-point counters are relaxed atomics; the
///     plan itself is immutable after construction.
///
/// Spec grammar (documented in docs/OBSERVABILITY.md):
///
///   spec    := entry ("," entry)*
///   entry   := POINT "=" trigger | "seed=" N
///   trigger := "nth:" N | "every:" K | "prob:" P
///
/// e.g. `chan.send=nth:3,heap.alloc=prob:0.01,seed=42`.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_SUPPORT_FAULTINJECTOR_H
#define FEARLESS_SUPPORT_FAULTINJECTOR_H

#include "support/Expected.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace fearless {

/// The instrumented fault points. Names (faultPointName) are the spec /
/// docs / trace vocabulary; keep docs/OBSERVABILITY.md's fault-point
/// table in sync (tools/check_docs.py gates on it).
enum class FaultPoint : uint8_t {
  ChanSend,           ///< `chan.send` — a send operation completing.
  ChanRecv,           ///< `chan.recv` — a recv operation starting.
  HeapAlloc,          ///< `heap.alloc` — a language-level `new`.
  ThreadStart,        ///< `thread.start` — a thread attempt starting.
  SchedStep,          ///< `sched.step` — one scheduler pulse.
  DisconnectTraverse, ///< `disconnect.traverse` — an `if disconnected`.
};

inline constexpr size_t NumFaultPoints = 6;

/// The spec-string spelling of \p P (e.g. "chan.send").
const char *faultPointName(FaultPoint P);

/// Parses a spec-string point name; returns false for unknown names.
bool faultPointByName(std::string_view Name, FaultPoint &Out);

/// When one fault point fires.
struct FaultTrigger {
  enum class Kind : uint8_t {
    Never,       ///< Point not armed (the default).
    Nth,         ///< Fire exactly once, on the N-th occurrence.
    EveryK,      ///< Fire on every K-th occurrence.
    Probability, ///< Fire with probability P per occurrence (seeded).
  };
  Kind TriggerKind = Kind::Never;
  uint64_t N = 0;         ///< Nth / EveryK parameter (1-based).
  double Probability = 0; ///< Probability parameter in [0, 1].
};

/// A full parsed spec: one trigger per point plus the decision seed.
struct FaultPlan {
  std::array<FaultTrigger, NumFaultPoints> Triggers{};
  /// Seeds the per-occurrence probability decisions.
  uint64_t Seed = 0;

  bool empty() const {
    for (const FaultTrigger &T : Triggers)
      if (T.TriggerKind != FaultTrigger::Kind::Never)
        return false;
    return true;
  }
};

/// Parses the spec grammar above. Unknown points, malformed triggers,
/// zero counts, and out-of-range probabilities are diagnosed.
Expected<FaultPlan> parseFaultSpec(std::string_view Spec);

/// A configured injector, shared by every thread of one run. Query with
/// shouldFire() at instrumented sites; a null injector pointer is the
/// disabled state (one branch per site).
class FaultInjector {
public:
  explicit FaultInjector(const FaultPlan &Plan) : Plan(Plan) {}
  FaultInjector(const FaultInjector &) = delete;
  FaultInjector &operator=(const FaultInjector &) = delete;

  /// True when the site owning \p P should fail this occurrence.
  /// Thread-safe, allocation-free; deterministic in
  /// (seed, point, occurrence index).
  bool shouldFire(FaultPoint P) {
    size_t Idx = static_cast<size_t>(P);
    const FaultTrigger &Tr = Plan.Triggers[Idx];
    if (Tr.TriggerKind == FaultTrigger::Kind::Never)
      return false;
    uint64_t Occ =
        Points[Idx].Occurrences.fetch_add(1, std::memory_order_relaxed) +
        1;
    bool Fire = false;
    switch (Tr.TriggerKind) {
    case FaultTrigger::Kind::Never:
      break;
    case FaultTrigger::Kind::Nth:
      Fire = Occ == Tr.N;
      break;
    case FaultTrigger::Kind::EveryK:
      Fire = Occ % Tr.N == 0;
      break;
    case FaultTrigger::Kind::Probability:
      Fire = decide(Idx, Occ) < Tr.Probability;
      break;
    }
    if (Fire)
      Points[Idx].Fired.fetch_add(1, std::memory_order_relaxed);
    return Fire;
  }

  /// Occurrences observed at armed point \p P so far.
  uint64_t occurrences(FaultPoint P) const {
    return Points[static_cast<size_t>(P)].Occurrences.load(
        std::memory_order_relaxed);
  }
  /// Faults fired at point \p P so far.
  uint64_t fired(FaultPoint P) const {
    return Points[static_cast<size_t>(P)].Fired.load(
        std::memory_order_relaxed);
  }
  /// Faults fired across all points (the FaultsInjected metric).
  uint64_t totalFired() const {
    uint64_t Total = 0;
    for (const PointState &S : Points)
      Total += S.Fired.load(std::memory_order_relaxed);
    return Total;
  }

  const FaultPlan &plan() const { return Plan; }

  /// Builds an injector from the FEARLESS_FAULTS environment variable.
  /// Returns null when the variable is unset or empty; on a malformed
  /// spec returns null and fills \p ErrorOut (when given) so callers can
  /// warn instead of silently running fault-free.
  static std::unique_ptr<FaultInjector>
  fromEnv(std::string *ErrorOut = nullptr);

private:
  struct PointState {
    std::atomic<uint64_t> Occurrences{0};
    std::atomic<uint64_t> Fired{0};
  };

  /// Deterministic per-occurrence uniform draw in [0, 1).
  double decide(size_t PointIdx, uint64_t Occ) const;

  const FaultPlan Plan;
  std::array<PointState, NumFaultPoints> Points{};
};

} // namespace fearless

#endif // FEARLESS_SUPPORT_FAULTINJECTOR_H
