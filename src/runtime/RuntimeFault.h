//===- runtime/RuntimeFault.h - Structured runtime faults -------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured runtime faults: the typed description of a runtime trap
/// (invalid heap/field access, heap exhaustion, injected fault) and the
/// carrier that unwinds it from deep inside the VM or heap to
/// the owning executor.
///
/// Historically a bad heap access called `std::abort` even in release
/// builds. That is memory-safe but untestable and ungraceful: one bad
/// access in one language thread kills the whole process. The trap path
/// replaces the abort in release builds with a thrown RuntimeFaultError
/// that `stepThread` (and the executors' communication paths) catch at
/// the step boundary, turning the trap into a typed per-thread error —
/// kind, location, thread id — that Machine/ParallelExec report as a
/// diagnostic and `fearlessc` maps to a distinct exit code. Debug builds
/// keep the loud abort for genuine memory-safety traps, where a live
/// debugger beats an unwound stack. Injected faults (support/
/// FaultInjector.h) always throw: they exist to exercise the fault path,
/// in every build flavor.
///
/// This is the only exception used by the runtime; library code
/// otherwise stays on Expected<T>. The throw happens only on the fault
/// path — the non-throwing path of the enclosing try block costs nothing
/// (table-based unwinding).
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_RUNTIME_RUNTIMEFAULT_H
#define FEARLESS_RUNTIME_RUNTIMEFAULT_H

#include "runtime/Value.h"

#include <cstdint>
#include <string>

namespace fearless {

enum class RuntimeFaultKind : uint8_t {
  /// A heap access through an invalid or out-of-range location.
  InvalidHeapAccess,
  /// A field access with an out-of-range field index.
  InvalidFieldAccess,
  /// An allocation failed because the heap is at capacity.
  HeapExhausted,
  /// A fault fired by the deterministic injector (FaultInjector.h).
  Injected,
};

/// Render as "invalid heap access" etc.
const char *toString(RuntimeFaultKind K);

/// One structured fault: what went wrong, where, and on which thread.
struct RuntimeFault {
  RuntimeFaultKind Kind = RuntimeFaultKind::InvalidHeapAccess;
  /// The heap location involved (invalid when not applicable).
  Loc Location = Loc::invalid();
  /// Kind-specific detail: the field index for InvalidFieldAccess, the
  /// FaultPoint for Injected.
  uint32_t Detail = 0;
  /// The language thread that trapped; UINT32_MAX until the catch site
  /// attributes it.
  uint32_t Thread = UINT32_MAX;

  /// "runtime fault: <kind> <specifics> (thread N)".
  std::string render() const;
};

/// The unwinding carrier. Deliberately not derived from std::exception:
/// nothing but the step-boundary handlers should catch it, and a generic
/// catch (std::exception&) swallowing a fault would mask the trap.
struct RuntimeFaultError {
  RuntimeFault Fault;
};

/// Raises a memory-safety trap: prints and aborts in debug builds
/// (NDEBUG undefined), throws RuntimeFaultError in release builds.
[[noreturn]] void raiseRuntimeFault(const RuntimeFault &F);

/// Raises an injected fault: always throws, in every build flavor
/// (injected faults exist to exercise the fault path, not to stop a
/// debugger).
[[noreturn]] void raiseInjectedFault(const RuntimeFault &F);

} // namespace fearless

#endif // FEARLESS_RUNTIME_RUNTIMEFAULT_H
