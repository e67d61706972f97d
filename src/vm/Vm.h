//===- vm/Vm.h - Register bytecode execution engine -------------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bytecode execution engine behind every `fearlessc run`: a
/// computed-goto dispatch loop (switch fallback on non-GNU compilers)
/// over the chunks of vm/Bytecode.h. It plugs into the executors through
/// the exact stepThread contract the tree-walking interpreter satisfies —
/// sends/recvs block the ThreadState and resume through
/// ControlValue/HasValue, faults unwind as RuntimeFaultError to the
/// step-boundary trap in stepThread, and all counters land in the same
/// per-thread MachineStats — so the Machine and ParallelExec's task
/// scheduler drive it unchanged.
///
/// One stepThread "step" executes a bounded batch of instructions, so
/// executor-level concerns (deterministic interleaving, preemption
/// quanta, watchdog cancellation, sched.step fault injection) keep their
/// granularity while the hot loop stays inside the dispatch loop.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_VM_VM_H
#define FEARLESS_VM_VM_H

#include "runtime/Interp.h"
#include "sema/StructTable.h"
#include "vm/Bytecode.h"

#include <vector>

namespace fearless {
namespace vm {

/// One activation record. Base indexes the shared register stack;
/// RetReg is the *absolute* caller register receiving the return value.
struct VmFrame {
  uint32_t Chunk = 0;
  uint32_t Pc = 0;
  uint32_t Base = 0;
  uint32_t RetReg = UINT32_MAX;
};

/// Per-thread VM execution state, created lazily on the first step and
/// owned by the ThreadState. The register stack and frame vector only
/// grow (capacity is reused), so steady-state dispatch — including
/// call/return and park/resume cycles — performs no heap allocations.
struct VmState {
  /// The register stack: every frame's window [Base, Base+NumRegs).
  std::vector<Value> Regs;
  std::vector<VmFrame> Frames;

  /// Per-site field-access inline cache: memoizes the last
  /// (struct → field index) resolution. Thread-local by construction,
  /// so no synchronization (and no sharing-induced misses) under the
  /// parallel executor.
  struct IcEntry {
    const StructInfo *Struct = nullptr;
    uint32_t Field = 0;
  };
  std::vector<IcEntry> Ic;

  /// Absolute register awaiting the resume value of a blocked send/recv;
  /// UINT32_MAX when not blocked.
  uint32_t ResumeReg = UINT32_MAX;
};

/// Executes one bounded batch of instructions for \p T. Same contract as
/// stepThread (which dispatches here when Services.VmCode is set);
/// RuntimeFaultError propagates to stepThread's trap handler.
StepOutcome stepThreadVm(ThreadState &T, const InterpServices &Services);

} // namespace vm
} // namespace fearless

#endif // FEARLESS_VM_VM_H
