//===- vm/Vm.h - Register bytecode execution engine -------------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-thread state of the bytecode engine behind every executor:
/// the register stack and the frames, which together are a thread's
/// stack and control. stepThread (runtime/StepOps.h, defined in
/// vm/Vm.cpp) executes a bounded batch of instructions over it with a
/// computed-goto dispatch loop (switch fallback on non-GNU compilers);
/// sends and recvs block the ThreadState and resume through
/// resumeThread, faults unwind as RuntimeFaultError to the step-boundary
/// trap, and all counters land in the per-thread MachineStats, so the
/// Machine and ParallelExec's task scheduler drive it alike.
///
/// One stepThread "step" executes a bounded batch of instructions, so
/// executor-level concerns (deterministic interleaving, preemption
/// quanta, watchdog cancellation, sched.step fault injection) keep their
/// granularity while the hot loop stays inside the dispatch loop.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_VM_VM_H
#define FEARLESS_VM_VM_H

#include "runtime/Value.h"
#include "sema/StructTable.h"

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

/// Per-thread VM execution state, set up by enterThread and owned by the
/// ThreadState. The register stack and frame vector only grow (capacity
/// is reused), so steady-state dispatch — including call/return and
/// park/resume cycles — performs no heap allocations.
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

} // namespace vm
} // namespace fearless

#endif // FEARLESS_VM_VM_H
