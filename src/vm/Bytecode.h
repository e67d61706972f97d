//===- vm/Bytecode.h - Register bytecode definitions ------------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compact register bytecode the VM executes (ROADMAP item 1): one
/// Chunk per function with a register file, a deduplicated constant pool,
/// and absolute jump targets. Two codegen modes share the instruction
/// set:
///
///  - **checked**: explicit reservation-check ops (ChkVal, ChkWriteBase,
///    the *Chk field flavors) perform every dynamic check of the §3.2
///    E-rules, making the checked VM the differential baseline for the
///    erased one.
///  - **erased**: the erasability theorem (Theorems 6.1/6.2) says checked
///    programs never fail those checks, so the compiler simply does not
///    emit them — checks are compiled out, not branched over. The PR 3
///    per-site verdict table additionally folds `if disconnected` on
///    must-* sites into straight-line code (DisconnElided + only the
///    proven branch), with an optional debug cross-check.
///
/// Field accesses carry an inline-cache slot: the cache memoizes the
/// (struct, field-symbol) → field-index resolution per site, per thread
/// (VmState owns the IC array, so no synchronization is needed).
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_VM_BYTECODE_H
#define FEARLESS_VM_BYTECODE_H

#include "analysis/Verdict.h"
#include "ast/Types.h"
#include "runtime/Value.h"
#include "support/Diagnostics.h"
#include "support/Interner.h"

#include <cstdint>
#include <map>
#include <vector>

namespace fearless {
namespace vm {

/// Opcodes. A/B/C are register (or small-operand) fields; Imm is a
/// constant-pool index, jump target, symbol id, or table index depending
/// on the op.
enum class Op : uint8_t {
  LoadConst, ///< A = Constants[Imm]
  LoadUnit,  ///< A = unit
  LoadNone,  ///< A = none
  LoadBool,  ///< A = bool(B)
  Move,      ///< A = B

  /// Checked mode only: reservation check on the value in A (stuck on
  /// violation). C selects the diagnostic flavor (CheckWhat).
  ChkVal,
  /// Checked mode only: field-write base check on A — must be a location
  /// inside the reservation. Emitted after the base evaluates and before
  /// the value expression, preserving the E-rules' check order.
  ChkWriteBase,

  GetField,    ///< A = B.field(Imm), inline cache slot C
  GetFieldChk, ///< checked flavor: base + result reservation checks
  SetField,    ///< A.field(Imm) = B, inline cache slot C

  NewDefault, ///< A = new S() where S = symbol(Imm)
  NewInit,    ///< A = new S(regs B..): NewTables[Imm] drives the init

  IsNone, ///< A = is_none(B)
  Not,    ///< A = !B  (stuck when B is not bool)
  Neg,    ///< A = -B  (stuck when B is not int)

  Add, ///< A = B + C (int; stuck otherwise) — likewise below
  Sub,
  Mul,
  Div, ///< stuck on division by zero
  Mod,
  Lt,
  Le,
  Gt,
  Ge,
  Eq, ///< A = (B == C), full Value equality
  Ne,

  Jump,        ///< pc = Imm
  JumpIfFalse, ///< pc = Imm when !A; stuck when A is not bool (flavor C)
  JumpIfTrue,  ///< pc = Imm when A; stuck when A is not bool (flavor C)
  JumpIfNone,  ///< pc = Imm when A is none

  Call, ///< A = Chunks[Imm](regs B .. B+C-1)
  Ret,  ///< return A (top frame: the thread finishes with A)

  Send, ///< block sending B (τ = TypePool[Imm], or derived when Imm < 0);
        ///< resumes with unit into A
  Recv, ///< block receiving τ = TypePool[Imm]; resumes with value into A

  /// Dynamic `if disconnected(A, B)`: run the §5.2 traversal, fall
  /// through on disconnected, jump to Imm otherwise. C carries
  /// DisconnFlags.
  Disconn,
  /// Statically folded `if disconnected`: perform the site's checks and
  /// counters (and the optional cross-check traversal), then fall through
  /// into the single compiled branch. C carries DisconnFlags.
  DisconnElided,
};

/// Diagnostic flavor of ChkVal / the conditional-jump bool checks.
enum class CheckWhat : uint16_t {
  VarRead,
  VarWrite,
  FieldWrite,
  IfCond,
  WhileCond,
  LogicalOp,
};

/// Bit flags in the C field of Disconn / DisconnElided.
enum DisconnFlags : uint16_t {
  DisconnCheckReservation = 1 << 0, ///< checked mode: membership checks
  DisconnFoldedTaken = 1 << 1,      ///< elided: the then-branch compiled
  DisconnCrossCheck = 1 << 2,       ///< elided: re-run the traversal
};

/// One instruction. Fixed-width; Imm doubles as constant index, jump
/// target, interned-symbol id, or side-table index.
struct Instr {
  Op Opcode = Op::LoadUnit;
  uint16_t A = 0;
  uint16_t B = 0;
  uint16_t C = 0;
  int32_t Imm = 0;
};

/// Side table of one `new S(args)` site: which field slots the argument
/// registers initialize (full form or required-only form, resolved at
/// compile time), and whether initializers are reservation-checked.
struct NewInitInfo {
  Symbol Struct;
  std::vector<uint32_t> ArgFields;
  bool Checked = false;
};

/// One compiled function.
struct Chunk {
  Symbol FnName;
  uint16_t NumParams = 0;
  /// Register-file size: parameters in r0..NumParams-1, then lets and
  /// expression temporaries under a stack discipline.
  uint16_t NumRegs = 0;
  std::vector<Instr> Code;
  std::vector<Value> Constants;
};

/// How one `if disconnected` site was compiled (for `fearlessc disasm`).
struct SiteDecision {
  Symbol Function;
  SourceLoc Loc;
  DisconnectVerdict Verdict = DisconnectVerdict::Unknown;
  enum class Action { Dynamic, FoldedThen, FoldedElse } Taken =
      Action::Dynamic;
};

/// A whole compiled program.
struct CompiledProgram {
  std::vector<Chunk> Chunks;
  /// Function name → chunk index (thread entry, calls, disasm).
  std::map<Symbol, uint32_t> ByName;
  /// Deduplicated send/recv τ pool (send pairing is by exact type).
  std::vector<Type> TypePool;
  /// Per-new-site initializer tables.
  std::vector<NewInitInfo> NewTables;
  /// Total inline-cache slots across all chunks; VmState sizes its
  /// per-thread cache array from this.
  uint32_t NumIcSlots = 0;
  /// Compile-time count of dynamic checks the codegen omitted: one per
  /// reservation-check site not emitted in erased mode, plus one per
  /// `if disconnected` site folded to a constant branch. Surfaced as the
  /// `checks_erased` runtime metric.
  uint64_t ChecksErased = 0;
  /// True when compiled in checked mode (check ops present).
  bool Checked = false;
  /// Per-site fold decisions, in compile order.
  std::vector<SiteDecision> Sites;
};

/// Codegen configuration.
struct CompileOptions {
  /// Emit the dynamic reservation checks (the differential baseline).
  /// False = erased mode: the erasability theorem makes the checks
  /// redundant for checked programs, so none are emitted.
  bool EmitChecks = false;
  /// Per-site verdicts from the static region-graph analysis; null
  /// disables `if disconnected` folding.
  const DisconnectVerdictTable *Verdicts = nullptr;
  /// Fold must-* sites to a constant branch
  /// (MachineOptions::ElideDisconnect).
  bool ElideDisconnect = true;
  /// Folded sites re-run the real traversal and go stuck on disagreement
  /// with the static verdict (debug builds / property tests).
  bool CrossCheckElision = false;
};

/// Returns the mnemonic of \p O, e.g. "get_field.chk".
const char *toString(Op O);

} // namespace vm
} // namespace fearless

#endif // FEARLESS_VM_BYTECODE_H
