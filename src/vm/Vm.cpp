//===- vm/Vm.cpp - Bytecode dispatch loop ---------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "vm/Vm.h"

#include "runtime/StepOps.h"
#include "vm/Bytecode.h"

#include <algorithm>
#include <cassert>

using namespace fearless;
using namespace fearless::vm;

// Computed-goto dispatch on GNU-compatible compilers (one indirect
// branch per op, so the predictor sees per-op history); portable switch
// fallback elsewhere. The op bodies are written once and shared by both
// via the VM_CASE / VM_NEXT macros.
#if defined(__GNUC__) || defined(__clang__)
#define FEARLESS_VM_COMPUTED_GOTO 1
#endif

namespace {

/// Instructions retired per stepThread call. The batch is the VM's step
/// granularity: executors keep their per-step concerns (deterministic
/// interleaving, preemption quanta, watchdog cancellation, sched.step
/// fault injection) at a bounded latency while the hot loop stays inside
/// the dispatcher.
constexpr int BatchSize = 128;

const char *checkWhatStr(CheckWhat W) {
  switch (W) {
  case CheckWhat::VarRead:
    return "variable read";
  case CheckWhat::VarWrite:
    return "variable write";
  case CheckWhat::FieldWrite:
    return "field write";
  default:
    return "access";
  }
}

const char *boolCheckMsg(CheckWhat W) {
  switch (W) {
  case CheckWhat::IfCond:
    return "if condition is not a bool";
  case CheckWhat::WhileCond:
    return "while condition is not a bool";
  case CheckWhat::LogicalOp:
    return "logical operator on a non-bool";
  default:
    return "conditional on a non-bool";
  }
}

/// One bounded batch of \p T's instructions; RuntimeFaultError
/// propagates to stepThread's trap handler.
StepOutcome runBatch(ThreadState &T, const StepServices &S) {
  const CompiledProgram &P = *S.VmCode;
  ++S.Stats->Steps;

  VmState &V = T.Vm;
  const Chunk *Ch = &P.Chunks[V.Frames.back().Chunk];
  const Instr *Code = Ch->Code.data();
  const Value *Consts = Ch->Constants.data();
  uint32_t Pc = V.Frames.back().Pc;
  uint32_t Base = V.Frames.back().Base;
  Value *Regs = V.Regs.data();
  MachineStats &Stats = *S.Stats;
  Heap &H = *S.TheHeap;

  uint64_t Executed = 0;
  int Budget = BatchSize;
  const uint64_t BatchStart = T.Trace ? T.Trace->now() : 0;
  const Instr *In = nullptr;

  auto Flush = [&] {
    Stats.VmInstructions += Executed;
    if (T.Trace && Executed)
      T.Trace->record("vm.dispatch", "vm", 'X', BatchStart,
                      T.Trace->now() - BatchStart, "instructions",
                      Executed);
  };
  // Leaves the batch with \p Out, which a runtime/StepOps.h operation
  // returned (a stuck one has already failed the thread).
  auto Stop = [&](StepOutcome Out) {
    Flush();
    return Out;
  };
  auto Fail = [&](std::string Why) {
    return Stop(failThread(T, std::move(Why)));
  };
  // IC-accelerated (struct, field-symbol) → field-index resolution;
  // UINT32_MAX = no such field.
  auto ResolveField = [&](Loc BaseLoc, uint32_t IcSlot,
                          Symbol Field) -> uint32_t {
    const Object &O = H.get(BaseLoc);
    VmState::IcEntry &E = V.Ic[IcSlot];
    if (E.Struct == O.Struct) {
      ++Stats.IcHits;
      return E.Field;
    }
    const FieldInfo *F = O.Struct->findField(Field);
    if (!F)
      return UINT32_MAX;
    ++Stats.IcMisses;
    E.Struct = O.Struct;
    E.Field = F->Index;
    return F->Index;
  };

#ifdef FEARLESS_VM_COMPUTED_GOTO

#define VM_CASE(Name) L_##Name:
#define VM_NEXT()                                                        \
  do {                                                                   \
    if (--Budget < 0)                                                    \
      goto BatchEnd;                                                     \
    In = Code + Pc++;                                                    \
    ++Executed;                                                          \
    goto *JumpTable[static_cast<size_t>(In->Opcode)];                    \
  } while (0)

  // Must match the Op enum order exactly.
  static const void *const JumpTable[] = {
      &&L_LoadConst, &&L_LoadUnit,    &&L_LoadNone,    &&L_LoadBool,
      &&L_Move,      &&L_ChkVal,      &&L_ChkWriteBase, &&L_GetField,
      &&L_GetFieldChk, &&L_SetField,  &&L_NewDefault,  &&L_NewInit,
      &&L_IsNone,    &&L_Not,         &&L_Neg,         &&L_Add,
      &&L_Sub,       &&L_Mul,         &&L_Div,         &&L_Mod,
      &&L_Lt,        &&L_Le,          &&L_Gt,          &&L_Ge,
      &&L_Eq,        &&L_Ne,          &&L_Jump,        &&L_JumpIfFalse,
      &&L_JumpIfTrue, &&L_JumpIfNone, &&L_Call,        &&L_Ret,
      &&L_Send,      &&L_Recv,        &&L_Disconn,     &&L_DisconnElided,
  };
  VM_NEXT();

#else

#define VM_CASE(Name) case Op::Name:
#define VM_NEXT() break

  for (;;) {
    if (--Budget < 0)
      goto BatchEnd;
    In = Code + Pc++;
    ++Executed;
    switch (In->Opcode) {

#endif

  VM_CASE(LoadConst) {
    Regs[Base + In->A] = Consts[In->Imm];
  }
  VM_NEXT();

  VM_CASE(LoadUnit) {
    Regs[Base + In->A] = Value::unitVal();
  }
  VM_NEXT();

  VM_CASE(LoadNone) {
    Regs[Base + In->A] = Value::noneVal();
  }
  VM_NEXT();

  VM_CASE(LoadBool) {
    Regs[Base + In->A] = Value::boolVal(In->B != 0);
  }
  VM_NEXT();

  VM_CASE(Move) {
    Regs[Base + In->A] = Regs[Base + In->B];
  }
  VM_NEXT();

  VM_CASE(ChkVal) {
    const Value &Val = Regs[Base + In->A];
    if (Val.isLoc() && !inReservation(T, S, Val.asLoc()))
      return Stop(valueViolation(
          T, Val, checkWhatStr(static_cast<CheckWhat>(In->C))));
  }
  VM_NEXT();

  VM_CASE(ChkWriteBase) {
    const Value &BV = Regs[Base + In->A];
    if (!BV.isLoc())
      return Fail("field write on a non-object value");
    if (!inReservation(T, S, BV.asLoc()))
      return Stop(baseViolation(T, BV, "field write"));
  }
  VM_NEXT();

  VM_CASE(GetField) {
    const Value &BV = Regs[Base + In->B];
    if (!BV.isLoc())
      return Fail("field read on a non-object value");
    uint32_t FI = ResolveField(BV.asLoc(), In->C,
                               Symbol{static_cast<uint32_t>(In->Imm)});
    if (FI == UINT32_MAX)
      return Fail("no such field at runtime (checker bug)");
    Regs[Base + In->A] = H.getField(BV.asLoc(), FI);
  }
  VM_NEXT();

  VM_CASE(GetFieldChk) {
    const Value &BV = Regs[Base + In->B];
    if (!BV.isLoc())
      return Fail("field read on a non-object value");
    if (!inReservation(T, S, BV.asLoc()))
      return Stop(baseViolation(T, BV, "field read"));
    uint32_t FI = ResolveField(BV.asLoc(), In->C,
                               Symbol{static_cast<uint32_t>(In->Imm)});
    if (FI == UINT32_MAX)
      return Fail("no such field at runtime (checker bug)");
    Value Out = H.getField(BV.asLoc(), FI);
    // E5a: the read result must be within the reservation.
    if (Out.isLoc() && !inReservation(T, S, Out.asLoc()))
      return Stop(valueViolation(T, Out, "field read"));
    Regs[Base + In->A] = Out;
  }
  VM_NEXT();

  VM_CASE(SetField) {
    const Value &BV = Regs[Base + In->A];
    if (!BV.isLoc())
      return Fail("field write on a non-object value");
    uint32_t FI = ResolveField(BV.asLoc(), In->C,
                               Symbol{static_cast<uint32_t>(In->Imm)});
    if (FI == UINT32_MAX)
      return Fail("no such field at runtime (checker bug)");
    H.setField(BV.asLoc(), FI, Regs[Base + In->B]);
  }
  VM_NEXT();

  VM_CASE(NewDefault) {
    Loc L = allocateObject(T, S, Symbol{static_cast<uint32_t>(In->Imm)});
    if (!L.isValid())
      return Stop(heapExhausted(T, S));
    Regs[Base + In->A] = Value::locVal(L);
  }
  VM_NEXT();

  VM_CASE(NewInit) {
    const NewInitInfo &Info = P.NewTables[In->Imm];
    Loc L = allocateObject(T, S, Info.Struct);
    if (!L.isValid())
      return Stop(heapExhausted(T, S));
    for (size_t I = 0; I < Info.ArgFields.size(); ++I) {
      const Value &Arg = Regs[Base + In->B + I];
      if (Info.Checked && Arg.isLoc() && !inReservation(T, S, Arg.asLoc()))
        return Stop(initializerViolation(T));
      H.setField(L, Info.ArgFields[I], Arg);
    }
    Regs[Base + In->A] = Value::locVal(L);
  }
  VM_NEXT();

  VM_CASE(IsNone) {
    Regs[Base + In->A] = Value::boolVal(Regs[Base + In->B].isNone());
  }
  VM_NEXT();

  VM_CASE(Not) {
    const Value &Val = Regs[Base + In->B];
    if (Val.kind() != Value::Kind::Bool)
      return Fail("'!' on a non-bool");
    Regs[Base + In->A] = Value::boolVal(!Val.asBool());
  }
  VM_NEXT();

  VM_CASE(Neg) {
    const Value &Val = Regs[Base + In->B];
    if (Val.kind() != Value::Kind::Int)
      return Fail("unary '-' on a non-int");
    Regs[Base + In->A] = Value::intVal(-Val.asInt());
  }
  VM_NEXT();

#define VM_ARITH(Name, Expr)                                             \
  VM_CASE(Name) {                                                        \
    const Value &L = Regs[Base + In->B];                                 \
    const Value &R = Regs[Base + In->C];                                 \
    if (L.kind() != Value::Kind::Int || R.kind() != Value::Kind::Int)    \
      return Fail("arithmetic on non-ints");                             \
    int64_t A = L.asInt(), B = R.asInt();                                \
    Regs[Base + In->A] = Value::intVal(Expr);                            \
  }                                                                      \
  VM_NEXT()

  VM_ARITH(Add, A + B);
  VM_ARITH(Sub, A - B);
  VM_ARITH(Mul, A * B);
#undef VM_ARITH

#define VM_DIVMOD(Name, Expr)                                            \
  VM_CASE(Name) {                                                        \
    const Value &L = Regs[Base + In->B];                                 \
    const Value &R = Regs[Base + In->C];                                 \
    if (L.kind() != Value::Kind::Int || R.kind() != Value::Kind::Int)    \
      return Fail("arithmetic on non-ints");                             \
    if (R.asInt() == 0)                                                  \
      return Fail("division by zero");                                   \
    int64_t A = L.asInt(), B = R.asInt();                                \
    Regs[Base + In->A] = Value::intVal(Expr);                            \
  }                                                                      \
  VM_NEXT()

  VM_DIVMOD(Div, A / B);
  VM_DIVMOD(Mod, A % B);
#undef VM_DIVMOD

#define VM_COMPARE(Name, OpTok)                                          \
  VM_CASE(Name) {                                                        \
    const Value &L = Regs[Base + In->B];                                 \
    const Value &R = Regs[Base + In->C];                                 \
    if (L.kind() != Value::Kind::Int || R.kind() != Value::Kind::Int)    \
      return Fail("comparison on non-ints");                             \
    Regs[Base + In->A] = Value::boolVal(L.asInt() OpTok R.asInt());      \
  }                                                                      \
  VM_NEXT()

  VM_COMPARE(Lt, <);
  VM_COMPARE(Le, <=);
  VM_COMPARE(Gt, >);
  VM_COMPARE(Ge, >=);
#undef VM_COMPARE

  VM_CASE(Eq) {
    Regs[Base + In->A] =
        Value::boolVal(Regs[Base + In->B] == Regs[Base + In->C]);
  }
  VM_NEXT();

  VM_CASE(Ne) {
    Regs[Base + In->A] =
        Value::boolVal(!(Regs[Base + In->B] == Regs[Base + In->C]));
  }
  VM_NEXT();

  VM_CASE(Jump) {
    Pc = static_cast<uint32_t>(In->Imm);
  }
  VM_NEXT();

  VM_CASE(JumpIfFalse) {
    const Value &Val = Regs[Base + In->A];
    if (Val.kind() != Value::Kind::Bool)
      return Fail(boolCheckMsg(static_cast<CheckWhat>(In->C)));
    if (!Val.asBool())
      Pc = static_cast<uint32_t>(In->Imm);
  }
  VM_NEXT();

  VM_CASE(JumpIfTrue) {
    const Value &Val = Regs[Base + In->A];
    if (Val.kind() != Value::Kind::Bool)
      return Fail(boolCheckMsg(static_cast<CheckWhat>(In->C)));
    if (Val.asBool())
      Pc = static_cast<uint32_t>(In->Imm);
  }
  VM_NEXT();

  VM_CASE(JumpIfNone) {
    if (Regs[Base + In->A].isNone())
      Pc = static_cast<uint32_t>(In->Imm);
  }
  VM_NEXT();

  VM_CASE(Call) {
    const Chunk &Callee = P.Chunks[In->Imm];
    uint32_t NewBase = Base + Ch->NumRegs;
    size_t Need = static_cast<size_t>(NewBase) + Callee.NumRegs;
    V.Frames.back().Pc = Pc;
    V.Frames.push_back(VmFrame{static_cast<uint32_t>(In->Imm), 0, NewBase,
                               Base + In->A});
    if (V.Regs.size() < Need)
      V.Regs.resize(Need); // amortized; capacity is kept across calls
    Regs = V.Regs.data();
    for (uint16_t I = 0; I < In->C; ++I)
      Regs[NewBase + I] = Regs[Base + In->B + I];
    Ch = &Callee;
    Code = Ch->Code.data();
    Consts = Ch->Constants.data();
    Pc = 0;
    Base = NewBase;
  }
  VM_NEXT();

  VM_CASE(Ret) {
    Value RetVal = Regs[Base + In->A];
    uint32_t RetReg = V.Frames.back().RetReg;
    V.Frames.pop_back();
    if (V.Frames.empty()) {
      T.Result = RetVal;
      T.Status = ThreadStatus::Finished;
      Flush();
      return StepOutcome::Finished;
    }
    const VmFrame &F = V.Frames.back();
    Regs[RetReg] = RetVal;
    Ch = &P.Chunks[F.Chunk];
    Code = Ch->Code.data();
    Consts = Ch->Constants.data();
    Pc = F.Pc;
    Base = F.Base;
  }
  VM_NEXT();

  VM_CASE(Send) {
    // The executor pairs the blocked sender (EC3) and resumes it with
    // unit into register A.
    StepOutcome Out =
        blockSend(T, S, Regs[Base + In->B],
                  In->Imm >= 0 ? P.TypePool[In->Imm] : Type());
    if (Out != StepOutcome::Stuck) {
      V.ResumeReg = Base + In->A;
      V.Frames.back().Pc = Pc;
    }
    return Stop(Out);
  }

  VM_CASE(Recv) {
    StepOutcome Out = blockRecv(T, S, P.TypePool[In->Imm]);
    V.ResumeReg = Base + In->A;
    V.Frames.back().Pc = Pc;
    return Stop(Out);
  }

  VM_CASE(Disconn) {
    bool Taken = false;
    if (StepOutcome Out = ifDisconnected(
            T, S, Regs[Base + In->A], Regs[Base + In->B],
            In->C & DisconnCheckReservation, DisconnectVerdict::Unknown,
            /*CrossCheck=*/false, Taken);
        Out != StepOutcome::Progress)
      return Stop(Out);
    if (!Taken)
      Pc = static_cast<uint32_t>(In->Imm); // else branch
  }
  VM_NEXT();

  VM_CASE(DisconnElided) {
    // The analysis proved this site's outcome at compile time and only
    // the proven branch was emitted: the site keeps its checks, counters,
    // fault point and optional cross-check, then falls through.
    bool Taken = false;
    if (StepOutcome Out = ifDisconnected(
            T, S, Regs[Base + In->A], Regs[Base + In->B],
            In->C & DisconnCheckReservation,
            (In->C & DisconnFoldedTaken) ? DisconnectVerdict::MustDisconnected
                                         : DisconnectVerdict::MustConnected,
            In->C & DisconnCrossCheck, Taken);
        Out != StepOutcome::Progress)
      return Stop(Out);
  }
  VM_NEXT();

#ifndef FEARLESS_VM_COMPUTED_GOTO
    }
  }
#endif

#undef VM_CASE
#undef VM_NEXT

BatchEnd:
  V.Frames.back().Pc = Pc;
  Flush();
  return StepOutcome::Progress;
}

} // namespace

void fearless::enterThread(ThreadState &T, const CompiledProgram &Code,
                           Symbol Fn, const std::vector<Value> &Args) {
  auto It = Code.ByName.find(Fn);
  assert(It != Code.ByName.end() && "spawning an unknown function");
  const Chunk &Entry = Code.Chunks[It->second];
  assert(Args.size() == Entry.NumParams && "arity checked");
  T.Vm.Frames.assign(1, VmFrame{It->second, 0, 0, UINT32_MAX});
  T.Vm.Regs.assign(Entry.NumRegs, Value());
  std::copy(Args.begin(), Args.end(), T.Vm.Regs.begin());
  T.Vm.Ic.assign(Code.NumIcSlots, VmState::IcEntry());
  T.Status = ThreadStatus::Runnable;
}

void fearless::resumeThread(ThreadState &T, const Value &V) {
  assert(T.Vm.ResumeReg != UINT32_MAX && "resuming a thread not blocked");
  T.Vm.Regs[T.Vm.ResumeReg] = V;
  T.Vm.ResumeReg = UINT32_MAX;
  T.Status = ThreadStatus::Runnable;
}

StepOutcome fearless::stepThread(ThreadState &T,
                                 const StepServices &Services) {
  assert(T.Status == ThreadStatus::Runnable && "stepping a blocked thread");
  // The step boundary is the trap frontier: a structured fault raised
  // anywhere inside the batch (invalid heap/field access deep in the
  // heap, heap exhaustion, an injected fault) unwinds to here and fails
  // this one thread as a typed error, which the executors escalate to a
  // run abort and report — the process never dies in release builds.
  try {
    return runBatch(T, Services);
  } catch (const RuntimeFaultError &E) {
    RuntimeFault F = E.Fault;
    F.Thread = T.Id;
    T.Fault = F;
    T.Error = F.render();
    T.Status = ThreadStatus::Failed;
    if (T.Trace)
      T.Trace->instant("fault.trapped", "fault", "kind",
                       static_cast<uint64_t>(F.Kind));
    return StepOutcome::Stuck;
  }
}
