//===- vm/Compiler.cpp ----------------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "vm/Compiler.h"

#include "ast/Ast.h"

#include <algorithm>
#include <cassert>

using namespace fearless;
using namespace fearless::vm;

namespace {

/// Compiles one function body into a chunk. Register discipline:
/// parameters occupy r0..NumParams-1, `let` bindings and expression
/// temporaries are allocated from a bump counter and freed in LIFO order
/// when their scope or expression ends, so NumRegs is the high-water mark.
class FnCompiler {
public:
  FnCompiler(const CheckedProgram &Checked, const CompileOptions &Opts,
             CompiledProgram &Out, Chunk &Ch)
      : Checked(Checked), Opts(Opts), Out(Out), Ch(Ch) {}

  bool compileFn(const FnDecl &Fn) {
    for (const ParamDecl &P : Fn.Params) {
      uint16_t R = allocReg();
      if (Failed)
        return false;
      Scope.emplace_back(P.Name, R);
    }
    uint16_t Dst = allocReg();
    if (!compileExpr(Fn.Body.get(), Dst))
      return false;
    emit(Op::Ret, Dst);
    Ch.NumParams = static_cast<uint16_t>(Fn.Params.size());
    Ch.NumRegs = MaxRegs;
    return true;
  }

  const std::string &error() const { return Err; }

private:
  //===--------------------------------------------------------------------===
  // Emission helpers
  //===--------------------------------------------------------------------===

  size_t emit(Op O, uint16_t A = 0, uint16_t B = 0, uint16_t C = 0,
              int32_t Imm = 0) {
    Ch.Code.push_back(Instr{O, A, B, C, Imm});
    return Ch.Code.size() - 1;
  }

  /// Patches the jump at \p At to target the next emitted instruction.
  void patchToHere(size_t At) {
    Ch.Code[At].Imm = static_cast<int32_t>(Ch.Code.size());
  }

  size_t here() const { return Ch.Code.size(); }

  uint16_t allocReg() {
    if (NextReg == UINT16_MAX) {
      fail("register file overflow (function too large for the VM)");
      return 0;
    }
    uint16_t R = NextReg++;
    MaxRegs = std::max<uint16_t>(MaxRegs, NextReg);
    return R;
  }

  void freeTo(uint16_t Mark) { NextReg = Mark; }

  bool fail(std::string Why) {
    if (!Failed) {
      Err = std::move(Why);
      Failed = true;
    }
    return false;
  }

  int32_t constIndex(Value V) {
    for (size_t I = 0; I < Ch.Constants.size(); ++I)
      if (Ch.Constants[I] == V)
        return static_cast<int32_t>(I);
    Ch.Constants.push_back(V);
    return static_cast<int32_t>(Ch.Constants.size() - 1);
  }

  int32_t typeIndex(const Type &Ty) {
    for (size_t I = 0; I < Out.TypePool.size(); ++I)
      if (Out.TypePool[I] == Ty)
        return static_cast<int32_t>(I);
    Out.TypePool.push_back(Ty);
    return static_cast<int32_t>(Out.TypePool.size() - 1);
  }

  uint16_t icSlot() {
    // Per-site cache slot; VmState sizes its array from the global count.
    return static_cast<uint16_t>(Out.NumIcSlots++);
  }

  const uint16_t *lookupVar(Symbol Name) const {
    for (size_t I = Scope.size(); I-- > 0;)
      if (Scope[I].first == Name)
        return &Scope[I].second;
    return nullptr;
  }

  /// Checked mode: reservation-check the value in \p R.
  void emitChkVal(uint16_t R, CheckWhat What) {
    if (Opts.EmitChecks)
      emit(Op::ChkVal, R, 0, static_cast<uint16_t>(What));
    else
      ++Out.ChecksErased;
  }

  //===--------------------------------------------------------------------===
  // Expression lowering (value lands in Dst)
  //===--------------------------------------------------------------------===

  bool compileExpr(const Expr *E, uint16_t Dst) {
    if (Failed)
      return false;
    switch (E->kind()) {
    case ExprKind::IntLit:
      emit(Op::LoadConst, Dst, 0, 0,
           constIndex(Value::intVal(cast<IntLitExpr>(*E).Value)));
      return true;
    case ExprKind::BoolLit:
      emit(Op::LoadBool, Dst, cast<BoolLitExpr>(*E).Value ? 1 : 0);
      return true;
    case ExprKind::UnitLit:
      emit(Op::LoadUnit, Dst);
      return true;
    case ExprKind::NoneLit:
      emit(Op::LoadNone, Dst);
      return true;
    case ExprKind::VarRef: {
      const auto &Var = cast<VarRefExpr>(*E);
      const uint16_t *R = lookupVar(Var.Name);
      if (!R)
        return fail("unbound variable at compile time (checker bug)");
      // E2: the read value must be in the reservation.
      emitChkVal(*R, CheckWhat::VarRead);
      if (*R != Dst)
        emit(Op::Move, Dst, *R);
      return true;
    }
    case ExprKind::FieldRef: {
      const auto &Ref = cast<FieldRefExpr>(*E);
      uint16_t Mark = NextReg;
      uint16_t Base = allocReg();
      if (!compileExpr(Ref.Base.get(), Base))
        return false;
      // The checked flavor folds both E5a checks (base membership,
      // result membership) into the op; erased omits them entirely.
      if (!Opts.EmitChecks)
        Out.ChecksErased += 2;
      emit(Opts.EmitChecks ? Op::GetFieldChk : Op::GetField, Dst, Base,
           icSlot(), static_cast<int32_t>(Ref.Field.Id));
      freeTo(Mark);
      return true;
    }
    case ExprKind::AssignVar: {
      const auto &A = cast<AssignVarExpr>(*E);
      const uint16_t *R = lookupVar(A.Name);
      if (!R)
        return fail("unbound variable at compile time (checker bug)");
      uint16_t VarReg = *R;
      uint16_t Mark = NextReg;
      uint16_t Tmp = allocReg();
      if (!compileExpr(A.Value.get(), Tmp))
        return false;
      // E8: the assigned value must be in the reservation.
      emitChkVal(Tmp, CheckWhat::VarWrite);
      emit(Op::Move, VarReg, Tmp);
      freeTo(Mark);
      emit(Op::LoadUnit, Dst);
      return true;
    }
    case ExprKind::AssignField: {
      const auto &A = cast<AssignFieldExpr>(*E);
      uint16_t Mark = NextReg;
      uint16_t Base = allocReg();
      if (!compileExpr(A.Base.get(), Base))
        return false;
      // The base is checked before the value expression evaluates;
      // ChkWriteBase preserves that order.
      if (Opts.EmitChecks)
        emit(Op::ChkWriteBase, Base);
      else
        ++Out.ChecksErased;
      uint16_t Val = allocReg();
      if (!compileExpr(A.Value.get(), Val))
        return false;
      // E7a: the written value must be in the reservation.
      emitChkVal(Val, CheckWhat::FieldWrite);
      emit(Op::SetField, Base, Val, icSlot(),
           static_cast<int32_t>(A.Field.Id));
      freeTo(Mark);
      emit(Op::LoadUnit, Dst);
      return true;
    }
    case ExprKind::Let: {
      const auto &L = cast<LetExpr>(*E);
      uint16_t Mark = NextReg;
      uint16_t R = allocReg();
      if (!compileExpr(L.Init.get(), R)) // binding not yet visible
        return false;
      Scope.emplace_back(L.Name, R);
      bool Ok = compileExpr(L.Body.get(), Dst);
      Scope.pop_back();
      freeTo(Mark);
      return Ok;
    }
    case ExprKind::LetSome: {
      const auto &L = cast<LetSomeExpr>(*E);
      uint16_t Mark = NextReg;
      uint16_t R = allocReg();
      if (!compileExpr(L.Scrutinee.get(), R))
        return false;
      size_t JNone = emit(Op::JumpIfNone, R);
      Scope.emplace_back(L.Name, R);
      bool Ok = compileExpr(L.SomeBody.get(), Dst);
      Scope.pop_back();
      if (!Ok)
        return false;
      size_t JEnd = emit(Op::Jump);
      patchToHere(JNone);
      if (!compileExpr(L.NoneBody.get(), Dst))
        return false;
      patchToHere(JEnd);
      freeTo(Mark);
      return true;
    }
    case ExprKind::If: {
      const auto &I = cast<IfExpr>(*E);
      uint16_t Mark = NextReg;
      uint16_t Cond = allocReg();
      if (!compileExpr(I.Cond.get(), Cond))
        return false;
      size_t JFalse = emit(Op::JumpIfFalse, Cond, 0,
                           static_cast<uint16_t>(CheckWhat::IfCond));
      freeTo(Mark);
      if (!I.Else) {
        // Statement form: the then-result is discarded, both paths
        // produce unit.
        if (!compileExpr(I.Then.get(), Dst))
          return false;
        patchToHere(JFalse);
        emit(Op::LoadUnit, Dst);
        return true;
      }
      if (!compileExpr(I.Then.get(), Dst))
        return false;
      size_t JEnd = emit(Op::Jump);
      patchToHere(JFalse);
      if (!compileExpr(I.Else.get(), Dst))
        return false;
      patchToHere(JEnd);
      return true;
    }
    case ExprKind::IfDisconnected:
      return compileIfDisconnected(cast<IfDisconnectedExpr>(*E), Dst);
    case ExprKind::While: {
      const auto &W = cast<WhileExpr>(*E);
      size_t Head = here();
      uint16_t Mark = NextReg;
      uint16_t Cond = allocReg();
      if (!compileExpr(W.Cond.get(), Cond))
        return false;
      size_t JExit = emit(Op::JumpIfFalse, Cond, 0,
                          static_cast<uint16_t>(CheckWhat::WhileCond));
      freeTo(Mark);
      if (!compileExpr(W.Body.get(), Dst)) // body result discarded
        return false;
      emit(Op::Jump, 0, 0, 0, static_cast<int32_t>(Head));
      patchToHere(JExit);
      emit(Op::LoadUnit, Dst);
      return true;
    }
    case ExprKind::Seq: {
      const auto &Sq = cast<SeqExpr>(*E);
      assert(!Sq.Elems.empty() && "parser guarantees nonempty blocks");
      for (const ExprPtr &Elem : Sq.Elems) // intermediates overwritten
        if (!compileExpr(Elem.get(), Dst))
          return false;
      return true;
    }
    case ExprKind::New: {
      const auto &N = cast<NewExpr>(*E);
      if (N.Args.empty()) {
        emit(Op::NewDefault, Dst, 0, 0,
             static_cast<int32_t>(N.StructName.Id));
        return true;
      }
      const StructInfo *SI = Checked.Structs.lookup(N.StructName);
      if (!SI)
        return fail("new of unknown struct at compile time (checker bug)");
      // Full form (one argument per field) or required form — the arity
      // is static, so the field table is resolved here, not per
      // execution.
      NewInitInfo Info;
      Info.Struct = N.StructName;
      Info.Checked = Opts.EmitChecks;
      if (N.Args.size() == SI->Fields.size()) {
        for (uint32_t FI = 0; FI < SI->Fields.size(); ++FI)
          Info.ArgFields.push_back(FI);
      } else {
        Info.ArgFields = SI->requiredFieldIndices();
      }
      if (Info.ArgFields.size() != N.Args.size())
        return fail("new-arity mismatch at compile time (checker bug)");
      if (!Opts.EmitChecks)
        Out.ChecksErased += N.Args.size();
      uint16_t Mark = NextReg;
      uint16_t ArgBase = NextReg;
      for (const ExprPtr &Arg : N.Args) {
        uint16_t R = allocReg();
        uint16_t Tail = NextReg;
        if (!compileExpr(Arg.get(), R))
          return false;
        freeTo(Tail); // keep earlier args live, drop this arg's temps
      }
      Out.NewTables.push_back(std::move(Info));
      emit(Op::NewInit, Dst, ArgBase, 0,
           static_cast<int32_t>(Out.NewTables.size() - 1));
      freeTo(Mark);
      return true;
    }
    case ExprKind::SomeExpr:
      // some(v) is represented by v itself.
      return compileExpr(cast<SomeExpr>(*E).Operand.get(), Dst);
    case ExprKind::IsNone: {
      if (!compileExpr(cast<IsNoneExpr>(*E).Operand.get(), Dst))
        return false;
      emit(Op::IsNone, Dst, Dst);
      return true;
    }
    case ExprKind::Send: {
      const auto &S = cast<SendExpr>(*E);
      uint16_t Mark = NextReg;
      uint16_t Val = allocReg();
      if (!compileExpr(S.Operand.get(), Val))
        return false;
      // τ statically recorded by the checker; -1 = derive from the
      // runtime value (unchecked programs).
      int32_t TyIdx = -1;
      auto It = Checked.SendTypes.find(E);
      if (It != Checked.SendTypes.end() && It->second.isValid())
        TyIdx = typeIndex(It->second);
      emit(Op::Send, Dst, Val, 0, TyIdx);
      freeTo(Mark);
      return true;
    }
    case ExprKind::Recv: {
      const auto &R = cast<RecvExpr>(*E);
      emit(Op::Recv, Dst, 0, 0, typeIndex(R.ValueType));
      return true;
    }
    case ExprKind::Call: {
      const auto &C = cast<CallExpr>(*E);
      auto It = Out.ByName.find(C.Callee);
      if (It == Out.ByName.end())
        return fail("call to unknown function at compile time "
                    "(checker bug)");
      uint16_t Mark = NextReg;
      uint16_t ArgBase = NextReg;
      for (const ExprPtr &Arg : C.Args) {
        uint16_t R = allocReg();
        uint16_t Tail = NextReg;
        if (!compileExpr(Arg.get(), R))
          return false;
        freeTo(Tail);
      }
      emit(Op::Call, Dst, ArgBase,
           static_cast<uint16_t>(C.Args.size()),
           static_cast<int32_t>(It->second));
      freeTo(Mark);
      return true;
    }
    case ExprKind::Binary: {
      const auto &B = cast<BinaryExpr>(*E);
      if (B.Op == BinaryOp::And || B.Op == BinaryOp::Or) {
        // Short-circuit: lhs lands in Dst and is the result when the
        // jump fires; the rhs is not bool-checked.
        if (!compileExpr(B.Lhs.get(), Dst))
          return false;
        size_t J = emit(B.Op == BinaryOp::And ? Op::JumpIfFalse
                                              : Op::JumpIfTrue,
                        Dst, 0,
                        static_cast<uint16_t>(CheckWhat::LogicalOp));
        if (!compileExpr(B.Rhs.get(), Dst))
          return false;
        patchToHere(J);
        return true;
      }
      uint16_t Mark = NextReg;
      uint16_t L = allocReg();
      if (!compileExpr(B.Lhs.get(), L))
        return false;
      uint16_t R = allocReg();
      if (!compileExpr(B.Rhs.get(), R))
        return false;
      Op O;
      switch (B.Op) {
      case BinaryOp::Add: O = Op::Add; break;
      case BinaryOp::Sub: O = Op::Sub; break;
      case BinaryOp::Mul: O = Op::Mul; break;
      case BinaryOp::Div: O = Op::Div; break;
      case BinaryOp::Mod: O = Op::Mod; break;
      case BinaryOp::Lt:  O = Op::Lt;  break;
      case BinaryOp::Le:  O = Op::Le;  break;
      case BinaryOp::Gt:  O = Op::Gt;  break;
      case BinaryOp::Ge:  O = Op::Ge;  break;
      case BinaryOp::Eq:  O = Op::Eq;  break;
      case BinaryOp::Ne:  O = Op::Ne;  break;
      default:
        return fail("internal: unhandled binary operator");
      }
      emit(O, Dst, L, R);
      freeTo(Mark);
      return true;
    }
    case ExprKind::Unary: {
      const auto &U = cast<UnaryExpr>(*E);
      if (!compileExpr(U.Operand.get(), Dst))
        return false;
      emit(U.Op == UnaryOp::Not ? Op::Not : Op::Neg, Dst, Dst);
      return true;
    }
    }
    return fail("internal: unhandled expression kind");
  }

  bool compileIfDisconnected(const IfDisconnectedExpr &E, uint16_t Dst) {
    const uint16_t *A = lookupVar(E.VarA);
    const uint16_t *B = lookupVar(E.VarB);
    if (!A || !B)
      return fail("unbound 'if disconnected' argument at compile time "
                  "(checker bug)");
    uint16_t Flags = Opts.EmitChecks ? DisconnCheckReservation : 0;
    if (!Opts.EmitChecks)
      Out.ChecksErased += 2; // the two argument membership checks

    SiteDecision Site;
    Site.Function = Ch.FnName;
    Site.Loc = E.loc();
    if (Opts.ElideDisconnect && Opts.Verdicts) {
      auto It = Opts.Verdicts->find(&E);
      if (It != Opts.Verdicts->end())
        Site.Verdict = It->second;
    }
    if (Site.Verdict != DisconnectVerdict::Unknown) {
      // Constant branch: the traversal is gone and the dead branch is
      // not even emitted. DisconnElided keeps the site's counters,
      // fault point, and optional cross-check alive.
      bool Taken = Site.Verdict == DisconnectVerdict::MustDisconnected;
      if (Taken)
        Flags |= DisconnFoldedTaken;
      if (Opts.CrossCheckElision)
        Flags |= DisconnCrossCheck;
      emit(Op::DisconnElided, *A, *B, Flags);
      ++Out.ChecksErased; // the folded traversal
      Site.Taken = Taken ? SiteDecision::Action::FoldedThen
                         : SiteDecision::Action::FoldedElse;
      Out.Sites.push_back(Site);
      return compileExpr(Taken ? E.Then.get() : E.Else.get(), Dst);
    }

    Out.Sites.push_back(Site);
    size_t D = emit(Op::Disconn, *A, *B, Flags);
    if (!compileExpr(E.Then.get(), Dst))
      return false;
    size_t JEnd = emit(Op::Jump);
    patchToHere(D);
    if (!compileExpr(E.Else.get(), Dst))
      return false;
    patchToHere(JEnd);
    return true;
  }

  const CheckedProgram &Checked;
  const CompileOptions &Opts;
  CompiledProgram &Out;
  Chunk &Ch;

  uint16_t NextReg = 0;
  uint16_t MaxRegs = 0;
  std::vector<std::pair<Symbol, uint16_t>> Scope;
  bool Failed = false;
  std::string Err;
};

} // namespace

Expected<CompiledProgram> vm::compileProgram(const CheckedProgram &Checked,
                                             const CompileOptions &Opts) {
  CompiledProgram Out;
  Out.Checked = Opts.EmitChecks;

  // Pre-pass: assign chunk indices so calls resolve to direct indices
  // regardless of declaration order.
  for (const FnDecl &Fn : Checked.Prog->Functions) {
    uint32_t Idx = static_cast<uint32_t>(Out.Chunks.size());
    Out.Chunks.emplace_back();
    Out.Chunks.back().FnName = Fn.Name;
    Out.ByName[Fn.Name] = Idx;
  }

  for (size_t I = 0; I < Checked.Prog->Functions.size(); ++I) {
    const FnDecl &Fn = Checked.Prog->Functions[I];
    FnCompiler FC(Checked, Opts, Out, Out.Chunks[I]);
    if (!FC.compileFn(Fn))
      return fail("vm compile of '" +
                  Checked.Prog->Names.spelling(Fn.Name) +
                  "' failed: " + FC.error());
  }
  return Out;
}

const char *vm::toString(Op O) {
  switch (O) {
  case Op::LoadConst:     return "load_const";
  case Op::LoadUnit:      return "load_unit";
  case Op::LoadNone:      return "load_none";
  case Op::LoadBool:      return "load_bool";
  case Op::Move:          return "move";
  case Op::ChkVal:        return "chk_val";
  case Op::ChkWriteBase:  return "chk_write_base";
  case Op::GetField:      return "get_field";
  case Op::GetFieldChk:   return "get_field.chk";
  case Op::SetField:      return "set_field";
  case Op::NewDefault:    return "new_default";
  case Op::NewInit:       return "new_init";
  case Op::IsNone:        return "is_none";
  case Op::Not:           return "not";
  case Op::Neg:           return "neg";
  case Op::Add:           return "add";
  case Op::Sub:           return "sub";
  case Op::Mul:           return "mul";
  case Op::Div:           return "div";
  case Op::Mod:           return "mod";
  case Op::Lt:            return "lt";
  case Op::Le:            return "le";
  case Op::Gt:            return "gt";
  case Op::Ge:            return "ge";
  case Op::Eq:            return "eq";
  case Op::Ne:            return "ne";
  case Op::Jump:          return "jump";
  case Op::JumpIfFalse:   return "jump_if_false";
  case Op::JumpIfTrue:    return "jump_if_true";
  case Op::JumpIfNone:    return "jump_if_none";
  case Op::Call:          return "call";
  case Op::Ret:           return "ret";
  case Op::Send:          return "send";
  case Op::Recv:          return "recv";
  case Op::Disconn:       return "disconn";
  case Op::DisconnElided: return "disconn.elided";
  }
  return "?";
}

std::string vm::disassemble(const CompiledProgram &P,
                            const CheckedProgram &Checked) {
  const Interner &Names = Checked.Prog->Names;
  std::string Out;
  auto Line = [&Out](const std::string &S) {
    Out += S;
    Out += '\n';
  };

  Line(std::string("; mode: ") + (P.Checked ? "checked" : "erased") +
       ", checks erased: " + std::to_string(P.ChecksErased) +
       ", ic slots: " + std::to_string(P.NumIcSlots));
  for (const Chunk &Ch : P.Chunks) {
    Line("");
    Line("chunk " + Names.spelling(Ch.FnName) + " (params " +
         std::to_string(Ch.NumParams) + ", regs " +
         std::to_string(Ch.NumRegs) + ")");
    if (!Ch.Constants.empty()) {
      std::string Pool = "  constants:";
      for (size_t I = 0; I < Ch.Constants.size(); ++I)
        Pool += " [" + std::to_string(I) + "]=" +
                fearless::toString(Ch.Constants[I]);
      Line(Pool);
    }
    for (size_t I = 0; I < Ch.Code.size(); ++I) {
      const Instr &In = Ch.Code[I];
      std::string L = "  " + std::to_string(I) + ": " +
                      std::string(toString(In.Opcode));
      switch (In.Opcode) {
      case Op::LoadConst:
        L += " r" + std::to_string(In.A) + ", const[" +
             std::to_string(In.Imm) + "]";
        break;
      case Op::LoadBool:
        L += " r" + std::to_string(In.A) + ", " +
             (In.B ? "true" : "false");
        break;
      case Op::GetField:
      case Op::GetFieldChk:
        L += " r" + std::to_string(In.A) + ", r" + std::to_string(In.B) +
             "." +
             Names.spelling(Symbol{static_cast<uint32_t>(In.Imm)}) +
             " ; ic" + std::to_string(In.C);
        break;
      case Op::SetField:
        L += " r" + std::to_string(In.A) + "." +
             Names.spelling(Symbol{static_cast<uint32_t>(In.Imm)}) +
             ", r" + std::to_string(In.B) + " ; ic" +
             std::to_string(In.C);
        break;
      case Op::NewDefault:
        L += " r" + std::to_string(In.A) + ", " +
             Names.spelling(Symbol{static_cast<uint32_t>(In.Imm)});
        break;
      case Op::NewInit: {
        const NewInitInfo &Info = P.NewTables[In.Imm];
        L += " r" + std::to_string(In.A) + ", " +
             Names.spelling(Info.Struct) + "(r" + std::to_string(In.B) +
             "..+" + std::to_string(Info.ArgFields.size()) + ")";
        break;
      }
      case Op::Jump:
        L += " -> " + std::to_string(In.Imm);
        break;
      case Op::JumpIfFalse:
      case Op::JumpIfTrue:
      case Op::JumpIfNone:
        L += " r" + std::to_string(In.A) + " -> " +
             std::to_string(In.Imm);
        break;
      case Op::Call:
        L += " r" + std::to_string(In.A) + ", " +
             Names.spelling(P.Chunks[In.Imm].FnName) + "(r" +
             std::to_string(In.B) + "..+" + std::to_string(In.C) + ")";
        break;
      case Op::Send:
        L += " r" + std::to_string(In.A) + ", r" + std::to_string(In.B) +
             (In.Imm >= 0
                  ? " : " + fearless::toString(P.TypePool[In.Imm], Names)
                  : std::string(" : <derived>"));
        break;
      case Op::Recv:
        L += " r" + std::to_string(In.A) + " : " +
             fearless::toString(P.TypePool[In.Imm], Names);
        break;
      case Op::Disconn:
        L += " r" + std::to_string(In.A) + ", r" + std::to_string(In.B) +
             " else -> " + std::to_string(In.Imm);
        break;
      case Op::DisconnElided:
        L += " r" + std::to_string(In.A) + ", r" + std::to_string(In.B) +
             ((In.C & DisconnFoldedTaken) ? " ; folded: then"
                                          : " ; folded: else");
        break;
      case Op::Move:
      case Op::IsNone:
      case Op::Not:
      case Op::Neg:
        L += " r" + std::to_string(In.A) + ", r" + std::to_string(In.B);
        break;
      case Op::Add:
      case Op::Sub:
      case Op::Mul:
      case Op::Div:
      case Op::Mod:
      case Op::Lt:
      case Op::Le:
      case Op::Gt:
      case Op::Ge:
      case Op::Eq:
      case Op::Ne:
        L += " r" + std::to_string(In.A) + ", r" + std::to_string(In.B) +
             ", r" + std::to_string(In.C);
        break;
      default:
        L += " r" + std::to_string(In.A);
        break;
      }
      Line(L);
    }
  }

  Line("");
  if (P.Sites.empty()) {
    Line("; no 'if disconnected' sites");
  } else {
    Line("; 'if disconnected' sites (verdict -> codegen):");
    for (const SiteDecision &S : P.Sites) {
      const char *Action =
          S.Taken == SiteDecision::Action::Dynamic      ? "dynamic check"
          : S.Taken == SiteDecision::Action::FoldedThen ? "folded to then"
                                                        : "folded to else";
      Line(";   " + Names.spelling(S.Function) + " @ " +
           fearless::toString(S.Loc) + ": " +
           std::string(fearless::toString(S.Verdict)) + " -> " + Action);
    }
  }
  return Out;
}
