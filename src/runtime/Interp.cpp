//===- runtime/Interp.cpp -------------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "runtime/Interp.h"

#include "runtime/StepOps.h"
#include "vm/Vm.h"

#include <cassert>

using namespace fearless;

namespace {

/// One step's worth of work over a thread configuration.
class Stepper {
public:
  Stepper(ThreadState &T, const InterpServices &S) : T(T), S(S) {}

  StepOutcome step() {
    ++S.Stats->Steps;
    // Tracing: a per-thread progress tick every 4096 steps. Per-step
    // events would dominate the trace (and the run); the tick keeps each
    // language thread's interpreter progress visible in Perfetto at
    // ~0.02% of the event rate.
    if (T.Trace && (++T.TraceSteps & 4095) == 0)
      T.Trace->instant("interp.steps", "interp", "steps", T.TraceSteps);
    if (T.HasValue)
      return applyFrame();
    return evalExpr();
  }

private:
  //===--------------------------------------------------------------------===
  // Helpers
  //===--------------------------------------------------------------------===

  StepOutcome stuck(std::string Why) {
    return failThread(T, std::move(Why));
  }

  /// Checks a value about to flow from a variable or field (E2/E5a).
  StepOutcome checkValue(const Value &V, const char *What) {
    if (V.isLoc() && !inReservation(T, S, V.asLoc()))
      return valueViolation(T, V, What);
    return StepOutcome::Progress;
  }

  std::pair<Symbol, Value> *findSlot(Symbol Name) {
    size_t Base = T.FrameBases.back();
    for (size_t I = T.Env.size(); I-- > Base;)
      if (T.Env[I].first == Name)
        return &T.Env[I];
    return nullptr;
  }

  void produce(Value V) {
    T.HasValue = true;
    T.ControlValue = V;
    T.ControlExpr = nullptr;
  }

  void evaluate(const Expr *E) {
    T.HasValue = false;
    T.ControlExpr = E;
  }

  const FieldInfo *fieldOf(Loc Base, Symbol Field) {
    const Object &O = S.TheHeap->get(Base);
    return O.Struct->findField(Field);
  }

  //===--------------------------------------------------------------------===
  // Expression dispatch
  //===--------------------------------------------------------------------===

  StepOutcome evalExpr() {
    const Expr &E = *T.ControlExpr;
    switch (E.kind()) {
    case ExprKind::IntLit:
      produce(Value::intVal(cast<IntLitExpr>(E).Value));
      return StepOutcome::Progress;
    case ExprKind::BoolLit:
      produce(Value::boolVal(cast<BoolLitExpr>(E).Value));
      return StepOutcome::Progress;
    case ExprKind::UnitLit:
      produce(Value::unitVal());
      return StepOutcome::Progress;
    case ExprKind::NoneLit:
      produce(Value::noneVal());
      return StepOutcome::Progress;
    case ExprKind::VarRef: {
      const auto &Var = cast<VarRefExpr>(E);
      const auto *Slot = findSlot(Var.Name);
      if (!Slot)
        return stuck("unbound variable at runtime (checker bug)");
      // E2 Variable-Ref-Step: the read value must be in the reservation.
      if (StepOutcome R = checkValue(Slot->second, "variable read");
          R != StepOutcome::Progress)
        return R;
      produce(Slot->second);
      return StepOutcome::Progress;
    }
    case ExprKind::FieldRef: {
      const auto &Ref = cast<FieldRefExpr>(E);
      T.Konts.push_back(frames::FieldRead{Ref.Field});
      evaluate(Ref.Base.get());
      return StepOutcome::Progress;
    }
    case ExprKind::AssignVar: {
      const auto &A = cast<AssignVarExpr>(E);
      T.Konts.push_back(frames::AssignVar{A.Name});
      evaluate(A.Value.get());
      return StepOutcome::Progress;
    }
    case ExprKind::AssignField: {
      const auto &A = cast<AssignFieldExpr>(E);
      T.Konts.push_back(frames::FieldWriteBase{A.Value.get(), A.Field});
      evaluate(A.Base.get());
      return StepOutcome::Progress;
    }
    case ExprKind::Let: {
      const auto &L = cast<LetExpr>(E);
      T.Konts.push_back(frames::LetBody{L.Name, L.Body.get()});
      evaluate(L.Init.get());
      return StepOutcome::Progress;
    }
    case ExprKind::LetSome: {
      const auto &L = cast<LetSomeExpr>(E);
      T.Konts.push_back(frames::LetSome{&L});
      evaluate(L.Scrutinee.get());
      return StepOutcome::Progress;
    }
    case ExprKind::If: {
      const auto &I = cast<IfExpr>(E);
      T.Konts.push_back(frames::IfCond{I.Then.get(), I.Else.get()});
      evaluate(I.Cond.get());
      return StepOutcome::Progress;
    }
    case ExprKind::IfDisconnected:
      return evalIfDisconnected(cast<IfDisconnectedExpr>(E));
    case ExprKind::While: {
      const auto &W = cast<WhileExpr>(E);
      T.Konts.push_back(frames::WhileCond{&W});
      evaluate(W.Cond.get());
      return StepOutcome::Progress;
    }
    case ExprKind::Seq: {
      const auto &Sq = cast<SeqExpr>(E);
      assert(!Sq.Elems.empty() && "parser guarantees nonempty blocks");
      if (Sq.Elems.size() > 1)
        T.Konts.push_back(frames::Seq{&Sq, 1});
      evaluate(Sq.Elems.front().get());
      return StepOutcome::Progress;
    }
    case ExprKind::New: {
      const auto &N = cast<NewExpr>(E);
      if (N.Args.empty()) {
        Loc L = allocateObject(T, S, N.StructName);
        if (!L.isValid())
          return heapExhausted(T, S);
        produce(Value::locVal(L));
        return StepOutcome::Progress;
      }
      T.Konts.push_back(frames::NewArgs{&N, {}});
      evaluate(N.Args.front().get());
      return StepOutcome::Progress;
    }
    case ExprKind::SomeExpr:
      // some(v) is represented by v itself.
      evaluate(cast<SomeExpr>(E).Operand.get());
      return StepOutcome::Progress;
    case ExprKind::IsNone: {
      T.Konts.push_back(frames::IsNone{});
      evaluate(cast<IsNoneExpr>(E).Operand.get());
      return StepOutcome::Progress;
    }
    case ExprKind::Send: {
      const auto &Send = cast<SendExpr>(E);
      T.Konts.push_back(frames::Send{&Send});
      evaluate(Send.Operand.get());
      return StepOutcome::Progress;
    }
    case ExprKind::Recv:
      return blockRecv(T, S, cast<RecvExpr>(E).ValueType);
    case ExprKind::Call: {
      const auto &C = cast<CallExpr>(E);
      if (C.Args.empty())
        return enterFunction(C, {});
      T.Konts.push_back(frames::CallArgs{&C, {}});
      evaluate(C.Args.front().get());
      return StepOutcome::Progress;
    }
    case ExprKind::Binary: {
      const auto &B = cast<BinaryExpr>(E);
      T.Konts.push_back(frames::BinL{&B});
      evaluate(B.Lhs.get());
      return StepOutcome::Progress;
    }
    case ExprKind::Unary: {
      const auto &U = cast<UnaryExpr>(E);
      T.Konts.push_back(frames::Un{&U});
      evaluate(U.Operand.get());
      return StepOutcome::Progress;
    }
    }
    return stuck("internal: unhandled expression kind");
  }

  StepOutcome evalIfDisconnected(const IfDisconnectedExpr &E) {
    const auto *SlotA = findSlot(E.VarA);
    const auto *SlotB = findSlot(E.VarB);
    if (!SlotA || !SlotB)
      return stuck("unbound 'if disconnected' argument (checker bug)");
    DisconnectVerdict Verdict = DisconnectVerdict::Unknown;
    if (S.ElideDisconnect && S.StaticVerdicts) {
      auto It = S.StaticVerdicts->find(&E);
      if (It != S.StaticVerdicts->end())
        Verdict = It->second;
    }
    bool Taken = false;
    if (StepOutcome R = ifDisconnected(T, S, SlotA->second, SlotB->second,
                                       /*CheckReservation=*/true, Verdict,
                                       S.CrossCheckElision, Taken);
        R != StepOutcome::Progress)
      return R;
    evaluate(Taken ? E.Then.get() : E.Else.get());
    return StepOutcome::Progress;
  }

  StepOutcome enterFunction(const CallExpr &C, std::vector<Value> Args) {
    const FnDecl *Callee = S.Prog->findFunction(C.Callee);
    if (!Callee)
      return stuck("call to unknown function at runtime (checker bug)");
    assert(Args.size() == Callee->Params.size() && "arity checked");
    T.Konts.push_back(frames::Return{T.Env.size(), T.FrameBases.size()});
    T.FrameBases.push_back(T.Env.size());
    for (size_t I = 0; I < Args.size(); ++I)
      T.Env.emplace_back(Callee->Params[I].Name, Args[I]);
    evaluate(Callee->Body.get());
    return StepOutcome::Progress;
  }

  //===--------------------------------------------------------------------===
  // Frame application
  //===--------------------------------------------------------------------===

  StepOutcome applyFrame() {
    if (T.Konts.empty()) {
      T.Result = T.ControlValue;
      T.Status = ThreadStatus::Finished;
      return StepOutcome::Finished;
    }
    Frame F = std::move(T.Konts.back());
    T.Konts.pop_back();
    Value V = T.ControlValue;

    if (auto *Let = std::get_if<frames::LetBody>(&F)) {
      T.Env.emplace_back(Let->Name, V);
      T.Konts.push_back(frames::PopVar{Let->Name});
      evaluate(Let->Body);
      return StepOutcome::Progress;
    }
    if (auto *Pop = std::get_if<frames::PopVar>(&F)) {
      assert(!T.Env.empty() && T.Env.back().first == Pop->Name &&
             "scope discipline violated");
      (void)Pop;
      T.Env.pop_back();
      produce(V);
      return StepOutcome::Progress;
    }
    if (auto *Assign = std::get_if<frames::AssignVar>(&F)) {
      auto *Slot = findSlot(Assign->Name);
      if (!Slot)
        return stuck("unbound variable in assignment (checker bug)");
      // E8 Assign-Var-Step: the assigned value must be in the reservation.
      if (StepOutcome R = checkValue(V, "variable write");
          R != StepOutcome::Progress)
        return R;
      Slot->second = V;
      produce(Value::unitVal());
      return StepOutcome::Progress;
    }
    if (auto *Read = std::get_if<frames::FieldRead>(&F)) {
      if (!V.isLoc())
        return stuck("field read on a non-object value");
      Loc Base = V.asLoc();
      if (!inReservation(T, S, Base))
        return baseViolation(T, V, "field read");
      const FieldInfo *Field = fieldOf(Base, Read->Field);
      if (!Field)
        return stuck("no such field at runtime (checker bug)");
      Value Out = S.TheHeap->getField(Base, Field->Index);
      // E5a: the read result must be within the reservation.
      if (StepOutcome R = checkValue(Out, "field read");
          R != StepOutcome::Progress)
        return R;
      produce(Out);
      return StepOutcome::Progress;
    }
    if (auto *WriteBase = std::get_if<frames::FieldWriteBase>(&F)) {
      if (!V.isLoc())
        return stuck("field write on a non-object value");
      Loc Base = V.asLoc();
      if (!inReservation(T, S, Base))
        return baseViolation(T, V, "field write");
      T.Konts.push_back(frames::FieldWriteVal{Base, WriteBase->Field});
      evaluate(WriteBase->ValueExpr);
      return StepOutcome::Progress;
    }
    if (auto *Write = std::get_if<frames::FieldWriteVal>(&F)) {
      // E7a: the written value must be in the reservation.
      if (StepOutcome R = checkValue(V, "field write");
          R != StepOutcome::Progress)
        return R;
      const FieldInfo *Field = fieldOf(Write->Base, Write->Field);
      if (!Field)
        return stuck("no such field at runtime (checker bug)");
      S.TheHeap->setField(Write->Base, Field->Index, V);
      produce(Value::unitVal());
      return StepOutcome::Progress;
    }
    if (auto *Sq = std::get_if<frames::Seq>(&F)) {
      // Intermediate values are discarded.
      if (Sq->Next + 1 < Sq->S->Elems.size())
        T.Konts.push_back(frames::Seq{Sq->S, Sq->Next + 1});
      evaluate(Sq->S->Elems[Sq->Next].get());
      return StepOutcome::Progress;
    }
    if (auto *If = std::get_if<frames::IfCond>(&F)) {
      if (V.kind() != Value::Kind::Bool)
        return stuck("if condition is not a bool");
      if (V.asBool()) {
        if (!If->Else)
          T.Konts.push_back(frames::DiscardToUnit{});
        evaluate(If->Then);
        return StepOutcome::Progress;
      }
      if (If->Else) {
        evaluate(If->Else);
        return StepOutcome::Progress;
      }
      produce(Value::unitVal());
      return StepOutcome::Progress;
    }
    if (std::get_if<frames::DiscardToUnit>(&F)) {
      produce(Value::unitVal());
      return StepOutcome::Progress;
    }
    if (auto *Cond = std::get_if<frames::WhileCond>(&F)) {
      if (V.kind() != Value::Kind::Bool)
        return stuck("while condition is not a bool");
      if (!V.asBool()) {
        produce(Value::unitVal());
        return StepOutcome::Progress;
      }
      T.Konts.push_back(frames::WhileBody{Cond->W});
      evaluate(Cond->W->Body.get());
      return StepOutcome::Progress;
    }
    if (auto *Body = std::get_if<frames::WhileBody>(&F)) {
      T.Konts.push_back(frames::WhileCond{Body->W});
      evaluate(Body->W->Cond.get());
      return StepOutcome::Progress;
    }
    if (auto *Call = std::get_if<frames::CallArgs>(&F)) {
      frames::CallArgs Args = std::move(*Call);
      Args.Done.push_back(V);
      if (Args.Done.size() < Args.C->Args.size()) {
        size_t Next = Args.Done.size();
        const CallExpr *C = Args.C;
        T.Konts.push_back(std::move(Args));
        evaluate(C->Args[Next].get());
        return StepOutcome::Progress;
      }
      return enterFunction(*Args.C, std::move(Args.Done));
    }
    if (auto *Ret = std::get_if<frames::Return>(&F)) {
      T.Env.resize(Ret->EnvMark);
      T.FrameBases.resize(Ret->FrameBaseMark);
      produce(V);
      return StepOutcome::Progress;
    }
    if (std::get_if<frames::IsNone>(&F)) {
      produce(Value::boolVal(V.isNone()));
      return StepOutcome::Progress;
    }
    if (auto *SendF = std::get_if<frames::Send>(&F)) {
      // τ as the checker recorded it; blockSend derives it from the
      // runtime value for unchecked programs.
      Type Ty;
      if (S.SendTypes) {
        auto It = S.SendTypes->find(SendF->E);
        if (It != S.SendTypes->end())
          Ty = It->second;
      }
      return blockSend(T, S, V, Ty);
    }
    if (auto *LS = std::get_if<frames::LetSome>(&F)) {
      if (V.isNone()) {
        evaluate(LS->L->NoneBody.get());
        return StepOutcome::Progress;
      }
      T.Env.emplace_back(LS->L->Name, V);
      T.Konts.push_back(frames::PopVar{LS->L->Name});
      evaluate(LS->L->SomeBody.get());
      return StepOutcome::Progress;
    }
    if (auto *New = std::get_if<frames::NewArgs>(&F)) {
      frames::NewArgs Args = std::move(*New);
      Args.Done.push_back(V);
      if (Args.Done.size() < Args.N->Args.size()) {
        size_t Next = Args.Done.size();
        const NewExpr *N = Args.N;
        T.Konts.push_back(std::move(Args));
        evaluate(N->Args[Next].get());
        return StepOutcome::Progress;
      }
      Loc L = allocateObject(T, S, Args.N->StructName);
      if (!L.isValid())
        return heapExhausted(T, S);
      const Object &O = S.TheHeap->get(L);
      // Full form (one argument per field) or required form (one per
      // non-defaultable field).
      std::vector<uint32_t> ArgFields;
      if (Args.Done.size() == O.Struct->Fields.size()) {
        for (uint32_t FI = 0; FI < O.Struct->Fields.size(); ++FI)
          ArgFields.push_back(FI);
      } else {
        ArgFields = O.Struct->requiredFieldIndices();
      }
      assert(Args.Done.size() == ArgFields.size() && "new-arity checked");
      for (size_t I = 0; I < Args.Done.size(); ++I) {
        if (Args.Done[I].isLoc() &&
            !inReservation(T, S, Args.Done[I].asLoc()))
          return initializerViolation(T);
        S.TheHeap->setField(L, ArgFields[I], Args.Done[I]);
      }
      produce(Value::locVal(L));
      return StepOutcome::Progress;
    }
    if (auto *BinLhs = std::get_if<frames::BinL>(&F)) {
      const BinaryExpr *B = BinLhs->B;
      // Short-circuit logical operators.
      if (B->Op == BinaryOp::And || B->Op == BinaryOp::Or) {
        if (V.kind() != Value::Kind::Bool)
          return stuck("logical operator on a non-bool");
        if ((B->Op == BinaryOp::And && !V.asBool()) ||
            (B->Op == BinaryOp::Or && V.asBool())) {
          produce(V);
          return StepOutcome::Progress;
        }
        evaluate(B->Rhs.get());
        return StepOutcome::Progress;
      }
      T.Konts.push_back(frames::BinR{B, V});
      evaluate(B->Rhs.get());
      return StepOutcome::Progress;
    }
    if (auto *BinRhs = std::get_if<frames::BinR>(&F))
      return applyBinary(*BinRhs->B, BinRhs->Lhs, V);
    if (auto *Unary = std::get_if<frames::Un>(&F)) {
      if (Unary->U->Op == UnaryOp::Not) {
        if (V.kind() != Value::Kind::Bool)
          return stuck("'!' on a non-bool");
        produce(Value::boolVal(!V.asBool()));
        return StepOutcome::Progress;
      }
      if (V.kind() != Value::Kind::Int)
        return stuck("unary '-' on a non-int");
      produce(Value::intVal(-V.asInt()));
      return StepOutcome::Progress;
    }
    return stuck("internal: unhandled continuation frame");
  }

  StepOutcome applyBinary(const BinaryExpr &B, const Value &L,
                          const Value &R) {
    auto BothInt = [&] {
      return L.kind() == Value::Kind::Int && R.kind() == Value::Kind::Int;
    };
    switch (B.Op) {
    case BinaryOp::Add:
    case BinaryOp::Sub:
    case BinaryOp::Mul: {
      if (!BothInt())
        return stuck("arithmetic on non-ints");
      int64_t A = L.asInt(), C = R.asInt();
      int64_t Out = B.Op == BinaryOp::Add   ? A + C
                    : B.Op == BinaryOp::Sub ? A - C
                                            : A * C;
      produce(Value::intVal(Out));
      return StepOutcome::Progress;
    }
    case BinaryOp::Div:
    case BinaryOp::Mod: {
      if (!BothInt())
        return stuck("arithmetic on non-ints");
      if (R.asInt() == 0)
        return stuck("division by zero");
      produce(Value::intVal(B.Op == BinaryOp::Div
                                ? L.asInt() / R.asInt()
                                : L.asInt() % R.asInt()));
      return StepOutcome::Progress;
    }
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge: {
      if (!BothInt())
        return stuck("comparison on non-ints");
      bool Out = B.Op == BinaryOp::Lt   ? L.asInt() < R.asInt()
                 : B.Op == BinaryOp::Le ? L.asInt() <= R.asInt()
                 : B.Op == BinaryOp::Gt ? L.asInt() > R.asInt()
                                        : L.asInt() >= R.asInt();
      produce(Value::boolVal(Out));
      return StepOutcome::Progress;
    }
    case BinaryOp::Eq:
    case BinaryOp::Ne: {
      bool Equal = L == R;
      produce(Value::boolVal(B.Op == BinaryOp::Eq ? Equal : !Equal));
      return StepOutcome::Progress;
    }
    case BinaryOp::And:
    case BinaryOp::Or:
      return stuck("internal: short-circuit operator reached applyBinary");
    }
    return stuck("internal: unhandled binary operator");
  }

  ThreadState &T;
  const InterpServices &S;
};

} // namespace

StepOutcome fearless::stepThread(ThreadState &T,
                                 const InterpServices &Services) {
  assert(T.Status == ThreadStatus::Runnable && "stepping a blocked thread");
  // The step boundary is the trap frontier: a structured fault raised
  // anywhere inside the step (invalid heap/field access deep in the
  // heap, heap exhaustion, an injected fault) unwinds to here and fails
  // this one thread as a typed error. The executors then decide between
  // supervision restart, escalation, and diagnostic reporting — the
  // process never dies in release builds.
  try {
    if (Services.VmCode)
      return vm::stepThreadVm(T, Services);
    return Stepper(T, Services).step();
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
