//===- ast/Ast.h - Surface-language abstract syntax ------------*- C++ -*-===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The AST of the paper's core language (Fig. 6) plus the usable function
/// surface syntax of §4.9: struct declarations with `iso` fields, maybe
/// introduction/elimination, `if disconnected`, `send`/`recv`, and function
/// declarations with `consumes` / `pinned` / `after: a ~ b` annotations.
///
/// Nodes use an LLVM-style kind tag with classof; there is no RTTI. Every
/// node and every child list lives in its Program's AstArena: children
/// are plain pointers and spans into it, no node owns another, and every
/// node class is trivially destructible, so dropping a Program frees its
/// AST block by block without visiting a node.
///
//===----------------------------------------------------------------------===//

#ifndef FEARLESS_AST_AST_H
#define FEARLESS_AST_AST_H

#include "ast/Types.h"
#include "support/Diagnostics.h"
#include "support/Interner.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace fearless {

//===----------------------------------------------------------------------===//
// Storage
//===----------------------------------------------------------------------===//

/// Bump storage for one program's AST. Nodes and child spans are carved
/// out of blocks that live exactly as long as the arena and are freed
/// together. The first block is sized from the source length; later
/// blocks grow geometrically, so a cached program keeps little slack.
/// Move-only: moving keeps every node at its address.
class AstArena {
public:
  /// An arena whose first block suits a source of \p SourceBytes bytes;
  /// no block is allocated until the first node.
  explicit AstArena(size_t SourceBytes = 0);
  AstArena(AstArena &&Other) noexcept;
  AstArena &operator=(AstArena &&Other) noexcept;
  AstArena(const AstArena &) = delete;
  AstArena &operator=(const AstArena &) = delete;
  ~AstArena() { release(); }

  /// Constructs a T in the arena. T is never destroyed.
  template <typename T, typename... ArgTs> T *make(ArgTs &&...Args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena objects are freed without running a destructor");
    return new (allocate(sizeof(T), alignof(T)))
        T(std::forward<ArgTs>(Args)...);
  }

  /// Copies \p Elems into the arena.
  template <typename T> std::span<T> copy(std::span<const T> Elems) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (Elems.empty())
      return {};
    T *Out = static_cast<T *>(allocate(Elems.size_bytes(), alignof(T)));
    std::copy(Elems.begin(), Elems.end(), Out);
    return {Out, Elems.size()};
  }

  /// Bytes handed out, and bytes held in blocks.
  size_t bytesUsed() const { return Used; }
  size_t bytesReserved() const { return Reserved; }

private:
  struct Block {
    Block *Prev;
  };

  void *allocate(size_t Size, size_t Align) {
    size_t Pad = -reinterpret_cast<uintptr_t>(Cur) & (Align - 1);
    if (Pad + Size > static_cast<size_t>(End - Cur))
      return allocateInNewBlock(Size, Align);
    char *Out = Cur + Pad;
    Cur = Out + Size;
    Used += Size;
    return Out;
  }
  void *allocateInNewBlock(size_t Size, size_t Align);
  void release();

  Block *Last = nullptr;
  char *Cur = nullptr;
  char *End = nullptr;
  size_t NextBlockBytes;
  size_t Used = 0;
  size_t Reserved = 0;
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

class Expr;
/// A child link. The pointee lives in the Program's AstArena.
using ExprPtr = Expr *;
/// An ordered child list, allocated in the same arena.
using ExprList = std::span<Expr *>;

/// Discriminator for the expression hierarchy.
enum class ExprKind {
  IntLit,
  BoolLit,
  UnitLit,
  VarRef,
  FieldRef,
  AssignVar,
  AssignField,
  Let,
  LetSome,
  If,
  IfDisconnected,
  While,
  Seq,
  New,
  SomeExpr,
  NoneLit,
  IsNone,
  Send,
  Recv,
  Call,
  Binary,
  Unary,
};

/// Base class of all expressions.
class Expr {
public:
  ExprKind kind() const { return Kind; }
  SourceLoc loc() const { return Loc; }

protected:
  Expr(ExprKind Kind, SourceLoc Loc) : Kind(Kind), Loc(Loc) {}

private:
  const ExprKind Kind;
  SourceLoc Loc;
};

/// LLVM-style checked downcast helpers.
template <typename T> bool isa(const Expr *E) { return T::classof(E); }
template <typename T> const T *dyn_cast(const Expr *E) {
  return T::classof(E) ? static_cast<const T *>(E) : nullptr;
}
template <typename T> T *dyn_cast(Expr *E) {
  return T::classof(E) ? static_cast<T *>(E) : nullptr;
}
template <typename T> const T &cast(const Expr &E) {
  assert(T::classof(&E) && "cast to wrong expression kind");
  return static_cast<const T &>(E);
}
template <typename T> T &cast(Expr &E) {
  assert(T::classof(&E) && "cast to wrong expression kind");
  return static_cast<T &>(E);
}

/// Integer literal.
class IntLitExpr : public Expr {
public:
  IntLitExpr(int64_t Value, SourceLoc Loc)
      : Expr(ExprKind::IntLit, Loc), Value(Value) {}
  int64_t Value;
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::IntLit;
  }
};

/// Boolean literal.
class BoolLitExpr : public Expr {
public:
  BoolLitExpr(bool Value, SourceLoc Loc)
      : Expr(ExprKind::BoolLit, Loc), Value(Value) {}
  bool Value;
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::BoolLit;
  }
};

/// The unit value, written `unit`.
class UnitLitExpr : public Expr {
public:
  explicit UnitLitExpr(SourceLoc Loc) : Expr(ExprKind::UnitLit, Loc) {}
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::UnitLit;
  }
};

/// A variable read.
class VarRefExpr : public Expr {
public:
  VarRefExpr(Symbol Name, SourceLoc Loc)
      : Expr(ExprKind::VarRef, Loc), Name(Name) {}
  Symbol Name;
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::VarRef;
  }
};

/// A field read `base.f`. `base` may itself be a field chain.
class FieldRefExpr : public Expr {
public:
  FieldRefExpr(ExprPtr Base, Symbol Field, SourceLoc Loc)
      : Expr(ExprKind::FieldRef, Loc), Base(Base), Field(Field) {}
  ExprPtr Base;
  Symbol Field;
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::FieldRef;
  }
};

/// A variable assignment `x = e`; evaluates to unit.
class AssignVarExpr : public Expr {
public:
  AssignVarExpr(Symbol Name, ExprPtr Value, SourceLoc Loc)
      : Expr(ExprKind::AssignVar, Loc), Name(Name), Value(Value) {}
  Symbol Name;
  ExprPtr Value;
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::AssignVar;
  }
};

/// A field assignment `base.f = e`; evaluates to unit.
class AssignFieldExpr : public Expr {
public:
  AssignFieldExpr(ExprPtr Base, Symbol Field, ExprPtr Value, SourceLoc Loc)
      : Expr(ExprKind::AssignField, Loc), Base(Base), Field(Field),
        Value(Value) {}
  ExprPtr Base;
  Symbol Field;
  ExprPtr Value;
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::AssignField;
  }
};

/// `let x [: T] = init in body`. The parser desugars the statement form
/// `let x = init; rest...` into this node with `rest` as the body. The
/// optional type ascription guides inference (e.g. `let x : node? =
/// none`).
class LetExpr : public Expr {
public:
  LetExpr(Symbol Name, Type Declared, ExprPtr Init, ExprPtr Body,
          SourceLoc Loc)
      : Expr(ExprKind::Let, Loc), Name(Name), Declared(Declared),
        Init(Init), Body(Body) {}
  Symbol Name;
  Type Declared; ///< Invalid when no ascription was written.
  ExprPtr Init;
  ExprPtr Body;
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Let; }
};

/// Maybe elimination: `let some(x) = scrut in { ... } else { ... }`.
class LetSomeExpr : public Expr {
public:
  LetSomeExpr(Symbol Name, ExprPtr Scrutinee, ExprPtr SomeBody,
              ExprPtr NoneBody, SourceLoc Loc)
      : Expr(ExprKind::LetSome, Loc), Name(Name),
        Scrutinee(Scrutinee), SomeBody(SomeBody), NoneBody(NoneBody) {}
  Symbol Name;
  ExprPtr Scrutinee;
  ExprPtr SomeBody;
  ExprPtr NoneBody;
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::LetSome;
  }
};

/// `if (cond) { ... } else { ... }`. Else may be null (implicit unit).
class IfExpr : public Expr {
public:
  IfExpr(ExprPtr Cond, ExprPtr Then, ExprPtr Else, SourceLoc Loc)
      : Expr(ExprKind::If, Loc), Cond(Cond), Then(Then), Else(Else) {}
  ExprPtr Cond;
  ExprPtr Then;
  ExprPtr Else; ///< May be null.
  static bool classof(const Expr *E) { return E->kind() == ExprKind::If; }
};

/// `if disconnected(a, b) { ... } else { ... }` — the paper's novel
/// dynamic region-split primitive (§2.2, T15). Both arguments must be
/// variables; the parser enforces this.
class IfDisconnectedExpr : public Expr {
public:
  IfDisconnectedExpr(Symbol VarA, Symbol VarB, ExprPtr Then, ExprPtr Else,
                     SourceLoc Loc)
      : Expr(ExprKind::IfDisconnected, Loc), VarA(VarA), VarB(VarB),
        Then(Then), Else(Else) {}
  Symbol VarA;
  Symbol VarB;
  ExprPtr Then;
  ExprPtr Else;
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::IfDisconnected;
  }
};

/// `while (cond) { ... }`; evaluates to unit.
class WhileExpr : public Expr {
public:
  WhileExpr(ExprPtr Cond, ExprPtr Body, SourceLoc Loc)
      : Expr(ExprKind::While, Loc), Cond(Cond), Body(Body) {}
  ExprPtr Cond;
  ExprPtr Body;
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::While;
  }
};

/// A block `{ e1; e2; ... }`; evaluates to the last expression. An empty
/// block or one with a trailing `;` yields unit (the parser appends a
/// UnitLitExpr in that case).
class SeqExpr : public Expr {
public:
  SeqExpr(ExprList Elems, SourceLoc Loc)
      : Expr(ExprKind::Seq, Loc), Elems(Elems) {}
  ExprList Elems;
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Seq; }
};

/// Allocation `new S()` or `new S(e1, ..., en)`.
///
/// With no arguments, every field is default-initialized: maybe fields to
/// none, primitives to 0/false/unit, and non-maybe non-iso fields whose
/// type is S itself to a self-reference (matching the size-1 circular
/// doubly linked list of Fig. 3). Non-maybe `iso` fields have no default
/// and require the argument form, which supplies one initializer per
/// field in declaration order.
class NewExpr : public Expr {
public:
  NewExpr(Symbol StructName, ExprList Args, SourceLoc Loc)
      : Expr(ExprKind::New, Loc), StructName(StructName), Args(Args) {}
  Symbol StructName;
  ExprList Args; ///< Empty, or one initializer per field.
  static bool classof(const Expr *E) { return E->kind() == ExprKind::New; }
};

/// Maybe introduction `some e`.
class SomeExpr : public Expr {
public:
  SomeExpr(ExprPtr Operand, SourceLoc Loc)
      : Expr(ExprKind::SomeExpr, Loc), Operand(Operand) {}
  ExprPtr Operand;
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::SomeExpr;
  }
};

/// The empty maybe `none`. Its type is taken from the expected type at the
/// use site (assignment target, declared return type, ...).
class NoneLitExpr : public Expr {
public:
  explicit NoneLitExpr(SourceLoc Loc) : Expr(ExprKind::NoneLit, Loc) {}
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::NoneLit;
  }
};

/// `is_none(e)` — true when the maybe operand is none. Does not consume
/// region capabilities.
class IsNoneExpr : public Expr {
public:
  IsNoneExpr(ExprPtr Operand, SourceLoc Loc)
      : Expr(ExprKind::IsNone, Loc), Operand(Operand) {}
  ExprPtr Operand;
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::IsNone;
  }
};

/// `send(e)` — blocking send of e's reachable subgraph to a thread
/// performing a matching `recv<T>()` (T16 / EC3).
class SendExpr : public Expr {
public:
  SendExpr(ExprPtr Operand, SourceLoc Loc)
      : Expr(ExprKind::Send, Loc), Operand(Operand) {}
  ExprPtr Operand;
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Send; }
};

/// `recv<T>()` — blocking receive of a T (T17 / EC3).
class RecvExpr : public Expr {
public:
  RecvExpr(Type ValueType, SourceLoc Loc)
      : Expr(ExprKind::Recv, Loc), ValueType(ValueType) {}
  Type ValueType;
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Recv; }
};

/// A call `f(e1, ..., en)`.
class CallExpr : public Expr {
public:
  CallExpr(Symbol Callee, ExprList Args, SourceLoc Loc)
      : Expr(ExprKind::Call, Loc), Callee(Callee), Args(Args) {}
  Symbol Callee;
  ExprList Args;
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Call; }
};

enum class BinaryOp {
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  And,
  Or,
};

/// Returns the operator spelling, e.g. "+".
const char *toString(BinaryOp Op);

/// An arithmetic / comparison / logical binary operation on primitives.
class BinaryExpr : public Expr {
public:
  BinaryExpr(BinaryOp Op, ExprPtr Lhs, ExprPtr Rhs, SourceLoc Loc)
      : Expr(ExprKind::Binary, Loc), Op(Op), Lhs(Lhs), Rhs(Rhs) {}
  BinaryOp Op;
  ExprPtr Lhs;
  ExprPtr Rhs;
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::Binary;
  }
};

enum class UnaryOp { Not, Neg };

/// Returns the operator spelling, e.g. "!".
const char *toString(UnaryOp Op);

/// `!e` or `-e`.
class UnaryExpr : public Expr {
public:
  UnaryExpr(UnaryOp Op, ExprPtr Operand, SourceLoc Loc)
      : Expr(ExprKind::Unary, Loc), Op(Op), Operand(Operand) {}
  UnaryOp Op;
  ExprPtr Operand;
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::Unary;
  }
};

// The arena frees nodes without destroying them.
static_assert(std::is_trivially_destructible_v<IntLitExpr> &&
              std::is_trivially_destructible_v<BoolLitExpr> &&
              std::is_trivially_destructible_v<UnitLitExpr> &&
              std::is_trivially_destructible_v<VarRefExpr> &&
              std::is_trivially_destructible_v<FieldRefExpr> &&
              std::is_trivially_destructible_v<AssignVarExpr> &&
              std::is_trivially_destructible_v<AssignFieldExpr> &&
              std::is_trivially_destructible_v<LetExpr> &&
              std::is_trivially_destructible_v<LetSomeExpr> &&
              std::is_trivially_destructible_v<IfExpr> &&
              std::is_trivially_destructible_v<IfDisconnectedExpr> &&
              std::is_trivially_destructible_v<WhileExpr> &&
              std::is_trivially_destructible_v<SeqExpr> &&
              std::is_trivially_destructible_v<NewExpr> &&
              std::is_trivially_destructible_v<SomeExpr> &&
              std::is_trivially_destructible_v<NoneLitExpr> &&
              std::is_trivially_destructible_v<IsNoneExpr> &&
              std::is_trivially_destructible_v<SendExpr> &&
              std::is_trivially_destructible_v<RecvExpr> &&
              std::is_trivially_destructible_v<CallExpr> &&
              std::is_trivially_destructible_v<BinaryExpr> &&
              std::is_trivially_destructible_v<UnaryExpr>);

/// Calls \p Fn with each child of \p E, in source order; an absent `else`
/// of an IfExpr is skipped. This is the one list of every kind's
/// children: a walker handles the kinds that do work of their own and
/// sends the rest here. There is no `default`, so -Wswitch flags a new
/// kind in this one place.
template <typename F> void forEachChild(const Expr &E, F &&Fn) {
  switch (E.kind()) {
  case ExprKind::IntLit:
  case ExprKind::BoolLit:
  case ExprKind::UnitLit:
  case ExprKind::VarRef:
  case ExprKind::NoneLit:
  case ExprKind::Recv:
    return;
  case ExprKind::FieldRef:
    Fn(*cast<FieldRefExpr>(E).Base);
    return;
  case ExprKind::AssignVar:
    Fn(*cast<AssignVarExpr>(E).Value);
    return;
  case ExprKind::AssignField: {
    const auto &A = cast<AssignFieldExpr>(E);
    Fn(*A.Base);
    Fn(*A.Value);
    return;
  }
  case ExprKind::Let: {
    const auto &L = cast<LetExpr>(E);
    Fn(*L.Init);
    Fn(*L.Body);
    return;
  }
  case ExprKind::LetSome: {
    const auto &L = cast<LetSomeExpr>(E);
    Fn(*L.Scrutinee);
    Fn(*L.SomeBody);
    Fn(*L.NoneBody);
    return;
  }
  case ExprKind::If: {
    const auto &I = cast<IfExpr>(E);
    Fn(*I.Cond);
    Fn(*I.Then);
    if (I.Else)
      Fn(*I.Else);
    return;
  }
  case ExprKind::IfDisconnected: {
    const auto &I = cast<IfDisconnectedExpr>(E);
    Fn(*I.Then);
    Fn(*I.Else);
    return;
  }
  case ExprKind::While: {
    const auto &W = cast<WhileExpr>(E);
    Fn(*W.Cond);
    Fn(*W.Body);
    return;
  }
  case ExprKind::Seq:
    for (const Expr *Elem : cast<SeqExpr>(E).Elems)
      Fn(*Elem);
    return;
  case ExprKind::New:
    for (const Expr *Arg : cast<NewExpr>(E).Args)
      Fn(*Arg);
    return;
  case ExprKind::SomeExpr:
    Fn(*cast<SomeExpr>(E).Operand);
    return;
  case ExprKind::IsNone:
    Fn(*cast<IsNoneExpr>(E).Operand);
    return;
  case ExprKind::Send:
    Fn(*cast<SendExpr>(E).Operand);
    return;
  case ExprKind::Call:
    for (const Expr *Arg : cast<CallExpr>(E).Args)
      Fn(*Arg);
    return;
  case ExprKind::Binary: {
    const auto &B = cast<BinaryExpr>(E);
    Fn(*B.Lhs);
    Fn(*B.Rhs);
    return;
  }
  case ExprKind::Unary:
    Fn(*cast<UnaryExpr>(E).Operand);
    return;
  }
}

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

/// One struct field, possibly `iso` (transitively dominating reference).
struct FieldDecl {
  Symbol Name;
  Type FieldType;
  bool Iso = false;
  SourceLoc Loc;
};

/// `struct S { ... }`.
struct StructDecl {
  Symbol Name;
  std::vector<FieldDecl> Fields;
  SourceLoc Loc;

  /// Returns the field named \p Name, or nullptr.
  const FieldDecl *findField(Symbol Name) const;
};

/// A path usable in `after:` annotations: `p`, `p.f`, or `result`.
struct AnnotPath {
  bool IsResult = false;
  Symbol Base;  ///< Valid iff !IsResult.
  Symbol Field; ///< May be invalid (bare variable path).
  SourceLoc Loc;

  bool operator==(const AnnotPath &) const = default;
};

/// An `after: a ~ b` region-equality annotation (§4.9).
struct AfterRelation {
  AnnotPath Lhs;
  AnnotPath Rhs;
};

/// One function parameter.
struct ParamDecl {
  Symbol Name;
  Type ParamType;
  SourceLoc Loc;
};

/// `def f(params) : ret annotations { body }`.
struct FnDecl {
  Symbol Name;
  std::vector<ParamDecl> Params;
  Type ReturnType;
  std::vector<Symbol> Consumes;       ///< `consumes p` parameters.
  std::vector<Symbol> Pinned;         ///< `pinned p` parameters.
  std::vector<AfterRelation> Afters;  ///< `after: a ~ b, ...`.
  /// `before: a ~ b, ...` — the denoted regions coincide already at the
  /// call (and stay merged at output): aliased-argument function types
  /// such as the red-black tree's rotation helpers.
  std::vector<AfterRelation> Befores;
  ExprPtr Body;
  SourceLoc Loc;

  const ParamDecl *findParam(Symbol Name) const;
  bool isConsumed(Symbol Param) const;
  bool isPinned(Symbol Param) const;
};

/// A whole translation unit: interner, AST storage and declarations.
/// Move-only, like its arena.
struct Program {
  Interner Names;
  AstArena Nodes; ///< Every Expr of every FnDecl::Body.
  std::vector<StructDecl> Structs;
  std::vector<FnDecl> Functions;
  /// Symbol id -> position in Functions + 1 (0: no function of that
  /// name; the first declaration wins). Built by indexFunctions once the
  /// declarations are complete and never rebuilt lazily, so concurrent
  /// readers of a finished Program need no synchronization.
  std::vector<uint32_t> FunctionIndex;

  const StructDecl *findStruct(Symbol Name) const;
  /// O(1) through FunctionIndex.
  const FnDecl *findFunction(Symbol Name) const;
  /// (Re)builds FunctionIndex; the parser calls it after the last
  /// declaration.
  void indexFunctions();
};

} // namespace fearless

#endif // FEARLESS_AST_AST_H
