//===- ast/Ast.cpp --------------------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "ast/Ast.h"

#include <algorithm>

using namespace fearless;

namespace {

/// First-block bytes per source byte. The generated corpora need 3.0 to
/// 3.5, so a typical program fits its first block; a denser one (long
/// operator chains) continues in blocks from a quarter of that size up.
constexpr size_t ArenaBytesPerSourceByte = 4;
constexpr size_t MinBlockBytes = 1024;
/// Block payloads start this far into a block, keeping operator new's
/// alignment.
constexpr size_t BlockHeaderBytes = __STDCPP_DEFAULT_NEW_ALIGNMENT__;

} // namespace

AstArena::AstArena(size_t SourceBytes)
    : NextBlockBytes(std::max(MinBlockBytes,
                              SourceBytes * ArenaBytesPerSourceByte)) {}

AstArena::AstArena(AstArena &&Other) noexcept
    : Last(std::exchange(Other.Last, nullptr)),
      Cur(std::exchange(Other.Cur, nullptr)),
      End(std::exchange(Other.End, nullptr)),
      NextBlockBytes(Other.NextBlockBytes),
      Used(std::exchange(Other.Used, 0)),
      Reserved(std::exchange(Other.Reserved, 0)) {}

AstArena &AstArena::operator=(AstArena &&Other) noexcept {
  if (this != &Other) {
    release();
    Last = std::exchange(Other.Last, nullptr);
    Cur = std::exchange(Other.Cur, nullptr);
    End = std::exchange(Other.End, nullptr);
    NextBlockBytes = Other.NextBlockBytes;
    Used = std::exchange(Other.Used, 0);
    Reserved = std::exchange(Other.Reserved, 0);
  }
  return *this;
}

void *AstArena::allocateInNewBlock(size_t Size, size_t Align) {
  assert(Align <= BlockHeaderBytes && "over-aligned arena object");
  (void)Align;
  // An object larger than a block gets a block of its own, and the
  // current block stays open.
  bool Oversized = Size + BlockHeaderBytes > NextBlockBytes;
  size_t Bytes = Oversized ? Size + BlockHeaderBytes : NextBlockBytes;
  auto *B = static_cast<Block *>(::operator new(Bytes));
  B->Prev = Last;
  Last = B;
  Reserved += Bytes;
  Used += Size;
  char *Payload = reinterpret_cast<char *>(B) + BlockHeaderBytes;
  if (!Oversized) {
    NextBlockBytes = End ? NextBlockBytes * 2
                         : std::max(MinBlockBytes, NextBlockBytes / 4);
    Cur = Payload + Size;
    End = reinterpret_cast<char *>(B) + Bytes;
  }
  return Payload;
}

void AstArena::release() {
  while (Last)
    ::operator delete(std::exchange(Last, Last->Prev));
}

const char *fearless::toString(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
    return "+";
  case BinaryOp::Sub:
    return "-";
  case BinaryOp::Mul:
    return "*";
  case BinaryOp::Div:
    return "/";
  case BinaryOp::Mod:
    return "%";
  case BinaryOp::Eq:
    return "==";
  case BinaryOp::Ne:
    return "!=";
  case BinaryOp::Lt:
    return "<";
  case BinaryOp::Le:
    return "<=";
  case BinaryOp::Gt:
    return ">";
  case BinaryOp::Ge:
    return ">=";
  case BinaryOp::And:
    return "&&";
  case BinaryOp::Or:
    return "||";
  }
  return "?";
}

const char *fearless::toString(UnaryOp Op) {
  switch (Op) {
  case UnaryOp::Not:
    return "!";
  case UnaryOp::Neg:
    return "-";
  }
  return "?";
}

const FieldDecl *StructDecl::findField(Symbol FieldName) const {
  for (const FieldDecl &F : Fields)
    if (F.Name == FieldName)
      return &F;
  return nullptr;
}

const ParamDecl *FnDecl::findParam(Symbol ParamName) const {
  for (const ParamDecl &P : Params)
    if (P.Name == ParamName)
      return &P;
  return nullptr;
}

bool FnDecl::isConsumed(Symbol Param) const {
  return std::find(Consumes.begin(), Consumes.end(), Param) !=
         Consumes.end();
}

bool FnDecl::isPinned(Symbol Param) const {
  return std::find(Pinned.begin(), Pinned.end(), Param) != Pinned.end();
}

const StructDecl *Program::findStruct(Symbol Name) const {
  for (const StructDecl &S : Structs)
    if (S.Name == Name)
      return &S;
  return nullptr;
}

const FnDecl *Program::findFunction(Symbol Name) const {
  if (Name.Id >= FunctionIndex.size() || FunctionIndex[Name.Id] == 0)
    return nullptr;
  return &Functions[FunctionIndex[Name.Id] - 1];
}

void Program::indexFunctions() {
  FunctionIndex.assign(Names.size() + 1, 0);
  for (size_t I = Functions.size(); I-- > 0;)
    FunctionIndex[Functions[I].Name.Id] = static_cast<uint32_t>(I + 1);
}
