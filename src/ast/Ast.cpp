//===- ast/Ast.cpp --------------------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "ast/Ast.h"

#include <algorithm>

using namespace fearless;

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
