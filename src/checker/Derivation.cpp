//===- checker/Derivation.cpp ---------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "checker/Derivation.h"

#include "ast/AstPrinter.h"

#include <iterator>
#include <sstream>

using namespace fearless;

namespace {

/// The paper's rule labels, in RuleId order.
constexpr const char *RuleNames[] = {
    "T0-Function-Definition",
    "T-Int-Literal",
    "T-Bool-Literal",
    "T-Unit",
    "T2-Variable-Ref",
    "T-Field-Reference",
    "T5-Isolated-Field-Reference",
    "T8-Assign-Var",
    "T-Field-Assignment",
    "T7-Isolated-Field-Assignment",
    "T-Let",
    "T-Let-Some",
    "T13-If-Statement",
    "T15-If-Disconnected",
    "T-While",
    "T-While-Body",
    "T3-Sequence",
    "T10-New-Loc",
    "T-Some",
    "T-None",
    "T-Is-None",
    "T16-Send",
    "T17-Receive",
    "T9-Function-Application",
    "T-Binary",
    "T-Unary",
    "V1-Focus",
    "V2-Unfocus",
    "V3-Explore",
    "V4-Retract",
    "V5-Attach",
    "F-Drop-Region",
    "F-Pin-Region",
};
static_assert(std::size(RuleNames) ==
                  static_cast<size_t>(RuleId::FPinRegion) + 1,
              "one name per RuleId");

} // namespace

const char *fearless::ruleName(RuleId Rule) {
  return RuleNames[static_cast<size_t>(Rule)];
}

std::string fearless::stepDetail(const DerivStep &Step,
                                 const Interner &Names) {
  const StepOperands &Ops = Step.Ops;
  auto Var = [&] { return Names.spelling(Ops.Var); };
  auto Slot = [&] { return Var() + "." + Names.spelling(Ops.Field); };
  switch (Step.Rule) {
  case RuleId::T0FunctionDefinition:
    return Var();
  case RuleId::V1Focus:
    return "focus " + Var() + " in " + toString(Ops.Region);
  case RuleId::V2Unfocus:
    return "unfocus " + Var() + " in " + toString(Ops.Region);
  case RuleId::V3Explore:
    return "explore " + Slot() + " -> " + toString(Ops.Region);
  case RuleId::V4Retract:
    return "retract " + Slot() + ", dropping " + toString(Ops.Region);
  case RuleId::V5Attach:
    return "attach " + toString(Ops.Region) + " -> " +
           toString(Ops.Region2);
  case RuleId::FDropRegion:
    return "drop " + toString(Ops.Region);
  case RuleId::FPinRegion:
    return Ops.Var.isValid() ? "pin var " + Var()
                             : "pin " + toString(Ops.Region);
  default:
    return std::string();
  }
}

namespace {

void printStep(const Derivation &D, StepId Id, const Interner &Names,
               unsigned Indent, std::ostream &OS) {
  const DerivStep &Step = D[Id];
  for (unsigned I = 0; I < Indent; ++I)
    OS << "  ";
  OS << ruleName(Step.Rule);
  std::string Detail = stepDetail(Step, Names);
  if (!Detail.empty())
    OS << " [" << Detail << "]";
  if (Step.E)
    OS << "  e = " << printExpr(*Step.E, Names);
  OS << "\n";
  for (unsigned I = 0; I < Indent; ++I)
    OS << "  ";
  OS << "  ⊢ " << toString(D.before(Step), Names) << "\n";
  D.forEachChild(Id, [&](StepId Child) {
    printStep(D, Child, Names, Indent + 1, OS);
  });
  for (unsigned I = 0; I < Indent; ++I)
    OS << "  ";
  OS << "  ⊣ " << toString(D.after(Step), Names);
  if (Step.ResultType.isValid()) {
    OS << "  : ";
    if (Step.ResultRegion.isValid())
      OS << toString(Step.ResultRegion) << " ";
    OS << toString(Step.ResultType, Names);
  }
  OS << "\n";
}

} // namespace

std::string fearless::printDerivation(const Derivation &D,
                                      const Interner &Names) {
  std::ostringstream OS;
  printStep(D, D.root(), Names, 0, OS);
  return OS.str();
}

namespace {

/// Escapes a string for a dot label.
std::string dotEscape(const std::string &Text) {
  std::string Out;
  for (char C : Text) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (C == '\n') {
      Out += "\\n";
      continue;
    }
    Out += C;
  }
  return Out;
}

void dotStep(const Derivation &D, StepId Id, const Interner &Names,
             size_t &NextId, size_t Parent, std::ostream &OS) {
  const DerivStep &Step = D[Id];
  size_t Node = NextId++;
  std::string Label = ruleName(Step.Rule);
  std::string Detail = stepDetail(Step, Names);
  if (!Detail.empty())
    Label += "\n" + Detail;
  if (Step.E)
    Label += "\n" + printExpr(*Step.E, Names);
  Label += "\n⊣ " + toString(D.after(Step), Names);
  OS << "  n" << Node << " [label=\"" << dotEscape(Label) << "\", shape="
     << (isVirtualRule(Step.Rule)
             ? "box, style=filled, fillcolor=lightblue"
         : isFramingRule(Step.Rule)
             ? "box, style=filled, fillcolor=lightsalmon"
             : "box")
     << "];\n";
  if (Parent != SIZE_MAX)
    OS << "  n" << Parent << " -> n" << Node << ";\n";
  D.forEachChild(Id, [&](StepId Child) {
    dotStep(D, Child, Names, NextId, Node, OS);
  });
}

} // namespace

std::string fearless::printDerivationDot(const Derivation &D,
                                         const Interner &Names) {
  std::ostringstream OS;
  OS << "digraph derivation {\n"
     << "  node [fontname=\"monospace\", fontsize=9];\n"
     << "  rankdir=TB;\n";
  size_t NextId = 0;
  dotStep(D, D.root(), Names, NextId, SIZE_MAX, OS);
  OS << "}\n";
  return OS.str();
}

namespace {

size_t countFrom(const Derivation &D, StepId Id) {
  size_t Count = 1;
  D.forEachChild(Id, [&](StepId Child) { Count += countFrom(D, Child); });
  return Count;
}

} // namespace

size_t fearless::countSteps(const Derivation &D) {
  return D.empty() ? 0 : countFrom(D, D.root());
}
