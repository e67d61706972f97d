//===- checker/Derivation.cpp ---------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "checker/Derivation.h"

#include "ast/AstPrinter.h"

#include <sstream>

using namespace fearless;

namespace {

void printStep(const DerivStep &Step, const Interner &Names,
               unsigned Indent, std::ostream &OS) {
  for (unsigned I = 0; I < Indent; ++I)
    OS << "  ";
  OS << Step.Rule;
  if (!Step.Detail.empty())
    OS << " [" << Step.Detail << "]";
  if (Step.E)
    OS << "  e = " << printExpr(*Step.E, Names);
  OS << "\n";
  for (unsigned I = 0; I < Indent; ++I)
    OS << "  ";
  OS << "  ⊢ " << toString(*Step.Before, Names) << "\n";
  for (const auto &Child : Step.Children)
    printStep(*Child, Names, Indent + 1, OS);
  for (unsigned I = 0; I < Indent; ++I)
    OS << "  ";
  OS << "  ⊣ " << toString(*Step.After, Names);
  if (Step.ResultType.isValid()) {
    OS << "  : ";
    if (Step.ResultRegion.isValid())
      OS << toString(Step.ResultRegion) << " ";
    OS << toString(Step.ResultType, Names);
  }
  OS << "\n";
}

} // namespace

std::string fearless::printDerivation(const DerivStep &Root,
                                      const Interner &Names) {
  std::ostringstream OS;
  printStep(Root, Names, 0, OS);
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

void dotStep(const DerivStep &Step, const Interner &Names, size_t &NextId,
             size_t Parent, std::ostream &OS) {
  size_t Id = NextId++;
  bool IsVirtual = !Step.Rule.empty() && Step.Rule[0] == 'V';
  bool IsFraming = !Step.Rule.empty() && Step.Rule[0] == 'F';
  std::string Label = Step.Rule;
  if (!Step.Detail.empty())
    Label += "\n" + Step.Detail;
  if (Step.E)
    Label += "\n" + printExpr(*Step.E, Names);
  Label += "\n⊣ " + toString(*Step.After, Names);
  OS << "  n" << Id << " [label=\"" << dotEscape(Label) << "\", shape="
     << (IsVirtual ? "box, style=filled, fillcolor=lightblue"
         : IsFraming
             ? "box, style=filled, fillcolor=lightsalmon"
             : "box")
     << "];\n";
  if (Parent != SIZE_MAX)
    OS << "  n" << Parent << " -> n" << Id << ";\n";
  for (const auto &Child : Step.Children)
    dotStep(*Child, Names, NextId, Id, OS);
}

} // namespace

std::string fearless::printDerivationDot(const DerivStep &Root,
                                         const Interner &Names) {
  std::ostringstream OS;
  OS << "digraph derivation {\n"
     << "  node [fontname=\"monospace\", fontsize=9];\n"
     << "  rankdir=TB;\n";
  size_t NextId = 0;
  dotStep(Root, Names, NextId, SIZE_MAX, OS);
  OS << "}\n";
  return OS.str();
}

size_t fearless::countSteps(const DerivStep &Root, const char *Rule) {
  size_t Count = !Rule || Root.Rule == Rule ? 1 : 0;
  for (const auto &Child : Root.Children)
    Count += countSteps(*Child, Rule);
  return Count;
}
