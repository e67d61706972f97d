//===- tests/verifier_test.cpp --------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// The prover–verifier architecture of §5: every emitted derivation
// re-checks, and corrupted derivations (simulating prover bugs) are
// rejected by the independent verifier.
//
//===----------------------------------------------------------------------===//

#include "ast/AstPrinter.h"
#include "driver/CompilePipeline.h"
#include "driver/Driver.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>

using namespace fearless;

namespace {

/// Checks \p Source keeping every function's derivation (compile()
/// verifies and drops them).
FrontendResult mustCheck(std::string_view Source) {
  Expected<FrontendResult> Result = checkSource(Source);
  EXPECT_TRUE(Result.hasValue())
      << (Result.hasValue() ? "" : Result.error().render());
  return Result ? std::move(*Result) : FrontendResult{};
}

TEST(Verifier, AllSuitesVerify) {
  for (const char *Source :
       {programs::SllSuite, programs::DllSuite, programs::RedBlackTree,
        programs::MessagePassing, programs::BitTrie, programs::Extras}) {
    FrontendResult P = mustCheck(Source);
    Expected<VerifyStats> Stats = verifyProgram(P.Checked);
    ASSERT_TRUE(Stats.hasValue())
        << (Stats ? "" : Stats.error().render());
    EXPECT_GT(Stats->StepsChecked, 0u);
  }
}

/// Finds the first derivation step with the given rule, depth-first.
StepId findStep(const Derivation &D, RuleId Rule, StepId From) {
  if (D[From].Rule == Rule)
    return From;
  for (StepId C = D[From].FirstChild; C != NoStep; C = D[C].NextSibling)
    if (StepId Found = findStep(D, Rule, C); Found != NoStep)
      return Found;
  return NoStep;
}
StepId findStep(const Derivation &D, RuleId Rule) {
  return findStep(D, Rule, D.root());
}

/// The expression of the innermost expression step enclosing \p Target
/// (itself included), found on the path from \p From; null if none.
const Expr *enclosingExpr(const Derivation &D, StepId Target, StepId From,
                          const Expr *Outer = nullptr) {
  const Expr *Here = D[From].E ? D[From].E : Outer;
  if (From == Target)
    return Here;
  for (StepId C = D[From].FirstChild; C != NoStep; C = D[C].NextSibling)
    if (const Expr *Found = enclosingExpr(D, Target, C, Here))
      return Found;
  return nullptr;
}

/// The "[at ...]" suffix a verifier failure at \p Step carries.
std::string locationOf(const FrontendResult &P, const Derivation &D,
                       StepId Step) {
  const Expr *E = enclosingExpr(D, Step, D.root());
  EXPECT_NE(E, nullptr);
  return E ? " [at " + printExpr(*E, P.Prog->Names) + "]" : "";
}

/// Points \p Side (a step's Before or After) at a private, edited copy of
/// its snapshot. Steps share their context snapshots, so a test corrupts
/// a copy that only the one targeted step refers to; editing the shared
/// snapshot would corrupt its neighbours too.
template <typename Edit>
void corrupt(Derivation &D, SnapshotId &Side, Edit &&Fn) {
  Contexts Copy = D.context(Side);
  Fn(Copy);
  Side = D.addSnapshot(Copy);
}

/// Removes \p Child from \p Parent's list of children.
void unlinkChild(Derivation &D, StepId Parent, StepId Child) {
  StepId Prev = NoStep;
  for (StepId C = D[Parent].FirstChild; C != NoStep;
       Prev = C, C = D[C].NextSibling) {
    if (C != Child)
      continue;
    StepId Next = D[C].NextSibling;
    (Prev == NoStep ? D[Parent].FirstChild : D[Prev].NextSibling) = Next;
    if (D[Parent].LastChild == C)
      D[Parent].LastChild = Prev;
    return;
  }
  ADD_FAILURE() << "step " << Child << " is not a child of " << Parent;
}

/// Collects the distinct snapshots a derivation refers to.
void collectSnapshots(const Derivation &D, StepId Step,
                      std::set<SnapshotId> &Out) {
  Out.insert(D[Step].Before);
  Out.insert(D[Step].After);
  D.forEachChild(Step,
                 [&](StepId Child) { collectSnapshots(D, Child, Out); });
}

TEST(Verifier, CatchesCorruptedFocus) {
  FrontendResult P = mustCheck(programs::SllSuite);
  Symbol Sum = P.Prog->Names.intern("sum_node");
  CheckedFunction &Fn = P.Checked.Functions.at(Sum);
  Derivation &D = Fn.Deriv;
  StepId Focus = findStep(D, RuleId::V1Focus);
  ASSERT_NE(Focus, NoStep);
  // Corrupt: pretend the focused region was already tracking a variable.
  Symbol Ghost = P.Prog->Names.intern("ghost");
  corrupt(D, D[Focus].Before, [&](Contexts &Ctx) {
    ASSERT_FALSE(Ctx.Heap.entries().empty());
    Ctx.Heap.lookup(Ctx.Heap.entries().begin()->first)->Vars[Ghost];
  });
  Expected<VerifyStats> Stats = verifyFunction(P.Checked, Fn);
  ASSERT_FALSE(Stats.hasValue());
  EXPECT_NE(Stats.error().Message.find(locationOf(P, D, Focus)),
            std::string::npos)
      << Stats.error().Message;
}

TEST(Verifier, CatchesCorruptedExploreTarget) {
  FrontendResult P = mustCheck(programs::SllSuite);
  Symbol Sum = P.Prog->Names.intern("sum_node");
  CheckedFunction &Fn = P.Checked.Functions.at(Sum);
  Derivation &D = Fn.Deriv;
  StepId Explore = findStep(D, RuleId::V3Explore);
  ASSERT_NE(Explore, NoStep);
  // Corrupt: make the "fresh" target region pre-exist in the Before
  // context.
  const Contexts &After = D.after(D[Explore]);
  corrupt(D, D[Explore].Before, [&](Contexts &Ctx) {
    for (auto &[Region, Track] : After.Heap.entries()) {
      if (!Ctx.Heap.hasRegion(Region)) {
        Ctx.Heap.addRegion(Region);
        break;
      }
      (void)Track;
    }
  });
  Expected<VerifyStats> Stats = verifyFunction(P.Checked, Fn);
  ASSERT_FALSE(Stats.hasValue());
  EXPECT_NE(Stats.error().Message.find("V3"), std::string::npos);
  EXPECT_NE(Stats.error().Message.find(locationOf(P, D, Explore)),
            std::string::npos)
      << Stats.error().Message;
}

TEST(Verifier, CatchesIllFormedContext) {
  FrontendResult P = mustCheck(programs::SllSuite);
  Symbol Length = P.Prog->Names.intern("length_node");
  CheckedFunction &Fn = P.Checked.Functions.at(Length);
  Derivation &D = Fn.Deriv;
  // Corrupt a focus step's After: bind a tracked variable to the wrong
  // region.
  StepId Step = findStep(D, RuleId::V1Focus);
  ASSERT_NE(Step, NoStep);
  corrupt(D, D[Step].After, [&](Contexts &Ctx) {
    Ctx.Vars.renameRegion(Ctx.Vars.entries().begin()->second.Region,
                          RegionId{9999});
  });
  Expected<VerifyStats> Stats = verifyFunction(P.Checked, Fn);
  ASSERT_FALSE(Stats.hasValue());
  EXPECT_NE(Stats.error().Message.find(locationOf(P, D, Step)),
            std::string::npos)
      << Stats.error().Message;
}

TEST(Verifier, CatchesWrongFinalContext) {
  FrontendResult P = mustCheck(programs::SllSuite);
  Symbol Length = P.Prog->Names.intern("length");
  CheckedFunction &Fn = P.Checked.Functions.at(Length);
  Derivation &D = Fn.Deriv;
  // Corrupt the root's final context: drop the parameter's region.
  corrupt(D, D[D.root()].After, [&](Contexts &Ctx) {
    ASSERT_FALSE(Ctx.Heap.entries().empty());
    Ctx.Heap.removeRegion(Ctx.Heap.entries().begin()->first);
  });
  Expected<VerifyStats> Stats = verifyFunction(P.Checked, Fn);
  ASSERT_FALSE(Stats.hasValue());
  // The final check compares the whole body's output with the signature:
  // it lies inside no expression, so it carries no location.
  EXPECT_NE(Stats.error().Message.find("declared signature output"),
            std::string::npos);
  EXPECT_EQ(Stats.error().Message.find("[at "), std::string::npos)
      << Stats.error().Message;
}

TEST(Verifier, RejectsFocusRelabelledUnfocus) {
  FrontendResult P = mustCheck(programs::SllSuite);
  Symbol Sum = P.Prog->Names.intern("sum_node");
  CheckedFunction &Fn = P.Checked.Functions.at(Sum);
  Derivation &D = Fn.Deriv;
  StepId Focus = findStep(D, RuleId::V1Focus);
  ASSERT_NE(Focus, NoStep);
  D[Focus].Rule = RuleId::V2Unfocus;
  Expected<VerifyStats> Stats = verifyFunction(P.Checked, Fn);
  ASSERT_FALSE(Stats.hasValue());
  EXPECT_NE(Stats.error().Message.find("V2-Unfocus"), std::string::npos)
      << Stats.error().Message;
  EXPECT_NE(Stats.error().Message.find(locationOf(P, D, Focus)),
            std::string::npos)
      << Stats.error().Message;
}

TEST(Verifier, RejectsSendWithoutOperand) {
  FrontendResult P = mustCheck(programs::MessagePassing);
  Symbol Producer = P.Prog->Names.intern("producer");
  CheckedFunction &Fn = P.Checked.Functions.at(Producer);
  Derivation &D = Fn.Deriv;
  StepId Send = findStep(D, RuleId::T16Send);
  ASSERT_NE(Send, NoStep);
  StepId Operand = NoStep;
  D.forEachChild(Send, [&](StepId Child) {
    if (D[Child].E)
      Operand = Child;
  });
  ASSERT_NE(Operand, NoStep);
  unlinkChild(D, Send, Operand);
  Expected<VerifyStats> Stats = verifyFunction(P.Checked, Fn);
  ASSERT_FALSE(Stats.hasValue());
  EXPECT_NE(Stats.error().Message.find("T16: missing operand derivation"),
            std::string::npos)
      << Stats.error().Message;
  EXPECT_NE(Stats.error().Message.find(locationOf(P, D, Send)),
            std::string::npos)
      << Stats.error().Message;
}

TEST(Verifier, UnchangedStepsShareSnapshots) {
  FrontendResult P = mustCheck(programs::SllSuite);
  Symbol Sum = P.Prog->Names.intern("sum_node");
  const CheckedFunction &Fn = P.Checked.Functions.at(Sum);
  const Derivation &D = Fn.Deriv;
  // A variable reference leaves H;Γ unchanged: one snapshot serves both.
  StepId VarRef = findStep(D, RuleId::T2VariableRef);
  ASSERT_NE(VarRef, NoStep);
  EXPECT_EQ(D[VarRef].Before, D[VarRef].After);
  // A focus changes H: its output is a snapshot of its own.
  StepId Focus = findStep(D, RuleId::V1Focus);
  ASSERT_NE(Focus, NoStep);
  EXPECT_NE(D[Focus].Before, D[Focus].After);
  // Copying H;Γ twice per step would make twice as many snapshots as
  // steps.
  std::set<SnapshotId> Snapshots;
  collectSnapshots(D, D.root(), Snapshots);
  EXPECT_LT(Snapshots.size(), 2 * countSteps(D));
}

TEST(Verifier, DerivationPrintingMentionsRules) {
  FrontendResult P = mustCheck(programs::SllSuite);
  Symbol Sum = P.Prog->Names.intern("sum_node");
  const CheckedFunction &Fn = P.Checked.Functions.at(Sum);
  std::string Text = printDerivation(Fn.Deriv, P.Prog->Names);
  EXPECT_NE(Text.find("T5-Isolated-Field-Reference"), std::string::npos);
  EXPECT_NE(Text.find(ruleName(RuleId::V1Focus)), std::string::npos);
  EXPECT_NE(Text.find(ruleName(RuleId::V3Explore)), std::string::npos);
}

TEST(Verifier, StatsCountVirtualSteps) {
  FrontendResult P = mustCheck(programs::DllSuite);
  Expected<VerifyStats> Stats = verifyProgram(P.Checked);
  ASSERT_TRUE(Stats.hasValue());
  EXPECT_GT(Stats->VirtualStepsChecked, 10u);
}

//===----------------------------------------------------------------------===//
// Verified as soon as checked: compile() keeps no derivation
//===----------------------------------------------------------------------===//

/// The embedded samples and every example program, by name.
std::vector<std::pair<std::string, std::string>> everySource() {
  std::vector<std::pair<std::string, std::string>> Out;
  for (const char *Source :
       {programs::SllSuite, programs::DllSuite, programs::RedBlackTree,
        programs::MessagePassing, programs::BitTrie, programs::Extras})
    Out.emplace_back("sample " + std::to_string(Out.size()), Source);
  for (const auto &Entry :
       std::filesystem::directory_iterator(FEARLESS_EXAMPLES_DIR)) {
    if (Entry.path().extension() != ".fls")
      continue;
    std::ifstream In(Entry.path(), std::ios::binary);
    Out.emplace_back(Entry.path().filename().string(),
                     std::string(std::istreambuf_iterator<char>(In), {}));
  }
  return Out;
}

TEST(VerifyAsChecked, ArtifactsKeepNoDerivation) {
  size_t Checked = 0;
  for (const auto &[Name, Source] : everySource()) {
    Expected<FrontendResult> Kept = checkSource(Source);
    ArtifactResult A = buildArtifact(Source, PipelineOptions{});
    ASSERT_EQ(Kept.hasValue(), A.hasValue()) << Name;
    if (!Kept)
      continue; // an example that demonstrates a rejection
    ++Checked;
    Expected<VerifyStats> Want = verifyProgram(Kept->Checked);
    ASSERT_TRUE(Want.hasValue()) << Name;
    const Pipeline &P = (*A)->P;
    ASSERT_EQ(P.Checked.Functions.size(), Kept->Checked.Functions.size())
        << Name;
    for (const auto &[Fn, CF] : P.Checked.Functions) {
      EXPECT_TRUE(CF.Deriv.empty()) << Name;
      EXPECT_FALSE(Kept->Checked.Functions.at(Fn).Deriv.empty()) << Name;
    }
    EXPECT_GT(Want->StepsChecked, 0u) << Name;
    EXPECT_EQ(P.Verified.StepsChecked, Want->StepsChecked) << Name;
    EXPECT_EQ(P.Verified.VirtualStepsChecked, Want->VirtualStepsChecked)
        << Name;
  }
  EXPECT_GT(Checked, 6u);
}

TEST(VerifyAsChecked, FailingContinuationStopsTheCheck) {
  FrontendResult Full = mustCheck(programs::SllSuite);
  const std::vector<FnDecl> &Decls = Full.Prog->Functions;
  ASSERT_GT(Decls.size(), 2u);
  for (size_t K : {size_t{1}, Decls.size() / 2, Decls.size()}) {
    std::vector<std::string> Seen;
    FunctionContinuation FailAtK =
        [&](const CheckedProgram &Program,
            const CheckedFunction &Fn) -> ExpectedVoid {
      // The derivation is still there, and only the functions declared
      // before this one are stored.
      EXPECT_FALSE(Fn.Deriv.empty());
      EXPECT_EQ(Program.Functions.size(), Seen.size());
      Seen.push_back(Program.Prog->Names.spelling(
          Fn.Deriv[Fn.Deriv.root()].Ops.Var));
      if (Seen.size() == K)
        return fail("rejected function " + std::to_string(K));
      return ExpectedVoid();
    };
    Expected<FrontendResult> R =
        checkSource(programs::SllSuite, CheckerOptions{}, FailAtK);
    ASSERT_FALSE(R.hasValue());
    EXPECT_EQ(R.error().Message, "rejected function " + std::to_string(K));
    EXPECT_EQ(R.error().Stage, DiagnosticStage::Check);
    EXPECT_EQ(exitCodeForStage(R.error().Stage), 4);
    // Checked in declaration order, stopping at the k-th function.
    ASSERT_EQ(Seen.size(), K);
    for (size_t I = 0; I < K; ++I)
      EXPECT_EQ(Seen[I], Full.Prog->Names.spelling(Decls[I].Name));
  }
}

} // namespace
