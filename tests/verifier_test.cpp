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

#include "driver/Driver.h"

#include <gtest/gtest.h>

#include <set>

using namespace fearless;

namespace {

Pipeline mustCompile(std::string_view Source) {
  Expected<Pipeline> Result = compile(Source);
  EXPECT_TRUE(Result.hasValue())
      << (Result.hasValue() ? "" : Result.error().render());
  return Result ? std::move(*Result) : Pipeline{};
}

TEST(Verifier, AllSuitesVerify) {
  for (const char *Source :
       {programs::SllSuite, programs::DllSuite, programs::RedBlackTree,
        programs::MessagePassing, programs::BitTrie, programs::Extras}) {
    Pipeline P = mustCompile(Source);
    Expected<VerifyStats> Stats = verifyProgram(P.Checked);
    ASSERT_TRUE(Stats.hasValue())
        << (Stats ? "" : Stats.error().render());
    EXPECT_GT(Stats->StepsChecked, 0u);
  }
}

/// Finds the first derivation step with the given rule, depth-first.
DerivStep *findStep(DerivStep &Root, const char *Rule) {
  if (Root.Rule == Rule)
    return &Root;
  for (auto &Child : Root.Children)
    if (DerivStep *Found = findStep(*Child, Rule))
      return Found;
  return nullptr;
}

/// An editable copy of \p Snapshot. Steps share their context snapshots,
/// so a test corrupts a private copy and swaps it into the one step it
/// targets; editing the shared snapshot would corrupt its neighbours too.
std::shared_ptr<Contexts>
privateCopy(const std::shared_ptr<const Contexts> &Snapshot) {
  return std::make_shared<Contexts>(*Snapshot);
}

/// Collects the distinct snapshots a derivation refers to.
void collectSnapshots(const DerivStep &Step,
                      std::set<const Contexts *> &Out) {
  Out.insert(Step.Before.get());
  Out.insert(Step.After.get());
  for (const auto &Child : Step.Children)
    collectSnapshots(*Child, Out);
}

TEST(Verifier, CatchesCorruptedFocus) {
  Pipeline P = mustCompile(programs::SllSuite);
  Symbol Sum = P.Prog->Names.intern("sum_node");
  CheckedFunction &Fn = P.Checked.Functions.at(Sum);
  DerivStep *Focus = findStep(*Fn.Derivation, rules::V1Focus);
  ASSERT_NE(Focus, nullptr);
  // Corrupt: pretend the focused region was already tracking a variable.
  Symbol Ghost = P.Prog->Names.intern("ghost");
  std::shared_ptr<Contexts> Corrupt = privateCopy(Focus->Before);
  ASSERT_FALSE(Corrupt->Heap.entries().empty());
  Corrupt->Heap.lookup(Corrupt->Heap.entries().begin()->first)->Vars[Ghost];
  Focus->Before = Corrupt;
  Expected<VerifyStats> Stats = verifyFunction(P.Checked, Fn);
  ASSERT_FALSE(Stats.hasValue());
}

TEST(Verifier, CatchesCorruptedExploreTarget) {
  Pipeline P = mustCompile(programs::SllSuite);
  Symbol Sum = P.Prog->Names.intern("sum_node");
  CheckedFunction &Fn = P.Checked.Functions.at(Sum);
  DerivStep *Explore = findStep(*Fn.Derivation, rules::V3Explore);
  ASSERT_NE(Explore, nullptr);
  // Corrupt: make the "fresh" target region pre-exist in the Before
  // context.
  std::shared_ptr<Contexts> Corrupt = privateCopy(Explore->Before);
  for (auto &[Region, Track] : Explore->After->Heap.entries()) {
    if (!Corrupt->Heap.hasRegion(Region)) {
      Corrupt->Heap.addRegion(Region);
      break;
    }
    (void)Track;
  }
  Explore->Before = Corrupt;
  Expected<VerifyStats> Stats = verifyFunction(P.Checked, Fn);
  ASSERT_FALSE(Stats.hasValue());
  EXPECT_NE(Stats.error().Message.find("V3"), std::string::npos);
}

TEST(Verifier, CatchesIllFormedContext) {
  Pipeline P = mustCompile(programs::SllSuite);
  Symbol Length = P.Prog->Names.intern("length_node");
  CheckedFunction &Fn = P.Checked.Functions.at(Length);
  // Corrupt the root's After: bind a tracked variable to the wrong
  // region.
  DerivStep *Step = findStep(*Fn.Derivation, rules::V1Focus);
  ASSERT_NE(Step, nullptr);
  std::shared_ptr<Contexts> Corrupt = privateCopy(Step->After);
  Corrupt->Vars.renameRegion(Corrupt->Vars.entries().begin()->second.Region,
                             RegionId{9999});
  Step->After = Corrupt;
  Expected<VerifyStats> Stats = verifyFunction(P.Checked, Fn);
  ASSERT_FALSE(Stats.hasValue());
}

TEST(Verifier, CatchesWrongFinalContext) {
  Pipeline P = mustCompile(programs::SllSuite);
  Symbol Length = P.Prog->Names.intern("length");
  CheckedFunction &Fn = P.Checked.Functions.at(Length);
  // Corrupt the root's final context: drop the parameter's region.
  std::shared_ptr<Contexts> Corrupt = privateCopy(Fn.Derivation->After);
  ASSERT_FALSE(Corrupt->Heap.entries().empty());
  Corrupt->Heap.removeRegion(Corrupt->Heap.entries().begin()->first);
  Fn.Derivation->After = Corrupt;
  Expected<VerifyStats> Stats = verifyFunction(P.Checked, Fn);
  ASSERT_FALSE(Stats.hasValue());
}

TEST(Verifier, UnchangedStepsShareSnapshots) {
  Pipeline P = mustCompile(programs::SllSuite);
  Symbol Sum = P.Prog->Names.intern("sum_node");
  const CheckedFunction &Fn = P.Checked.Functions.at(Sum);
  // A variable reference leaves H;Γ unchanged: one snapshot serves both.
  DerivStep *VarRef = findStep(*Fn.Derivation, "T2-Variable-Ref");
  ASSERT_NE(VarRef, nullptr);
  EXPECT_EQ(VarRef->Before.get(), VarRef->After.get());
  // A focus changes H: its output is a snapshot of its own.
  DerivStep *Focus = findStep(*Fn.Derivation, rules::V1Focus);
  ASSERT_NE(Focus, nullptr);
  EXPECT_NE(Focus->Before.get(), Focus->After.get());
  // Copying H;Γ twice per step would make twice as many snapshots as
  // steps.
  std::set<const Contexts *> Snapshots;
  collectSnapshots(*Fn.Derivation, Snapshots);
  EXPECT_LT(Snapshots.size(), 2 * countSteps(*Fn.Derivation));
}

TEST(Verifier, DerivationPrintingMentionsRules) {
  Pipeline P = mustCompile(programs::SllSuite);
  Symbol Sum = P.Prog->Names.intern("sum_node");
  const CheckedFunction &Fn = P.Checked.Functions.at(Sum);
  std::string Text = printDerivation(*Fn.Derivation, P.Prog->Names);
  EXPECT_NE(Text.find("T5-Isolated-Field-Reference"), std::string::npos);
  EXPECT_NE(Text.find(rules::V1Focus), std::string::npos);
  EXPECT_NE(Text.find(rules::V3Explore), std::string::npos);
}

TEST(Verifier, StatsCountVirtualSteps) {
  Pipeline P = mustCompile(programs::DllSuite);
  Expected<VerifyStats> Stats = verifyProgram(P.Checked);
  ASSERT_TRUE(Stats.hasValue());
  EXPECT_GT(Stats->VirtualStepsChecked, 10u);
}

} // namespace
