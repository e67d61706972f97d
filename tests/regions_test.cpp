//===- tests/regions_test.cpp ---------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// The static contexts of §4.3: well-formedness, attach semantics,
// unreachable-region collection, and equivalence up to renaming — the
// last also differentially, against a canonical renaming of both sides,
// on every H;Γ snapshot the samples' derivations record.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "regions/Canonical.h"
#include "regions/Contexts.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

using namespace fearless;

namespace {

struct Fixture : ::testing::Test {
  Interner Names;
  RegionSupply Supply;
  Symbol X, Y, F, G;
  Symbol S;

  void SetUp() override {
    X = Names.intern("x");
    Y = Names.intern("y");
    F = Names.intern("f");
    G = Names.intern("g");
    S = Names.intern("s");
  }

  /// Builds: r1<x[f -> r2]>, r2<> ; x : r1 s
  Contexts tracked() {
    Contexts Ctx;
    RegionId R1 = Supply.fresh();
    RegionId R2 = Supply.fresh();
    Ctx.Heap.addRegion(R1);
    Ctx.Heap.addRegion(R2);
    Ctx.Heap.lookup(R1)->Vars[X].Fields[F] = R2;
    Ctx.Vars.bind(X, VarBinding{R1, Type::structTy(S)});
    return Ctx;
  }
};

TEST_F(Fixture, WellFormedAcceptsTracked) {
  Contexts Ctx = tracked();
  EXPECT_EQ(checkWellFormed(Ctx, Names), std::nullopt);
}

TEST_F(Fixture, WellFormedRejectsDoubleTracking) {
  Contexts Ctx = tracked();
  RegionId R3 = Supply.fresh();
  Ctx.Heap.addRegion(R3);
  Ctx.Heap.lookup(R3)->Vars[X]; // x tracked in a second region
  auto Problem = checkWellFormed(Ctx, Names);
  ASSERT_TRUE(Problem.has_value());
  EXPECT_NE(Problem->find("tracked in two regions"), std::string::npos);
}

TEST_F(Fixture, WellFormedRejectsUnboundTrackedVar) {
  Contexts Ctx = tracked();
  Ctx.Vars.erase(X);
  EXPECT_TRUE(checkWellFormed(Ctx, Names).has_value());
}

TEST_F(Fixture, WellFormedRejectsMismatchedBindingRegion) {
  Contexts Ctx = tracked();
  RegionId Other = Supply.fresh();
  Ctx.Heap.addRegion(Other);
  Ctx.Vars.bind(X, VarBinding{Other, Type::structTy(S)});
  EXPECT_TRUE(checkWellFormed(Ctx, Names).has_value());
}

TEST_F(Fixture, AttachMergesTrackingAndRenames) {
  Contexts Ctx = tracked();
  RegionId R1 = Ctx.Vars.lookup(X)->Region;
  RegionId R3 = Supply.fresh();
  Ctx.Heap.addRegion(R3);
  Ctx.Vars.bind(Y, VarBinding{R3, Type::structTy(S)});
  Ctx.Heap.lookup(R3)->Vars[Y].Fields[G] = R1;

  ASSERT_TRUE(Ctx.Heap.canAttach(R3, R1));
  Ctx.Heap.attach(R3, R1);
  Ctx.Vars.renameRegion(R3, R1);

  EXPECT_FALSE(Ctx.Heap.hasRegion(R3));
  EXPECT_EQ(Ctx.Vars.lookup(Y)->Region, R1);
  // y's tracking moved into r1, its field target renamed to r1.
  const VarTrack *YTrack = Ctx.Heap.trackedVar(R1, Y);
  ASSERT_NE(YTrack, nullptr);
  EXPECT_EQ(YTrack->Fields.at(G), R1);
  EXPECT_EQ(checkWellFormed(Ctx, Names), std::nullopt);
}

TEST_F(Fixture, AttachRefusesVariableConflicts) {
  Contexts Ctx = tracked();
  RegionId R1 = Ctx.Vars.lookup(X)->Region;
  RegionId R3 = Supply.fresh();
  Ctx.Heap.addRegion(R3);
  Ctx.Heap.lookup(R3)->Vars[X]; // x "tracked" in R3 too (ill-formed setup)
  EXPECT_FALSE(Ctx.Heap.canAttach(R3, R1));
}

TEST_F(Fixture, AttachRefusesPinned) {
  Contexts Ctx = tracked();
  RegionId R1 = Ctx.Vars.lookup(X)->Region;
  RegionId R3 = Supply.fresh();
  Ctx.Heap.addRegion(R3);
  Ctx.Heap.lookup(R3)->Pinned = true;
  EXPECT_FALSE(Ctx.Heap.canAttach(R3, R1));
  EXPECT_FALSE(Ctx.Heap.canAttach(R1, R3));
}

TEST_F(Fixture, EquivalenceUpToRenaming) {
  Contexts A = tracked();
  Contexts B = tracked(); // fresh region numbers
  EXPECT_FALSE(A == B);   // names differ
  EXPECT_TRUE(equivalentUpToRenaming(A, RegionId(), B, RegionId()));
}

TEST_F(Fixture, EquivalenceDistinguishesStructure) {
  Contexts A = tracked();
  Contexts B = tracked();
  // B: untrack x.f (keep the region as garbage anchor via y).
  RegionId BR1 = B.Vars.lookup(X)->Region;
  RegionId BR2 = B.Heap.trackedVar(BR1, X)->Fields.at(F);
  B.Heap.lookup(BR1)->Vars[X].Fields.erase(F);
  B.Vars.bind(Y, VarBinding{BR2, Type::structTy(S)});
  EXPECT_FALSE(equivalentUpToRenaming(A, RegionId(), B, RegionId()));
}

TEST_F(Fixture, EquivalenceChecksPins) {
  Contexts A = tracked();
  Contexts B = tracked();
  B.Heap.lookup(B.Vars.lookup(X)->Region)->Pinned = true;
  EXPECT_FALSE(equivalentUpToRenaming(A, RegionId(), B, RegionId()));
}

TEST_F(Fixture, DropUnreachableRemovesGarbage) {
  Contexts Ctx = tracked();
  RegionId Garbage = Supply.fresh();
  Ctx.Heap.addRegion(Garbage);
  dropUnreachableRegions(Ctx);
  EXPECT_FALSE(Ctx.Heap.hasRegion(Garbage));
  // Anchored regions stay.
  EXPECT_TRUE(Ctx.Heap.hasRegion(Ctx.Vars.lookup(X)->Region));
}

TEST_F(Fixture, DropUnreachableKeepsExtraRoot) {
  Contexts Ctx = tracked();
  RegionId Result = Supply.fresh();
  Ctx.Heap.addRegion(Result);
  dropUnreachableRegions(Ctx, Result);
  EXPECT_TRUE(Ctx.Heap.hasRegion(Result));
}

TEST_F(Fixture, CanonicalizeIdentifiesDeadTargets) {
  Contexts A = tracked();
  Contexts B = tracked();
  // Point both tracked fields at (different) dead regions.
  RegionId AR1 = A.Vars.lookup(X)->Region;
  RegionId AR2 = A.Heap.trackedVar(AR1, X)->Fields.at(F);
  A.Heap.removeRegion(AR2);
  RegionId BR1 = B.Vars.lookup(X)->Region;
  RegionId BR2 = B.Heap.trackedVar(BR1, X)->Fields.at(F);
  B.Heap.removeRegion(BR2);
  EXPECT_TRUE(equivalentUpToRenaming(A, RegionId(), B, RegionId()));
}

TEST_F(Fixture, ResultRootParticipatesInEquivalence) {
  Contexts A = tracked();
  Contexts B = tracked();
  RegionId AR2 =
      A.Heap.trackedVar(A.Vars.lookup(X)->Region, X)->Fields.at(F);
  RegionId BFresh = Supply.fresh();
  B.Heap.addRegion(BFresh);
  // A's result aliases x.f's target; B's result is separate.
  EXPECT_FALSE(equivalentUpToRenaming(A, AR2, B, BFresh));
}

TEST_F(Fixture, PrintingIsStable) {
  Contexts Ctx = tracked();
  std::string Text = toString(Ctx, Names);
  EXPECT_NE(Text.find("x[f -> "), std::string::npos);
  EXPECT_NE(Text.find("x : "), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Differential test: in-place equivalence vs. canonical renaming
//===----------------------------------------------------------------------===//

/// The canonical id of every dead region (one absent from H). All dead
/// regions are identified: their identity is meaningless.
constexpr uint32_t DeadCanonicalRegion = 0xFFFFFFFFu;

/// A canonicalized context plus the renaming that produced it.
struct CanonicalForm {
  Contexts Ctx;
  FlatMap<RegionId, RegionId> Renaming; ///< original -> canonical
};

/// Renames regions to 1..n in discovery order: the regions of Γ bindings
/// (in symbol order), then \p ExtraRoot, then tracked-field targets
/// breadth-first; dead regions map to DeadCanonicalRegion. Requires every
/// region in H to be reachable (run dropUnreachableRegions first).
CanonicalForm canonicalize(const Contexts &Ctx, RegionId ExtraRoot) {
  CanonicalForm Result;
  uint32_t Next = 0;
  std::vector<RegionId> Worklist;
  size_t Head = 0;
  auto Assign = [&](RegionId R) {
    if (!R.isValid() || Result.Renaming.count(R))
      return;
    RegionId Canon = RegionId{DeadCanonicalRegion};
    if (Ctx.Heap.hasRegion(R)) {
      Canon = RegionId{++Next};
      Worklist.push_back(R);
    }
    Result.Renaming.emplace(R, Canon);
  };
  for (const auto &[Var, Binding] : Ctx.Vars.entries())
    Assign(Binding.Region);
  Assign(ExtraRoot);
  while (Head < Worklist.size())
    for (const auto &[Var, VTrack] : Ctx.Heap.lookup(Worklist[Head++])->Vars)
      for (const auto &[Field, Target] : VTrack.Fields)
        Assign(Target);
  EXPECT_EQ(Next, Ctx.Heap.entries().size())
      << "canonicalize requires all regions reachable";

  for (const auto &[Var, Binding] : Ctx.Vars.entries()) {
    VarBinding NewBinding = Binding;
    if (Binding.Region.isValid())
      NewBinding.Region = Result.Renaming.at(Binding.Region);
    Result.Ctx.Vars.bind(Var, NewBinding);
  }
  for (const auto &[Region, Track] : Ctx.Heap.entries()) {
    auto Canon = Result.Renaming.find(Region);
    if (Canon == Result.Renaming.end())
      continue;
    RegionTrack NewTrack = Track;
    for (auto &[Var, VTrack] : NewTrack.Vars)
      for (auto &[Field, Target] : VTrack.Fields)
        Target = Result.Renaming.at(Target);
    Result.Ctx.Heap.addRegion(Canon->second);
    *Result.Ctx.Heap.lookup(Canon->second) = std::move(NewTrack);
  }
  return Result;
}

/// The reference equivalence: copy, drop unreachable regions,
/// canonicalize both sides, compare, and check the roots correspond.
bool referenceEquivalent(const Contexts &A, RegionId RootA,
                         const Contexts &B, RegionId RootB) {
  Contexts CopyA = A;
  Contexts CopyB = B;
  dropUnreachableRegions(CopyA, RootA);
  dropUnreachableRegions(CopyB, RootB);
  CanonicalForm FormA = canonicalize(CopyA, RootA);
  CanonicalForm FormB = canonicalize(CopyB, RootB);
  if (!(FormA.Ctx == FormB.Ctx))
    return false;
  auto CanonRoot = [](const CanonicalForm &Form, RegionId Root) {
    return Root.isValid() ? Form.Renaming.at(Root) : RegionId();
  };
  return CanonRoot(FormA, RootA) == CanonRoot(FormB, RootB);
}

/// The six samples, checked once with their derivations kept.
const std::vector<FrontendResult> &sampleChecks() {
  static const std::vector<FrontendResult> Checks = [] {
    std::vector<FrontendResult> Out;
    for (const char *Source :
         {programs::SllSuite, programs::DllSuite, programs::RedBlackTree,
          programs::MessagePassing, programs::BitTrie, programs::Extras}) {
      Expected<FrontendResult> P = checkSource(Source);
      EXPECT_TRUE(P.hasValue()) << (P ? "" : P.error().render());
      if (P)
        Out.push_back(P.take());
    }
    return Out;
  }();
  return Checks;
}

/// An H;Γ snapshot and the names to print it with.
struct Snapshot {
  const Contexts *Ctx;
  const Interner *Names;
};

/// Every H;Γ snapshot recorded by the derivations of every function of
/// the six samples, in recording order.
std::vector<Snapshot> sampleSnapshots() {
  std::vector<Snapshot> Out;
  for (const FrontendResult &P : sampleChecks())
    for (const auto &[Name, Fn] : P.Checked.Functions)
      for (SnapshotId I = 0; I < Fn.Deriv.numSnapshots(); ++I)
        Out.push_back({&Fn.Deriv.context(I), &P.Prog->Names});
  return Out;
}

/// Every region \p Ctx mentions: H's, Γ's and the field targets.
std::vector<RegionId> regionsOf(const Contexts &Ctx) {
  FlatSet<RegionId> Regions;
  for (const auto &[Var, Binding] : Ctx.Vars.entries())
    if (Binding.Region.isValid())
      Regions.insert(Binding.Region);
  for (const auto &[Region, Track] : Ctx.Heap.entries()) {
    Regions.insert(Region);
    for (const auto &[Var, VTrack] : Track.Vars)
      for (const auto &[Field, Target] : VTrack.Fields)
        Regions.insert(Target);
  }
  return std::vector<RegionId>(Regions.begin(), Regions.end());
}

/// \p Ctx with every region renamed by \p Rename.
template <typename F> Contexts renamed(const Contexts &Ctx, F &&Rename) {
  Contexts Out;
  for (const auto &[Var, Binding] : Ctx.Vars.entries())
    Out.Vars.bind(Var, VarBinding{Binding.Region.isValid()
                                      ? Rename(Binding.Region)
                                      : RegionId(),
                                  Binding.VarType});
  for (const auto &[Region, Track] : Ctx.Heap.entries()) {
    RegionTrack NewTrack = Track;
    for (auto &[Var, VTrack] : NewTrack.Vars)
      for (auto &[Field, Target] : VTrack.Fields)
        Target = Rename(Target);
    Out.Heap.addRegion(Rename(Region));
    *Out.Heap.lookup(Rename(Region)) = std::move(NewTrack);
  }
  return Out;
}

/// The tracked fields of \p Ctx as (region, var, field) triples.
std::vector<std::tuple<RegionId, Symbol, Symbol>>
trackedFields(const Contexts &Ctx) {
  std::vector<std::tuple<RegionId, Symbol, Symbol>> Out;
  for (const auto &[Region, Track] : Ctx.Heap.entries())
    for (const auto &[Var, VTrack] : Track.Vars)
      for (const auto &[Field, Target] : VTrack.Fields)
        Out.push_back({Region, Var, Field});
  return Out;
}

/// Single perturbations of \p Ctx (each with its extra root): a changed
/// field target, a flipped pin flag, a changed binding type, a live
/// target made dead and a dead target made live.
std::vector<Contexts> perturbations(const Contexts &Ctx,
                                    std::mt19937 &Rng) {
  std::vector<Contexts> Out;
  std::vector<RegionId> Live;
  for (const auto &[Region, Track] : Ctx.Heap.entries())
    Live.push_back(Region);
  auto Pick = [&](size_t N) {
    return std::uniform_int_distribution<size_t>(0, N - 1)(Rng);
  };
  for (const auto &[Region, Var, Field] : trackedFields(Ctx)) {
    // Retarget the field at another live region.
    if (Live.size() > 1) {
      Contexts Copy = Ctx;
      RegionId &T =
          Copy.Heap.trackedVar(Region, Var)->Fields.at(Field);
      RegionId Other = Live[Pick(Live.size())];
      T = Other == T ? Live[(Pick(Live.size() - 1) + 1) % Live.size()]
                     : Other;
      Out.push_back(std::move(Copy));
    }
    RegionId T = Ctx.Heap.trackedVar(Region, Var)->Fields.at(Field);
    const RegionTrack *TargetTrack = Ctx.Heap.lookup(T);
    if (!TargetTrack) {
      // A dead target made live.
      Contexts Copy = Ctx;
      Copy.Heap.addRegion(T);
      Out.push_back(std::move(Copy));
    } else if (TargetTrack->empty()) {
      // A live (empty) target made dead.
      Contexts Copy = Ctx;
      Copy.Heap.removeRegion(T);
      Out.push_back(std::move(Copy));
    }
  }
  for (const auto &[Region, Track] : Ctx.Heap.entries()) {
    Contexts Copy = Ctx;
    Copy.Heap.lookup(Region)->Pinned = !Track.Pinned;
    Out.push_back(std::move(Copy));
    for (const auto &[Var, VTrack] : Track.Vars) {
      Contexts VarCopy = Ctx;
      VarCopy.Heap.trackedVar(Region, Var)->Pinned = !VTrack.Pinned;
      Out.push_back(std::move(VarCopy));
    }
  }
  for (const auto &[Var, Binding] : Ctx.Vars.entries()) {
    Contexts Copy = Ctx;
    VarBinding Changed = Binding;
    Changed.VarType.Maybe = !Changed.VarType.Maybe;
    Copy.Vars.bind(Var, Changed);
    Out.push_back(std::move(Copy));
  }
  return Out;
}

TEST(EquivalenceDifferential, AgreesWithCanonicalRenamingOnSamples) {
  std::vector<Snapshot> Snapshots = sampleSnapshots();
  ASSERT_GT(Snapshots.size(), 100u);
  std::mt19937 Rng(20221);
  const Interner *Names = nullptr;
  size_t Agreed = 0, Equivalent = 0, Different = 0;
  auto Compare = [&](const Contexts &A, RegionId RootA, const Contexts &B,
                     RegionId RootB) {
    bool Want = referenceEquivalent(A, RootA, B, RootB);
    bool Have = equivalentUpToRenaming(A, RootA, B, RootB);
    EXPECT_EQ(Have, Want) << "A: " << toString(A, *Names) << " root "
                          << toString(RootA)
                          << "\nB: " << toString(B, *Names) << " root "
                          << toString(RootB);
    Agreed += Have == Want;
    (Want ? Equivalent : Different)++;
  };
  auto RootOf = [&](const Contexts &Ctx) {
    std::vector<RegionId> Regions = regionsOf(Ctx);
    if (Regions.empty())
      return RegionId();
    return Regions[std::uniform_int_distribution<size_t>(
        0, Regions.size() - 1)(Rng)];
  };

  for (size_t I = 0; I < Snapshots.size(); ++I) {
    const Contexts &Ctx = *Snapshots[I].Ctx;
    Names = Snapshots[I].Names;
    // Consecutive distinct snapshots (of one program).
    if (I + 1 < Snapshots.size() && Snapshots[I + 1].Names == Names &&
        !(*Snapshots[I + 1].Ctx == Ctx))
      Compare(Ctx, RegionId(), *Snapshots[I + 1].Ctx, RegionId());

    // A copy renamed by a random bijection, roots included.
    std::vector<RegionId> Regions = regionsOf(Ctx);
    std::vector<uint32_t> Fresh(Regions.size());
    for (size_t K = 0; K < Fresh.size(); ++K)
      Fresh[K] = static_cast<uint32_t>(1000 + 7 * K);
    std::shuffle(Fresh.begin(), Fresh.end(), Rng);
    auto Rename = [&](RegionId R) {
      auto It = std::lower_bound(Regions.begin(), Regions.end(), R);
      return RegionId{Fresh[static_cast<size_t>(It - Regions.begin())]};
    };
    Contexts Renamed = renamed(Ctx, Rename);
    RegionId Root = RootOf(Ctx);
    RegionId RenamedRoot = Root.isValid() ? Rename(Root) : RegionId();
    Compare(Ctx, RegionId(), Renamed, RegionId());
    Compare(Ctx, Root, Renamed, RenamedRoot);
    EXPECT_TRUE(equivalentUpToRenaming(Ctx, Root, Renamed, RenamedRoot));

    // Mismatched extra roots.
    RegionId OtherRoot = RootOf(Ctx);
    Compare(Ctx, Root, Renamed,
            OtherRoot.isValid() ? Rename(OtherRoot) : RegionId());
    Compare(Ctx, Root, Renamed, RegionId());
    Compare(Ctx, RegionId(), Renamed, RenamedRoot);

    // Single perturbations, against the original and the renamed copy.
    for (const Contexts &Perturbed : perturbations(Ctx, Rng)) {
      Compare(Ctx, RegionId(), Perturbed, RegionId());
      Compare(Renamed, RenamedRoot, Perturbed, Root);
    }
  }
  EXPECT_EQ(Agreed, Equivalent + Different);
  // Both outcomes occur often, so neither side can pass vacuously.
  EXPECT_GT(Equivalent, 1000u);
  EXPECT_GT(Different, 1000u);
}

} // namespace
