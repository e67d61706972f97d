//===- tests/virtual_test.cpp ---------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// The virtual transformation rules of Fig. 11, exercised directly on
// hand-built contexts: legality conditions, exact effects, and the
// compound release/merge helpers of the greedy decision procedure.
//
//===----------------------------------------------------------------------===//

#include "checker/Virtual.h"

#include <gtest/gtest.h>

using namespace fearless;

namespace {

struct VirtualFixture : ::testing::Test {
  Interner Names;
  RegionSupply Supply;
  Contexts Ctx;
  Derivation Deriv;
  StepId Sink = Deriv.addStep(RuleId::T0FunctionDefinition);
  Symbol X, Y, F, G, S;

  void SetUp() override {
    X = Names.intern("x");
    Y = Names.intern("y");
    F = Names.intern("f");
    G = Names.intern("g");
    S = Names.intern("s");
  }

  VirtualEngine engine() {
    return VirtualEngine(Ctx, Supply, Names, DerivSink{&Deriv, Sink});
  }

  /// The rules recorded under the sink, in order.
  std::vector<RuleId> recorded() const {
    std::vector<RuleId> Rules;
    Deriv.forEachChild(
        Sink, [&](StepId Step) { Rules.push_back(Deriv[Step].Rule); });
    return Rules;
  }

  RegionId bindFresh(Symbol Var) {
    RegionId R = Supply.fresh();
    Ctx.Heap.addRegion(R);
    Ctx.Vars.bind(Var, VarBinding{R, Type::structTy(S)});
    return R;
  }
};

TEST_F(VirtualFixture, FocusThenUnfocusRoundTrips) {
  RegionId R = bindFresh(X);
  Contexts Before = Ctx;
  VirtualEngine E = engine();
  ASSERT_TRUE(E.focus(X, SourceLoc{}).hasValue());
  EXPECT_NE(Ctx.Heap.trackedVar(R, X), nullptr);
  ASSERT_TRUE(E.unfocus(X, SourceLoc{}).hasValue());
  EXPECT_TRUE(Ctx == Before);
  std::vector<RuleId> Rules = recorded();
  ASSERT_EQ(Rules.size(), 2u);
  EXPECT_EQ(Rules[0], RuleId::V1Focus);
  EXPECT_EQ(Rules[1], RuleId::V2Unfocus);
}

TEST_F(VirtualFixture, FocusRequiresEmptyRegion) {
  RegionId R = bindFresh(X);
  Ctx.Vars.bind(Y, VarBinding{R, Type::structTy(S)});
  VirtualEngine E = engine();
  ASSERT_TRUE(E.focus(X, SourceLoc{}).hasValue());
  // Y shares the region: potential alias, focus must fail.
  auto Err = E.focus(Y, SourceLoc{});
  ASSERT_FALSE(Err.hasValue());
  EXPECT_NE(Err.error().Message.find("possible alias"), std::string::npos);
}

TEST_F(VirtualFixture, FocusRequiresUnpinned) {
  RegionId R = bindFresh(X);
  Ctx.Heap.lookup(R)->Pinned = true;
  auto Err = engine().focus(X, SourceLoc{});
  ASSERT_FALSE(Err.hasValue());
  EXPECT_NE(Err.error().Message.find("pinned"), std::string::npos);
}

TEST_F(VirtualFixture, FocusRequiresCapability) {
  RegionId R = bindFresh(X);
  Ctx.Heap.removeRegion(R);
  auto Err = engine().focus(X, SourceLoc{});
  ASSERT_FALSE(Err.hasValue());
  EXPECT_NE(Err.error().Message.find("reservation"), std::string::npos);
}

TEST_F(VirtualFixture, ExploreIntroducesFreshRegion) {
  bindFresh(X);
  VirtualEngine E = engine();
  ASSERT_TRUE(E.focus(X, SourceLoc{}).hasValue());
  Expected<RegionId> Target = E.explore(X, F, SourceLoc{});
  ASSERT_TRUE(Target.hasValue());
  EXPECT_TRUE(Ctx.Heap.hasRegion(*Target));
  EXPECT_TRUE(Ctx.Heap.lookup(*Target)->empty());
  // Exploring the same field twice is illegal (well-formedness).
  EXPECT_FALSE(E.explore(X, F, SourceLoc{}).hasValue());
  // A second field is fine.
  EXPECT_TRUE(E.explore(X, G, SourceLoc{}).hasValue());
}

TEST_F(VirtualFixture, RetractDropsTargetRegion) {
  bindFresh(X);
  VirtualEngine E = engine();
  ASSERT_TRUE(E.focus(X, SourceLoc{}).hasValue());
  RegionId Target = *E.explore(X, F, SourceLoc{});
  ASSERT_TRUE(E.retract(X, F, SourceLoc{}).hasValue());
  EXPECT_FALSE(Ctx.Heap.hasRegion(Target));
}

TEST_F(VirtualFixture, RetractRequiresEmptyTarget) {
  bindFresh(X);
  VirtualEngine E = engine();
  ASSERT_TRUE(E.focus(X, SourceLoc{}).hasValue());
  RegionId Target = *E.explore(X, F, SourceLoc{});
  // Track a variable inside the target region.
  Ctx.Vars.bind(Y, VarBinding{Target, Type::structTy(S)});
  ASSERT_TRUE(E.focus(Y, SourceLoc{}).hasValue());
  auto Err = E.retract(X, F, SourceLoc{});
  ASSERT_FALSE(Err.hasValue());
  EXPECT_NE(Err.error().Message.find("still tracks"), std::string::npos);
}

TEST_F(VirtualFixture, RetractRefusesDeadTarget) {
  bindFresh(X);
  VirtualEngine E = engine();
  ASSERT_TRUE(E.focus(X, SourceLoc{}).hasValue());
  RegionId Target = *E.explore(X, F, SourceLoc{});
  Ctx.Heap.removeRegion(Target); // simulate invalidation
  auto Err = E.retract(X, F, SourceLoc{});
  ASSERT_FALSE(Err.hasValue());
  EXPECT_NE(Err.error().Message.find("invalidated"), std::string::npos);
}

TEST_F(VirtualFixture, UnfocusRequiresNoTrackedFields) {
  bindFresh(X);
  VirtualEngine E = engine();
  ASSERT_TRUE(E.focus(X, SourceLoc{}).hasValue());
  ASSERT_TRUE(E.explore(X, F, SourceLoc{}).hasValue());
  EXPECT_FALSE(E.unfocus(X, SourceLoc{}).hasValue());
}

TEST_F(VirtualFixture, ReleaseRegionRecursivelyEmptiesTracking) {
  RegionId R = bindFresh(X);
  VirtualEngine E = engine();
  ASSERT_TRUE(E.focus(X, SourceLoc{}).hasValue());
  RegionId T1 = *E.explore(X, F, SourceLoc{});
  // y lives in the target region and is itself focused with a field.
  Ctx.Vars.bind(Y, VarBinding{T1, Type::structTy(S)});
  ASSERT_TRUE(E.focus(Y, SourceLoc{}).hasValue());
  ASSERT_TRUE(E.explore(Y, G, SourceLoc{}).hasValue());

  ASSERT_TRUE(E.releaseRegion(R, SourceLoc{}).hasValue());
  EXPECT_TRUE(Ctx.Heap.lookup(R)->empty());
  EXPECT_FALSE(Ctx.Heap.hasRegion(T1)); // retracted away
}

TEST_F(VirtualFixture, ReleaseDetectsTrackedCycles) {
  RegionId R = bindFresh(X);
  VirtualEngine E = engine();
  ASSERT_TRUE(E.focus(X, SourceLoc{}).hasValue());
  ASSERT_TRUE(E.explore(X, F, SourceLoc{}).hasValue());
  // Point the tracked field back at x's own region: a tracked cycle.
  Ctx.Heap.trackedVar(R, X)->Fields[F] = R;
  auto Err = E.releaseRegion(R, SourceLoc{});
  ASSERT_FALSE(Err.hasValue());
  EXPECT_NE(Err.error().Message.find("cyclic"), std::string::npos);
}

TEST_F(VirtualFixture, AttachMergesAndRecords) {
  RegionId R1 = bindFresh(X);
  RegionId R2 = bindFresh(Y);
  ASSERT_TRUE(engine().attach(R2, R1, SourceLoc{}).hasValue());
  EXPECT_FALSE(Ctx.Heap.hasRegion(R2));
  EXPECT_EQ(Ctx.Vars.lookup(Y)->Region, R1);
  ASSERT_FALSE(recorded().empty());
  EXPECT_EQ(recorded().back(), RuleId::V5Attach);
}

TEST_F(VirtualFixture, DropRegionInvalidatesBindings) {
  RegionId R = bindFresh(X);
  ASSERT_TRUE(engine().dropRegion(R, SourceLoc{}).hasValue());
  EXPECT_FALSE(Ctx.Heap.hasRegion(R));
  // Binding remains but is unusable (checked by T2 at use sites).
  EXPECT_NE(Ctx.Vars.lookup(X), nullptr);
}

TEST_F(VirtualFixture, PinIsIdempotentWeakening) {
  RegionId R = bindFresh(X);
  VirtualEngine E = engine();
  ASSERT_TRUE(E.pinRegion(R, SourceLoc{}).hasValue());
  EXPECT_TRUE(Ctx.Heap.lookup(R)->Pinned);
  size_t StepsBefore = recorded().size();
  ASSERT_TRUE(E.pinRegion(R, SourceLoc{}).hasValue());
  EXPECT_EQ(recorded().size(), StepsBefore); // no-op not recorded
}

TEST_F(VirtualFixture, StepCounterCounts) {
  bindFresh(X);
  size_t Counter = 0;
  VirtualEngine E(Ctx, Supply, Names, DerivSink(), &Counter);
  ASSERT_TRUE(E.focus(X, SourceLoc{}).hasValue());
  ASSERT_TRUE(E.explore(X, F, SourceLoc{}).hasValue());
  EXPECT_EQ(Counter, 2u);
}

} // namespace
