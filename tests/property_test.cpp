//===- tests/property_test.cpp --------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// Property-style parameterized sweeps:
//  - list operations behave like a reference std::vector model across
//    random operation sequences, with invariants re-validated after every
//    program run;
//  - the red-black tree matches a std::set model and stays balanced;
//  - concurrency results are schedule-independent across seeds and thread
//    counts;
//  - the checker accepts/rejects consistently with and without the
//    liveness oracle.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "mc/Dpor.h"
#include "parser/Parser.h"
#include "runtime/Disconnected.h"
#include "runtime/Invariants.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <set>

using namespace fearless;
using namespace fearless::testutil;

namespace {

//===----------------------------------------------------------------------===//
// SLL vs vector model
//===----------------------------------------------------------------------===//

class SllModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SllModelTest, RandomOpsMatchVectorModel) {
  // Drive push_front / pop_front / list_remove_tail through the machine
  // against a std::vector reference model.
  Pipeline P = mustCompile(programs::SllSuite);
  std::mt19937_64 Rng(GetParam());
  std::vector<int64_t> Model;


  // Each operation runs in its own machine over a rebuilt list: the
  // machine API runs whole threads, so we rebuild from the model each
  // time and apply one mutation.
  for (int Step = 0; Step < 30; ++Step) {
    int Op = Rng() % 3;
    Machine Fresh(P.Checked);
    ThreadId FT = Fresh.createThread();
    Loc FList = buildSll(P, Fresh, FT, Model);
    if (Op == 0) {
      int64_t V = Rng() % 100;
      Loc Payload = Fresh.hostAlloc(FT, sym(P, "data"));
      Fresh.hostSetField(Payload, sym(P, "value"), Value::intVal(V));
      Fresh.startThread(FT, sym(P, "push_front"),
                        {Value::locVal(FList), Value::locVal(Payload)});
      ASSERT_TRUE(Fresh.run().hasValue());
      Model.insert(Model.begin(), V);
    } else if (Op == 1) {
      Fresh.startThread(FT, sym(P, "pop_front"), {Value::locVal(FList)});
      Expected<MachineSummary> R = Fresh.run();
      ASSERT_TRUE(R.hasValue());
      if (!Model.empty()) {
        ASSERT_TRUE(R->ThreadResults[0].isLoc());
        EXPECT_EQ(Fresh.hostGetField(R->ThreadResults[0].asLoc(),
                                     sym(P, "value")),
                  Value::intVal(Model.front()));
        Model.erase(Model.begin());
      } else {
        EXPECT_TRUE(R->ThreadResults[0].isNone());
      }
    } else {
      Fresh.startThread(FT, sym(P, "list_remove_tail"),
                        {Value::locVal(FList)});
      Expected<MachineSummary> R = Fresh.run();
      ASSERT_TRUE(R.hasValue());
      if (!Model.empty()) {
        ASSERT_TRUE(R->ThreadResults[0].isLoc());
        EXPECT_EQ(Fresh.hostGetField(R->ThreadResults[0].asLoc(),
                                     sym(P, "value")),
                  Value::intVal(Model.back()));
        Model.pop_back();
      } else {
        EXPECT_TRUE(R->ThreadResults[0].isNone());
      }
    }
    EXPECT_EQ(readSll(P, Fresh, FList), Model);
    EXPECT_EQ(checkStoredRefCounts(Fresh.heap()), std::nullopt);
    EXPECT_EQ(checkIsoDomination(Fresh.heap(), {FList}), std::nullopt);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SllModelTest,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 99, 12345));

//===----------------------------------------------------------------------===//
// Red-black tree vs std::set model
//===----------------------------------------------------------------------===//

class RbTreeModelTest
    : public ::testing::TestWithParam<std::pair<uint64_t, int>> {};

TEST_P(RbTreeModelTest, MatchesSetModelAndStaysBalanced) {
  auto [Seed, Count] = GetParam();
  std::string Source = std::string(programs::RedBlackTree) + R"prog(
struct op_list { iso hd : op_node?; }
struct op_node { iso next : op_node?; key : int; }
def run_inserts(t : rb_tree, ops : op_list) : bool consumes ops {
  let cont = true;
  while (cont) {
    let some(n) = ops.hd in {
      let p = new data(n.key) in { rb_insert(t, p) };
      ops.hd = n.next;
    } else { cont = false }
  };
  rb_check(t)
}
)prog";
  Pipeline P = mustCompile(Source);

  std::mt19937_64 Rng(Seed);
  std::set<int64_t> Model;
  std::vector<int64_t> Keys;
  while ((int)Keys.size() < Count) {
    int64_t K = Rng() % 10000;
    if (Model.insert(K).second)
      Keys.push_back(K);
  }

  Machine M(P.Checked);
  ThreadId T = M.createThread();
  // Build the op list.
  Loc Ops = M.hostAlloc(T, sym(P, "op_list"));
  Value Next = Value::noneVal();
  for (size_t I = Keys.size(); I-- > 0;) {
    Loc Node = M.hostAlloc(T, sym(P, "op_node"));
    M.hostSetField(Node, sym(P, "key"), Value::intVal(Keys[I]));
    M.hostSetField(Node, sym(P, "next"), Next);
    Next = Value::locVal(Node);
  }
  M.hostSetField(Ops, sym(P, "hd"), Next);
  Loc Tree = M.hostAlloc(T, sym(P, "rb_tree"));
  M.startThread(T, sym(P, "run_inserts"),
                {Value::locVal(Tree), Value::locVal(Ops)});
  Expected<MachineSummary> R = M.run();
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  EXPECT_EQ(R->ThreadResults[0], Value::boolVal(true));

  // rb_size / rb_min on the same machine with fresh threads.
  ThreadId T2 = M.createThread();
  const_cast<ThreadState &>(M.threads()[T2]).Reservation =
      M.threads()[T].Reservation;
  const_cast<ThreadState &>(M.threads()[T]).Reservation.clear();
  M.startThread(T2, sym(P, "rb_size"), {Value::locVal(Tree)});
  Expected<MachineSummary> R2 = M.run();
  ASSERT_TRUE(R2.hasValue()) << (R2 ? "" : R2.error().render());
  EXPECT_EQ(R2->ThreadResults[T2], Value::intVal((int64_t)Model.size()));

  // Balance bound: height <= 2 * log2(n + 1).
  ThreadId T3 = M.createThread();
  const_cast<ThreadState &>(M.threads()[T3]).Reservation =
      M.threads()[T2].Reservation;
  const_cast<ThreadState &>(M.threads()[T2]).Reservation.clear();
  M.startThread(T3, sym(P, "rb_height"), {Value::locVal(Tree)});
  Expected<MachineSummary> R3 = M.run();
  ASSERT_TRUE(R3.hasValue());
  double Limit = 2.0 * std::log2((double)Model.size() + 1) + 1;
  EXPECT_LE((double)R3->ThreadResults[T3].asInt(), Limit);
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, RbTreeModelTest,
    ::testing::Values(std::make_pair(uint64_t(1), 10),
                      std::make_pair(uint64_t(2), 50),
                      std::make_pair(uint64_t(3), 100),
                      std::make_pair(uint64_t(4), 250),
                      std::make_pair(uint64_t(5), 500)));

//===----------------------------------------------------------------------===//
// Schedule independence
//===----------------------------------------------------------------------===//

TEST(ScheduleTest, PipelineResultIndependentOfSchedule) {
  // Formerly a 12-seed sample; now the model checker walks *every*
  // schedule in the bounded space (divergence check on), validating the
  // result and reservation disjointness in each final state.
  Pipeline P = mustCompile(programs::MessagePassing);
  mc::McOptions Opts;
  Opts.Validate = [](const Machine &M) -> std::optional<std::string> {
    if (auto Problem = checkReservationsDisjoint(M))
      return Problem;
    if (!(M.threads()[1].Result == Value::intVal(6)))
      return "consumer folded " + toString(M.threads()[1].Result) +
             ", expected 6";
    return std::nullopt;
  };
  Expected<mc::McReport> Rep = mc::explore(
      [&P]() {
        auto M = std::make_unique<Machine>(P.Checked);
        M->spawn(sym(P, "producer"), {Value::intVal(4)});
        M->spawn(sym(P, "consumer"), {Value::intVal(4)});
        return M;
      },
      Opts);
  ASSERT_TRUE(Rep.hasValue()) << (Rep ? "" : Rep.error().render());
  EXPECT_TRUE(Rep->Complete) << Rep->Clipped;
  EXPECT_FALSE(Rep->Counterexample.has_value())
      << Rep->Counterexample->Reason;
  EXPECT_GE(Rep->SchedulesExplored, 2u);
}

TEST(ScheduleTest, LongPipelineStillSumsUnderASampledSchedule) {
  // The count-20 pipeline is too deep to exhaust; keep one seeded run as
  // a long-execution smoke over the same property.
  Pipeline P = mustCompile(programs::MessagePassing);
  Machine M(P.Checked);
  M.spawn(sym(P, "producer"), {Value::intVal(20)});
  M.spawn(sym(P, "consumer"), {Value::intVal(20)});
  Expected<MachineSummary> R = M.run(5);
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  EXPECT_EQ(R->ThreadResults[1], Value::intVal(190));
  EXPECT_EQ(checkReservationsDisjoint(M), std::nullopt);
}

//===----------------------------------------------------------------------===//
// `if disconnected` refcount oracle
//===----------------------------------------------------------------------===//

class DisconnectOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DisconnectOracleTest, RefCountCheckSoundOnRandomHeaps) {
  // Random heaps mutated exclusively through Heap::setField. Two oracles:
  //  - refcount maintenance: the stored counts must equal a from-scratch
  //    recount after every mutation batch;
  //  - soundness: checkDisconnectedRefCount must never claim
  //    "disconnected" when the exact reachability check
  //    (checkDisconnectedNaive) finds the graphs connected. (The reverse
  //    direction is allowed: on arbitrary heaps the refcount check is
  //    conservative — an edge from a third component inflates a stored
  //    count and reads as "connected".)
  //
  // Mutations touch only the non-iso fields: the refcount check
  // deliberately never follows iso edges (they are region boundaries
  // under the tempered-domination invariant the type system enforces),
  // so a heap with arbitrary outgoing iso edges is outside its contract
  // and the soundness direction would not hold.
  DiagnosticEngine Diags;
  std::optional<Program> Prog = parseProgram(R"(
struct node {
  a : node?;
  b : node?;
  iso c : node?;
}
)",
                                             Diags);
  ASSERT_TRUE(Prog.has_value());
  StructTable Structs;
  Structs.build(*Prog, Diags);

  std::mt19937_64 Rng(GetParam());
  const uint32_t N = 48;
  Heap H(Structs, N);
  Symbol NodeSym = Prog->Names.intern("node");
  std::vector<Loc> Nodes;
  for (uint32_t I = 0; I < N; ++I) {
    Loc L = H.allocate(NodeSym);
    ASSERT_TRUE(L.isValid());
    Nodes.push_back(L);
  }

  // One scratch shared by every check below, across all rounds and both
  // algorithms: exactly the reuse pattern of the VM's per-thread
  // scratch, on a graph that mutates between (and interleaved with) the
  // checks. Any stale-generation leak shows up as a disagreement with a
  // freshly-scratched run or as an unsound verdict vs the exact check.
  DisconnectScratch Shared;

  for (int Round = 0; Round < 60; ++Round) {
    for (int K = 0; K < 6; ++K) {
      Loc From = Nodes[Rng() % N];
      uint32_t Field = Rng() % 2; // a or b; iso c stays none
      Value To = (Rng() % 4 == 0)
                     ? Value::noneVal()
                     : Value::locVal(Nodes[Rng() % N]);
      H.setField(From, Field, To);
    }

    // Refcount-maintenance oracle.
    std::vector<uint32_t> Recount = H.recomputeRefCounts();
    for (uint32_t I = 0; I < N; ++I)
      ASSERT_EQ(H.get(Loc{I}).StoredRefCount, Recount[I])
          << "stored refcount of loc#" << I << " diverged in round "
          << Round;

    // Soundness oracle against the exact check.
    Loc A = Nodes[Rng() % N];
    Loc B = Nodes[Rng() % N];
    DisconnectOutcome Fast = checkDisconnectedRefCount(H, A, B);
    DisconnectOutcome Exact = checkDisconnectedNaive(H, A, B);
    if (Fast.Disconnected) {
      EXPECT_TRUE(Exact.Disconnected)
          << "refcount check claimed loc#" << A.Index << " and loc#"
          << B.Index << " disjoint but they are connected (round "
          << Round << ")";
    }

    // Scratch-reuse oracle: several more checks through the one shared
    // scratch, interleaving both algorithms. The outcome must be a pure
    // function of (heap, roots) — scratch history must not matter — and
    // the refcount verdict must stay sound against the exact check run
    // through the very same scratch.
    for (int Q = 0; Q < 4; ++Q) {
      Loc X = Nodes[Rng() % N];
      Loc Y = Nodes[Rng() % N];
      DisconnectOutcome FastShared =
          checkDisconnectedRefCount(H, X, Y, Shared);
      DisconnectOutcome ExactShared =
          checkDisconnectedNaive(H, X, Y, Shared);
      DisconnectOutcome FastRef = checkDisconnectedRefCount(H, X, Y);
      EXPECT_EQ(FastShared.Disconnected, FastRef.Disconnected)
          << "scratch reuse changed the verdict for loc#" << X.Index
          << " vs loc#" << Y.Index << " (round " << Round << ")";
      EXPECT_EQ(FastShared.ObjectsVisited, FastRef.ObjectsVisited);
      EXPECT_EQ(FastShared.EdgesTraversed, FastRef.EdgesTraversed);
      if (FastShared.Disconnected) {
        EXPECT_TRUE(ExactShared.Disconnected)
            << "shared-scratch refcount check unsound for loc#"
            << X.Index << " vs loc#" << Y.Index << " (round " << Round
            << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DisconnectOracleTest,
                         ::testing::Values(1, 2, 3, 7, 21, 42, 1234,
                                           987654321));

//===----------------------------------------------------------------------===//
// Oracle/naive agreement
//===----------------------------------------------------------------------===//

class OracleAgreementTest
    : public ::testing::TestWithParam<const char *> {};

TEST_P(OracleAgreementTest, OracleAndSearchAgree) {
  CheckerOptions Oracle;
  Oracle.UseLivenessOracle = true;
  CheckerOptions Naive;
  Naive.UseLivenessOracle = false;
  bool OracleOk = compile(GetParam(), Oracle).hasValue();
  bool NaiveOk = compile(GetParam(), Naive).hasValue();
  EXPECT_EQ(OracleOk, NaiveOk);
  EXPECT_TRUE(OracleOk); // all suite programs are well-typed
}

INSTANTIATE_TEST_SUITE_P(Suites, OracleAgreementTest,
                         ::testing::Values(programs::SllSuite,
                                           programs::DllSuite,
                                           programs::RedBlackTree,
                                           programs::BitTrie,
                                           programs::Extras));

} // namespace
