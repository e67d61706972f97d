//===- tests/analysis_test.cpp --------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// The static region-graph analysis (analysis/StaticDisconnect.h):
//  - verdict unit tests: must-disconnected, must-connected (with
//    witnesses), and the joins/calls that force unknown;
//  - golden-file tests: one fixture per diagnostic kind, diffed exactly
//    against `fearlessc analyze` output;
//  - the runtime elision integration: must-* sites answered from the
//    verdict table, cross-checked against the real traversal;
//  - a property sweep: on randomly generated programs, running with
//    elision + cross-check must agree with the plain traversal on every
//    seed — the static verdict never contradicts the runtime oracle.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "analysis/CallGraph.h"
#include "analysis/RegionGraph.h"
#include "analysis/StaticDisconnect.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <random>
#include <set>
#include <sstream>

using namespace fearless;
using namespace fearless::testutil;

namespace {

//===----------------------------------------------------------------------===//
// Verdict unit tests
//===----------------------------------------------------------------------===//

/// Compiles \p Source, analyzes it, and returns the report. The program
/// must check and contain at least one `if disconnected` site.
AnalysisReport mustAnalyze(std::string_view Source) {
  Pipeline P = mustCompile(Source);
  if (!P.Prog)
    return {};
  return analyzeProgram(P.Checked);
}

DisconnectVerdict soleVerdict(std::string_view Source) {
  AnalysisReport R = mustAnalyze(Source);
  EXPECT_EQ(R.Sites.size(), 1u);
  return R.Sites.size() == 1 ? R.Sites[0].Verdict
                             : DisconnectVerdict::Unknown;
}

TEST(StaticDisconnect, StrongUpdateProvesDisconnected) {
  EXPECT_EQ(soleVerdict(R"(
struct gnode { next : gnode; }
def main() : int {
  let a = new gnode();
  let b = new gnode();
  a.next = b;
  a.next = a;
  if disconnected(a, b) { 1 } else { 0 }
}
)"),
            DisconnectVerdict::MustDisconnected);
}

TEST(StaticDisconnect, RemainingEdgeProvesConnected) {
  AnalysisReport R = mustAnalyze(R"(
struct gnode { next : gnode; }
def main() : int {
  let a = new gnode();
  let b = new gnode();
  a.next = b;
  if disconnected(a, b) { 1 } else { 0 }
}
)");
  ASSERT_EQ(R.Sites.size(), 1u);
  EXPECT_EQ(R.Sites[0].Verdict, DisconnectVerdict::MustConnected);
  // Must-connected verdicts carry a witness path to the shared object.
  EXPECT_NE(R.Sites[0].Witness.find("`a.next`"), std::string::npos)
      << R.Sites[0].Witness;
}

TEST(StaticDisconnect, SameVariableIsTriviallyConnected) {
  AnalysisReport R = mustAnalyze(R"(
struct gnode { next : gnode; }
def main() : int {
  let a = new gnode();
  if disconnected(a, a) { 1 } else { 0 }
}
)");
  ASSERT_EQ(R.Sites.size(), 1u);
  EXPECT_EQ(R.Sites[0].Verdict, DisconnectVerdict::MustConnected);
  EXPECT_NE(R.Sites[0].Witness.find("same object"), std::string::npos);
}

TEST(StaticDisconnect, BranchJoinForcesUnknown) {
  EXPECT_EQ(soleVerdict(R"(
struct gnode { next : gnode; }
def main(c : int) : int {
  let a = new gnode();
  let b = new gnode();
  a.next = b;
  if (c < 1) { a.next = a; } else { a.next = b; };
  if disconnected(a, b) { 1 } else { 0 }
}
)"),
            DisconnectVerdict::Unknown);
}

TEST(StaticDisconnect, CallHavocForcesUnknown) {
  // touch() could rewire anything reachable from its argument, so the
  // previously provable disconnection degrades to unknown.
  EXPECT_EQ(soleVerdict(R"(
struct gnode { next : gnode; }
def touch(x : gnode) : unit { x.next = x; }
def main() : int {
  let a = new gnode();
  let b = new gnode();
  a.next = b;
  a.next = a;
  touch(a);
  if disconnected(a, b) { 1 } else { 0 }
}
)"),
            DisconnectVerdict::Unknown);
}

TEST(StaticDisconnect, DeadBranchAndVerdictDiagnosticsEmitted) {
  AnalysisReport R = mustAnalyze(R"(
struct gnode { next : gnode; }
def main() : int {
  let a = new gnode();
  let b = new gnode();
  a.next = b;
  a.next = a;
  if disconnected(a, b) { 1 } else { 0 }
}
)");
  bool SawVerdict = false, SawDeadBranch = false;
  for (const AnalysisDiag &D : R.Diags) {
    SawVerdict |= D.Kind == AnalysisDiagKind::SiteVerdict;
    SawDeadBranch |= D.Kind == AnalysisDiagKind::DeadBranch;
  }
  EXPECT_TRUE(SawVerdict);
  EXPECT_TRUE(SawDeadBranch);
  // The verdict table carries the must-* entry the VM lowering folds.
  DisconnectVerdictTable T = R.verdictTable();
  ASSERT_EQ(R.Sites.size(), 1u);
  auto It = T.find(R.Sites[0].Site);
  ASSERT_NE(It, T.end());
  EXPECT_EQ(It->second, DisconnectVerdict::MustDisconnected);
}

//===----------------------------------------------------------------------===//
// NodeSet against std::set
//===----------------------------------------------------------------------===//

using RefSet = std::set<AbsNodeId>;

/// Expects \p S to hold exactly \p Ref, through every read the analysis
/// makes: size, emptiness, membership and ascending iteration.
void expectSameSet(const NodeSet &S, const RefSet &Ref, uint32_t Universe) {
  EXPECT_EQ(S.size(), Ref.size());
  EXPECT_EQ(S.empty(), Ref.empty());
  EXPECT_EQ(std::vector<AbsNodeId>(S.begin(), S.end()),
            std::vector<AbsNodeId>(Ref.begin(), Ref.end()));
  for (uint32_t Id = 0; Id < Universe; ++Id)
    EXPECT_EQ(S.contains(AbsNodeId{Id}), Ref.contains(AbsNodeId{Id})) << Id;
}

bool refIntersects(const RefSet &A, const RefSet &B) {
  return std::any_of(A.begin(), A.end(),
                     [&](AbsNodeId N) { return B.contains(N); });
}

TEST(NodeSetDifferential, RandomOperationsMatchStdSet) {
  std::mt19937 Rng(25);
  // Universes inside the inline word and across one and two heap words.
  for (uint32_t Universe : {40u, 70u, 140u, 200u}) {
    for (int Round = 0; Round < 50; ++Round) {
      NodeSet A, B;
      RefSet RA, RB;
      for (int Op = 0; Op < 80; ++Op) {
        AbsNodeId Id{static_cast<uint32_t>(Rng() % Universe)};
        switch (Rng() % 8) {
        case 0:
        case 1:
        case 2:
          EXPECT_EQ(A.insert(Id), RA.insert(Id).second);
          break;
        case 3:
        case 4:
          EXPECT_EQ(B.insert(Id), RB.insert(Id).second);
          break;
        case 5:
          A.erase(Id);
          RA.erase(Id);
          break;
        case 6:
          A.merge(B);
          RA.insert(RB.begin(), RB.end());
          break;
        case 7:
          B = A;
          RB = RA;
          break;
        }
        expectSameSet(A, RA, Universe);
        expectSameSet(B, RB, Universe);
        EXPECT_EQ(A == B, RA == RB);
        EXPECT_EQ(B == A, RA == RB);
        EXPECT_EQ(A.intersects(B), refIntersects(RA, RB));
        EXPECT_EQ(B.intersects(A), refIntersects(RA, RB));
      }
    }
  }
}

TEST(NodeSetDifferential, EqualityIgnoresTrailingZeroWords) {
  // Long spills to three words, then drops its high ids: it equals Short,
  // which never left the inline word, in both directions.
  NodeSet Short{AbsNodeId{3}, AbsNodeId{63}};
  NodeSet Long{AbsNodeId{3}, AbsNodeId{63}, AbsNodeId{64}, AbsNodeId{130}};
  EXPECT_FALSE(Short == Long);
  Long.erase(AbsNodeId{64});
  Long.erase(AbsNodeId{130});
  EXPECT_TRUE(Short == Long);
  EXPECT_TRUE(Long == Short);
  EXPECT_EQ(Long.size(), 2u);
  EXPECT_EQ(std::vector<AbsNodeId>(Long.begin(), Long.end()),
            (std::vector<AbsNodeId>{AbsNodeId{3}, AbsNodeId{63}}));

  // Two spilled sets of different lengths that hold the same id past 64.
  NodeSet Mid{AbsNodeId{70}};
  NodeSet Far{AbsNodeId{70}, AbsNodeId{190}};
  Far.erase(AbsNodeId{190});
  EXPECT_TRUE(Mid == Far);
  EXPECT_TRUE(Far.intersects(Mid));

  // Emptied sets, spilled or not, equal the empty set.
  NodeSet Emptied{AbsNodeId{200}};
  Emptied.erase(AbsNodeId{200});
  EXPECT_TRUE(Emptied.empty());
  EXPECT_EQ(Emptied.begin(), Emptied.end());
  EXPECT_TRUE(Emptied == NodeSet{});
  EXPECT_FALSE(Emptied.intersects(Far));
}

//===----------------------------------------------------------------------===//
// Golden-file lint fixtures
//===----------------------------------------------------------------------===//

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << "missing fixture: " << Path;
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

TEST(AnalysisGolden, FixturesMatchExactly) {
  // One fixture per diagnostic kind; .expected files hold the exact
  // `fearlessc analyze` output (which prints SourceAnalysis::Rendered
  // verbatim).
  const char *Fixtures[] = {
      "must_disconnected", "must_connected", "dead_branch",
      "use_after_consumes", "never_populated", "cross_call_disconnected",
      "recursive_scc", "summary_downgrade", "wide_function",
  };
  for (const char *Name : Fixtures) {
    std::string Base = std::string(FEARLESS_FIXTURES_DIR) + "/" + Name;
    std::string Source = slurp(Base + ".fls");
    std::string Expected = slurp(Base + ".expected");
    ASSERT_FALSE(Source.empty()) << Name;
    SourceAnalysis A =
        analyzeSourceText(Source, std::string(Name) + ".fls");
    EXPECT_EQ(A.Rendered, Expected) << Name;
    EXPECT_FALSE(A.HardError) << Name;
  }
}

//===----------------------------------------------------------------------===//
// Runtime elision integration
//===----------------------------------------------------------------------===//

int64_t runMain(Pipeline &P, const DisconnectVerdictTable *Table,
                bool Elide, uint64_t &ElidedOut) {
  MachineOptions MO;
  MO.StaticVerdicts = Table;
  MO.ElideDisconnect = Elide;
  MO.CrossCheckElision = true;
  Machine M(P.Checked, MO);
  M.spawn(sym(P, "main"));
  Expected<MachineSummary> S = M.run();
  EXPECT_TRUE(S.hasValue())
      << (S.hasValue() ? std::string() : S.error().render());
  if (!S)
    return -1;
  ElidedOut = M.metrics().DisconnectElided;
  return S->ThreadResults[0].asInt();
}

TEST(Elision, MustSitesAnsweredFromTable) {
  Pipeline P = mustCompile(R"(
struct gnode { next : gnode; }
def main() : int {
  let a = new gnode();
  let b = new gnode();
  a.next = b;
  a.next = a;
  if disconnected(a, b) { 1 } else { 0 }
}
)");
  AnalysisReport R = analyzeProgram(P.Checked);
  DisconnectVerdictTable T = R.verdictTable();

  uint64_t Elided = 0;
  EXPECT_EQ(runMain(P, &T, /*Elide=*/true, Elided), 1);
  EXPECT_EQ(Elided, 1u); // answered statically (and cross-checked)

  EXPECT_EQ(runMain(P, &T, /*Elide=*/false, Elided), 1);
  EXPECT_EQ(Elided, 0u); // --no-elide: the traversal ran

  // No table at all: elision silently disabled.
  EXPECT_EQ(runMain(P, nullptr, /*Elide=*/true, Elided), 1);
  EXPECT_EQ(Elided, 0u);
}

TEST(Elision, MustConnectedTakesElseBranch) {
  Pipeline P = mustCompile(R"(
struct gnode { next : gnode; }
def main() : int {
  let a = new gnode();
  let b = new gnode();
  a.next = b;
  if disconnected(a, b) { 1 } else { 0 }
}
)");
  AnalysisReport R = analyzeProgram(P.Checked);
  ASSERT_EQ(R.Sites.size(), 1u);
  ASSERT_EQ(R.Sites[0].Verdict, DisconnectVerdict::MustConnected);
  DisconnectVerdictTable T = R.verdictTable();
  uint64_t Elided = 0;
  EXPECT_EQ(runMain(P, &T, /*Elide=*/true, Elided), 0);
  EXPECT_EQ(Elided, 1u);
}

//===----------------------------------------------------------------------===//
// Property sweep: static verdicts never contradict the runtime oracle
//===----------------------------------------------------------------------===//

/// Emits a random straight-line region program over a two-field struct:
/// fresh allocations, random field writes (some branch-dependent, so the
/// analyzer must join), and a final `if disconnected` over two random
/// variables. Every program type-checks or is skipped by the caller.
std::string genProgram(std::mt19937_64 &Rng) {
  size_t NVars = 3 + Rng() % 4;
  size_t NWrites = 2 + Rng() % 8;
  auto Var = [&] { return "v" + std::to_string(Rng() % NVars); };
  auto Field = [&] { return Rng() % 2 ? std::string(".a") : ".b"; };

  std::string S = "struct gnode { a : gnode; b : gnode; }\n"
                  "def main() : int {\n";
  for (size_t I = 0; I < NVars; ++I)
    S += "  let v" + std::to_string(I) + " = new gnode();\n";
  for (size_t W = 0; W < NWrites; ++W) {
    if (Rng() % 4 == 0) {
      // Branch-dependent write: forces a join, typically an unknown
      // verdict downstream.
      S += "  if (1 < 2) { " + Var() + Field() + " = " + Var() +
           "; } else { " + Var() + Field() + " = " + Var() + "; };\n";
    } else {
      S += "  " + Var() + Field() + " = " + Var() + ";\n";
    }
  }
  S += "  if disconnected(" + Var() + ", " + Var() +
       ") { 1 } else { 0 }\n}\n";
  return S;
}

class StaticVsRuntime : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StaticVsRuntime, ElisionAgreesWithTraversalOracle) {
  std::mt19937_64 Rng(GetParam());
  int Compiled = 0;
  for (int I = 0; I < 6; ++I) {
    std::string Src = genProgram(Rng);
    Expected<Pipeline> PR = compile(Src);
    if (!PR)
      continue; // e.g. the checker rejects a cross-region write order
    Pipeline P = std::move(*PR);
    ++Compiled;
    AnalysisReport R = analyzeProgram(P.Checked);
    DisconnectVerdictTable T = R.verdictTable();
    // Elided + cross-checked vs plain traversal: any static verdict that
    // contradicts the runtime oracle makes the elided run stick (the
    // cross-check) or the results diverge — both fail here.
    uint64_t ElA = 0, ElB = 0;
    int64_t WithElision = runMain(P, &T, /*Elide=*/true, ElA);
    int64_t Traversal = runMain(P, &T, /*Elide=*/false, ElB);
    EXPECT_EQ(WithElision, Traversal) << Src;
    EXPECT_EQ(ElB, 0u);
  }
  EXPECT_GT(Compiled, 0) << "generator produced no checkable programs";
}

INSTANTIATE_TEST_SUITE_P(Seeds, StaticVsRuntime,
                         ::testing::Values(1, 2, 3, 7, 21, 42, 1234,
                                           987654321));

//===----------------------------------------------------------------------===//
// Call graph: SCC condensation, bottom-up order
//===----------------------------------------------------------------------===//

TEST(CallGraphTest, ChainIsBottomUpSingletons) {
  Pipeline P = mustCompile(R"(
struct gnode { next : gnode; }
def leaf(x : gnode) : int { 0 }
def mid(x : gnode) : int { leaf(x) }
def main() : int { let a = new gnode(); mid(a) }
)");
  CallGraph G = CallGraph::build(*P.Prog);
  ASSERT_EQ(G.sccs().size(), 3u);
  // Bottom-up: callees come before callers.
  EXPECT_LT(G.sccOf(sym(P, "leaf")), G.sccOf(sym(P, "mid")));
  EXPECT_LT(G.sccOf(sym(P, "mid")), G.sccOf(sym(P, "main")));
  EXPECT_EQ(G.edgeCount(), 2u);
  for (size_t I = 0; I < G.sccs().size(); ++I)
    EXPECT_FALSE(G.isRecursiveScc(I));
}

TEST(CallGraphTest, MutualRecursionIsOneRecursiveScc) {
  Pipeline P = mustCompile(R"(
struct gnode { next : gnode; }
def ping(x : gnode, n : int) : int {
  if (n < 1) { 0 } else { pong(x, n - 1) }
}
def pong(x : gnode, n : int) : int {
  if (n < 1) { 1 } else { ping(x, n - 1) }
}
def main() : int { let a = new gnode(); ping(a, 4) }
)");
  CallGraph G = CallGraph::build(*P.Prog);
  ASSERT_EQ(G.sccs().size(), 2u);
  EXPECT_EQ(G.sccOf(sym(P, "ping")), G.sccOf(sym(P, "pong")));
  EXPECT_TRUE(G.isRecursiveScc(G.sccOf(sym(P, "ping"))));
  EXPECT_LT(G.sccOf(sym(P, "ping")), G.sccOf(sym(P, "main")));
  // Self-loops count as recursive even in a singleton SCC.
  EXPECT_FALSE(G.isRecursiveScc(G.sccOf(sym(P, "main"))));
}

TEST(CallGraphTest, DedupesRepeatedCallSites) {
  Pipeline P = mustCompile(R"(
struct gnode { next : gnode; }
def leaf(x : gnode) : int { 0 }
def main() : int {
  let a = new gnode();
  let u = leaf(a);
  let w = leaf(a);
  u + w
}
)");
  CallGraph G = CallGraph::build(*P.Prog);
  EXPECT_EQ(G.callees(sym(P, "main")).size(), 1u);
  EXPECT_EQ(G.callSiteCount(sym(P, "main")), 2u);
}

//===----------------------------------------------------------------------===//
// Summaries: readers preserved, writers not
//===----------------------------------------------------------------------===//

TEST(SummaryTest, ReaderPreservesParameterWriterDoesNot) {
  Pipeline P = mustCompile(R"(
struct gnode { next : gnode; value : int; }
def peek(x : gnode) : int { x.value }
def relink(x : gnode) : int { x.next = new gnode(); x.value }
def main() : int { let a = new gnode(); peek(a) + relink(a) }
)");
  SummaryStats Stats;
  SummaryTable T = computeSummaries(P.Checked, &Stats);
  const FnSummary &Peek = T.at(sym(P, "peek"));
  ASSERT_TRUE(Peek.Valid);
  ASSERT_EQ(Peek.Params.size(), 1u);
  EXPECT_TRUE(Peek.Preserved[0]);
  EXPECT_FALSE(Peek.Consumed[0]);
  const FnSummary &Relink = T.at(sym(P, "relink"));
  ASSERT_TRUE(Relink.Valid);
  ASSERT_EQ(Relink.Params.size(), 1u);
  EXPECT_FALSE(Relink.Preserved[0]);
  EXPECT_EQ(Stats.Functions, 3u);
  EXPECT_EQ(Stats.Invalidated, 0u);
}

TEST(SummaryTest, RecursiveReaderFixpointStaysPreserved) {
  Pipeline P = mustCompile(R"(
struct gnode { next : gnode; value : int; }
def even_len(x : gnode, n : int) : int {
  if (n < 1) { x.value } else { odd_len(x, n - 1) }
}
def odd_len(x : gnode, n : int) : int {
  if (n < 1) { 0 } else { even_len(x, n - 1) }
}
def main() : int { let a = new gnode(); even_len(a, 4) }
)");
  SummaryStats Stats;
  SummaryTable T = computeSummaries(P.Checked, &Stats);
  EXPECT_EQ(Stats.RecursiveSccs, 1u);
  EXPECT_EQ(Stats.Invalidated, 0u);
  for (const char *Name : {"even_len", "odd_len"}) {
    const FnSummary &S = T.at(sym(P, Name));
    ASSERT_TRUE(S.Valid) << Name;
    ASSERT_EQ(S.Params.size(), 1u) << Name;
    EXPECT_TRUE(S.Preserved[0]) << Name;
  }
}

//===----------------------------------------------------------------------===//
// Run counts: analyzeProgram interprets each function body once per
// summary-engine visit, with no separate verdict pass
//===----------------------------------------------------------------------===//

TEST(SummaryRuns, AcyclicChainInterpretsEachFunctionOnce) {
  std::string Source = "struct gnode { next : gnode; value : int; }\n";
  for (int I = 0; I < 63; ++I)
    Source += "def f" + std::to_string(I) + "(x : gnode) : int { f" +
              std::to_string(I + 1) + "(x) }\n";
  Source += "def f63(x : gnode) : int { x.value }\n";
  Pipeline P = mustCompile(Source);
  AnalysisReport R = analyzeProgram(P.Checked);
  EXPECT_EQ(R.SummaryInfo.Functions, 64u);
  EXPECT_EQ(R.SummaryInfo.RecursiveSccs, 0u);
  EXPECT_EQ(R.SummaryInfo.EffectRuns, 64u);
}

TEST(SummaryRuns, RecursiveSccFixtureRunsItsFixpointOnly) {
  Pipeline P = mustCompile(slurp(std::string(FEARLESS_FIXTURES_DIR) +
                                 "/recursive_scc.fls"));
  AnalysisReport R = analyzeProgram(P.Checked);
  // even_len/odd_len only read `x`, so `x` stays preserved; the first
  // round still degrades even_len's x~result may-connect bit (its value
  // is read through `x`), and the second round changes nothing. Two
  // rounds over both members, then main once — no verdict pass on top.
  EXPECT_EQ(R.SummaryInfo.RecursiveSccs, 1u);
  EXPECT_EQ(R.SummaryInfo.Invalidated, 0u);
  const FnSummary &Even = R.Summaries.at(sym(P, "even_len"));
  EXPECT_TRUE(Even.Preserved[0]);
  EXPECT_TRUE(Even.mayConnect(0, Even.resultSlot()));
  EXPECT_EQ(R.SummaryInfo.EffectRuns, 2u * 2u + 1u);
  ASSERT_EQ(R.Sites.size(), 1u);
  EXPECT_EQ(R.Sites[0].Verdict, DisconnectVerdict::MustDisconnected);
}

TEST(SummaryRuns, CapFallbackReRunsAgainstTheBottom) {
  // Each round degrades one more parameter of `rot`: the write into p0
  // reaches p1 through the rotated self-call, then p2, and so on, so ten
  // parameters outlast the singleton cap of 4 * 1 + 4 rounds.
  std::string Params, Rotated;
  for (int I = 0; I < 10; ++I) {
    Params += std::string(I ? ", " : "") + "p" + std::to_string(I);
    Rotated += std::string(I ? ", " : "") + "p" + std::to_string((I + 1) % 10);
  }
  std::string Source = "struct gnode { next : gnode; }\n"
                       "def rot(" + Params + " : gnode, n : int) : int {\n"
                       "  p0.next = new gnode();\n"
                       "  let a = new gnode();\n"
                       "  let b = new gnode();\n"
                       "  a.next = b;\n"
                       "  a.next = a;\n"
                       "  let k = if (n < 1) { 0 } else { rot(" + Rotated +
                       ", n - 1) };\n"
                       "  if disconnected(a, b) { k } else { 1 }\n"
                       "}\n";
  Pipeline P = mustCompile(Source);
  AnalysisReport Inter = analyzeProgram(P.Checked);
  EXPECT_EQ(Inter.SummaryInfo.Invalidated, 1u);
  EXPECT_FALSE(Inter.Summaries.at(sym(P, "rot")).Valid);
  // Eight capped rounds, then the re-run against the signature havoc.
  EXPECT_EQ(Inter.SummaryInfo.EffectRuns, 8u + 1u);
  // `rot` only calls itself, so its re-run is exactly the
  // intra-procedural analysis.
  AnalysisOptions Intra;
  Intra.Interprocedural = false;
  AnalysisReport Bottom = analyzeProgram(P.Checked, Intra);
  ASSERT_EQ(Inter.Sites.size(), 1u);
  ASSERT_EQ(Bottom.Sites.size(), 1u);
  EXPECT_EQ(Inter.Sites[0].Verdict, Bottom.Sites[0].Verdict);
  ASSERT_EQ(Inter.Diags.size(), Bottom.Diags.size());
  for (size_t I = 0; I < Inter.Diags.size(); ++I)
    EXPECT_EQ(Inter.Diags[I].Message, Bottom.Diags[I].Message);
}

//===----------------------------------------------------------------------===//
// Interprocedural precision: strictly better on cross-call programs,
// never worse anywhere
//===----------------------------------------------------------------------===//

const char *CrossCallSource = R"(
struct gnode { next : gnode; value : int; }
def peek(x : gnode) : int { x.value }
def main() : int {
  let a = new gnode();
  let b = new gnode();
  a.next = b;
  a.next = a;
  let v = peek(a);
  if disconnected(a, b) { v + 1 } else { 0 }
}
)";

TEST(Interprocedural, CrossCallSiteFlipsFromUnknownToMust) {
  Pipeline P = mustCompile(CrossCallSource);
  AnalysisOptions Intra;
  Intra.Interprocedural = false;
  AnalysisReport RIntra = analyzeProgram(P.Checked, Intra);
  ASSERT_EQ(RIntra.Sites.size(), 1u);
  EXPECT_EQ(RIntra.Sites[0].Verdict, DisconnectVerdict::Unknown);

  AnalysisReport RInter = analyzeProgram(P.Checked);
  ASSERT_EQ(RInter.Sites.size(), 1u);
  EXPECT_EQ(RInter.Sites[0].Verdict,
            DisconnectVerdict::MustDisconnected);
}

TEST(Interprocedural, ElidedCrossCallRunMatchesTraversal) {
  Pipeline P = mustCompile(CrossCallSource);
  AnalysisReport R = analyzeProgram(P.Checked);
  DisconnectVerdictTable T = R.verdictTable();
  uint64_t Elided = 0;
  EXPECT_EQ(runMain(P, &T, /*Elide=*/true, Elided), 1);
  EXPECT_EQ(Elided, 1u); // answered from the interprocedural verdict
  EXPECT_EQ(runMain(P, &T, /*Elide=*/false, Elided), 1);
}

/// Every site must-decided intra-procedurally keeps the same verdict
/// interprocedurally: summaries only *refine* havoc, never contradict a
/// proof that did not depend on a call.
void expectNoDowngrade(const CheckedProgram &CP) {
  AnalysisOptions Intra;
  Intra.Interprocedural = false;
  AnalysisReport A = analyzeProgram(CP, Intra);
  AnalysisReport B = analyzeProgram(CP);
  ASSERT_EQ(A.Sites.size(), B.Sites.size());
  for (size_t I = 0; I < A.Sites.size(); ++I) {
    ASSERT_EQ(A.Sites[I].Site, B.Sites[I].Site);
    if (A.Sites[I].Verdict != DisconnectVerdict::Unknown) {
      EXPECT_EQ(B.Sites[I].Verdict, A.Sites[I].Verdict)
          << "site at " << toString(A.Sites[I].Loc);
    }
  }
}

TEST(Interprocedural, NoIntraMustVerdictDegrades) {
  // The embedded sample suites plus the random single-function sweep:
  // every intra must-* verdict survives the switch to summaries.
  for (const char *Source :
       {programs::SllSuite, programs::DllSuite, programs::RedBlackTree,
        programs::MessagePassing, programs::BitTrie, programs::Extras}) {
    Expected<Pipeline> P = compile(Source);
    ASSERT_TRUE(P.hasValue());
    expectNoDowngrade(P->Checked);
  }
  const uint64_t Seeds[] = {1, 2, 3, 7, 21, 42, 1234, 987654321};
  for (uint64_t Seed : Seeds) {
    std::mt19937_64 Rng(Seed);
    for (int I = 0; I < 6; ++I) {
      std::string Src = genProgram(Rng);
      Expected<Pipeline> P = compile(Src);
      if (!P)
        continue;
      expectNoDowngrade(P->Checked);
    }
  }
}

//===----------------------------------------------------------------------===//
// Interprocedural property sweep: multi-function programs, elision +
// cross-check vs the plain traversal
//===----------------------------------------------------------------------===//

/// A random two-function program: a helper that reads or writes its
/// parameter, and a main with a detach idiom, a call to the helper, and
/// a final `if disconnected` — the cross-call shape the summaries exist
/// for, with the helper's effect randomized so both the preserved and
/// the havoc paths run.
std::string genCallProgram(std::mt19937_64 &Rng) {
  bool Writes = Rng() % 2 == 0;
  bool Detach = Rng() % 2 == 0;
  std::string Helper;
  if (Writes)
    Helper = "def touch(x : gnode) : int {\n"
             "  x." +
             std::string(Rng() % 2 ? "a" : "b") +
             " = new gnode();\n  1\n}\n";
  else
    Helper = "def touch(x : gnode) : int {\n  let n = x.a;\n  2\n}\n";
  std::string S = "struct gnode { a : gnode; b : gnode; }\n" + Helper +
                  "def main() : int {\n"
                  "  let u = new gnode();\n"
                  "  let w = new gnode();\n"
                  "  u.a = w;\n";
  if (Detach)
    S += "  u.a = u;\n";
  S += "  let t = touch(u);\n"
       "  if disconnected(u, w) { t + 10 } else { t }\n}\n";
  return S;
}

class InterproceduralVsRuntime
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InterproceduralVsRuntime, ElisionAgreesWithTraversalOracle) {
  std::mt19937_64 Rng(GetParam());
  int Compiled = 0;
  for (int I = 0; I < 8; ++I) {
    std::string Src = genCallProgram(Rng);
    Expected<Pipeline> PR = compile(Src);
    ASSERT_TRUE(PR.hasValue()) << Src;
    Pipeline P = std::move(*PR);
    ++Compiled;
    AnalysisReport R = analyzeProgram(P.Checked);
    DisconnectVerdictTable T = R.verdictTable();
    uint64_t ElA = 0, ElB = 0;
    int64_t WithElision = runMain(P, &T, /*Elide=*/true, ElA);
    int64_t Traversal = runMain(P, &T, /*Elide=*/false, ElB);
    EXPECT_EQ(WithElision, Traversal) << Src;
    EXPECT_EQ(ElB, 0u);
  }
  EXPECT_GT(Compiled, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterproceduralVsRuntime,
                         ::testing::Values(1, 2, 3, 7, 21, 42, 1234,
                                           987654321));

TEST(StaticVsRuntimeDiversity, AllThreeVerdictsAppearAcrossSeeds) {
  // The sweep is only meaningful if the generator actually exercises
  // every verdict; tally the static classifications across all seeds.
  const uint64_t Seeds[] = {1, 2, 3, 7, 21, 42, 1234, 987654321};
  int Counts[3] = {0, 0, 0};
  for (uint64_t Seed : Seeds) {
    std::mt19937_64 Rng(Seed);
    for (int I = 0; I < 6; ++I) {
      std::string Src = genProgram(Rng);
      Expected<Pipeline> PR = compile(Src);
      if (!PR)
        continue;
      AnalysisReport R = analyzeProgram(PR->Checked);
      for (const SiteReport &Site : R.Sites)
        ++Counts[static_cast<int>(Site.Verdict)];
    }
  }
  EXPECT_GT(Counts[static_cast<int>(DisconnectVerdict::Unknown)], 0);
  EXPECT_GT(Counts[static_cast<int>(DisconnectVerdict::MustDisconnected)],
            0);
  EXPECT_GT(Counts[static_cast<int>(DisconnectVerdict::MustConnected)], 0);
}

} // namespace
