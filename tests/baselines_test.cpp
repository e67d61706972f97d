//===- tests/baselines_test.cpp -------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// The Table 1 comparison (§9.5), derived mechanically: the global-
// domination baseline (LaCasa row) rejects sll remove_tail but represents
// the dll; the affine baseline (Rust/Unique row) accepts sll but cannot
// represent the dll; this paper's checker accepts both.
//
//===----------------------------------------------------------------------===//

#include "baselines/AffineChecker.h"
#include "baselines/GlobalDomChecker.h"
#include "driver/Driver.h"
#include "parser/Parser.h"

#include <gtest/gtest.h>

using namespace fearless;

namespace {

struct BaselineFixture : ::testing::Test {
  std::optional<Program> parse(const char *Source) {
    DiagnosticEngine Diags;
    auto P = parseProgram(Source, Diags);
    EXPECT_TRUE(P.has_value()) << Diags.renderAll();
    return P;
  }
};

TEST_F(BaselineFixture, GlobalDomRejectsSllRemoveTail) {
  auto P = parse(programs::SllSuite);
  StructTable Structs;
  DiagnosticEngine Diags;
  ASSERT_TRUE(Structs.build(*P, Diags));
  const FnDecl *RemoveTail = P->findFunction(P->Names.intern("remove_tail"));
  ASSERT_NE(RemoveTail, nullptr);
  BaselineResult R = globalDomCheckFunction(*P, Structs, *RemoveTail);
  EXPECT_FALSE(R.Accepted);
  ASSERT_FALSE(R.Errors.empty());
  EXPECT_NE(R.Errors[0].Message.find("destructive read"),
            std::string::npos);
}

TEST_F(BaselineFixture, GlobalDomRepresentsDll) {
  auto P = parse(programs::DllSuite);
  StructTable Structs;
  DiagnosticEngine Diags;
  ASSERT_TRUE(Structs.build(*P, Diags));
  for (const StructDecl &S : P->Structs)
    EXPECT_TRUE(globalDomCheckStruct(*P, Structs, S).Accepted);
}

TEST_F(BaselineFixture, GlobalDomAcceptsFreshIsoStores) {
  auto P = parse(R"(
struct data { value : int; }
struct box { iso item : data?; }
def fill(b : box) : unit {
  b.item = some new data(1);
}
)");
  StructTable Structs;
  DiagnosticEngine Diags;
  ASSERT_TRUE(Structs.build(*P, Diags));
  BaselineResult R = globalDomCheckProgram(*P, Structs);
  EXPECT_TRUE(R.Accepted);
}

TEST_F(BaselineFixture, GlobalDomRejectsAliasedIsoStores) {
  auto P = parse(R"(
struct data { value : int; }
struct box { iso item : data?; }
def steal(b : box, d : data) : unit {
  b.item = some d;
}
)");
  StructTable Structs;
  DiagnosticEngine Diags;
  ASSERT_TRUE(Structs.build(*P, Diags));
  BaselineResult R = globalDomCheckProgram(*P, Structs);
  EXPECT_FALSE(R.Accepted);
}

TEST_F(BaselineFixture, GlobalDomRejectsIfDisconnected) {
  auto P = parse(programs::DllSuite);
  StructTable Structs;
  DiagnosticEngine Diags;
  ASSERT_TRUE(Structs.build(*P, Diags));
  const FnDecl *RemoveTail = P->findFunction(P->Names.intern("remove_tail"));
  BaselineResult R = globalDomCheckFunction(*P, Structs, *RemoveTail);
  EXPECT_FALSE(R.Accepted);
}

TEST_F(BaselineFixture, AffineRejectsDllRepresentation) {
  auto P = parse(programs::DllSuite);
  StructTable Structs;
  DiagnosticEngine Diags;
  ASSERT_TRUE(Structs.build(*P, Diags));
  const StructDecl *Node = P->findStruct(P->Names.intern("dll_node"));
  ASSERT_NE(Node, nullptr);
  BaselineResult R = affineCheckStruct(*P, Structs, *Node);
  EXPECT_FALSE(R.Accepted);
  EXPECT_NE(R.Errors[0].Message.find("aliasing"), std::string::npos);
}

TEST_F(BaselineFixture, AffineAcceptsSllSuite) {
  auto P = parse(programs::SllSuite);
  StructTable Structs;
  DiagnosticEngine Diags;
  ASSERT_TRUE(Structs.build(*P, Diags));
  BaselineResult R = affineCheckProgram(*P, Structs);
  EXPECT_TRUE(R.Accepted) << (R.Errors.empty()
                                  ? ""
                                  : R.Errors[0].Message);
}

TEST_F(BaselineFixture, AffineCatchesUseAfterMove) {
  auto P = parse(R"(
struct data { value : int; }
struct node { iso payload : data; iso next : node?; }
def f(a : node, b : node) : unit {
  a.next = some b;
  b.next = none;
}
)");
  StructTable Structs;
  DiagnosticEngine Diags;
  ASSERT_TRUE(Structs.build(*P, Diags));
  BaselineResult R = affineCheckProgram(*P, Structs);
  EXPECT_FALSE(R.Accepted);
  EXPECT_NE(R.Errors[0].Message.find("moved"), std::string::npos);
}

/// The Table 1 matrix per function: both baselines' verdict and error
/// count on every function of the six sample programs.
TEST_F(BaselineFixture, VerdictsOnEverySampleFunction) {
  const std::pair<const char *, const char *> Samples[] = {
      {"sll", programs::SllSuite},
      {"dll", programs::DllSuite},
      {"rbtree", programs::RedBlackTree},
      {"msg", programs::MessagePassing},
      {"trie", programs::BitTrie},
      {"extras", programs::Extras},
  };
  auto Verdict = [](const BaselineResult &R) {
    return (R.Accepted ? "accept(" : "reject(") +
           std::to_string(R.Errors.size()) + ")";
  };
  std::string Matrix;
  for (const auto &[Name, Source] : Samples) {
    auto P = parse(Source);
    ASSERT_TRUE(P.has_value()) << Name;
    StructTable Structs;
    DiagnosticEngine Diags;
    ASSERT_TRUE(Structs.build(*P, Diags)) << Name;
    for (const FnDecl &F : P->Functions)
      Matrix += std::string(Name) + "." + P->Names.spelling(F.Name) +
                " affine=" + Verdict(affineCheckFunction(*P, Structs, F)) +
                " globaldom=" +
                Verdict(globalDomCheckFunction(*P, Structs, F)) + "\n";
  }
  EXPECT_EQ(Matrix, R"(sll.sll_new affine=accept(0) globaldom=accept(0)
sll.node_new affine=accept(0) globaldom=accept(0)
sll.push_front affine=accept(0) globaldom=reject(2)
sll.pop_front affine=accept(0) globaldom=reject(4)
sll.remove_tail affine=accept(0) globaldom=reject(3)
sll.list_remove_tail affine=accept(0) globaldom=reject(3)
sll.concat affine=accept(0) globaldom=reject(2)
sll.length_node affine=accept(0) globaldom=reject(1)
sll.length affine=accept(0) globaldom=reject(1)
sll.sum_node affine=accept(0) globaldom=reject(3)
sll.sum affine=accept(0) globaldom=reject(1)
sll.nth_value_node affine=accept(0) globaldom=reject(2)
sll.nth_value affine=accept(0) globaldom=reject(1)
dll.dll_new affine=accept(0) globaldom=accept(0)
dll.dll_singleton affine=accept(0) globaldom=reject(1)
dll.push_front affine=reject(4) globaldom=reject(3)
dll.push_back affine=reject(4) globaldom=reject(3)
dll.remove_tail affine=reject(7) globaldom=reject(5)
dll.get_nth_node affine=accept(0) globaldom=reject(1)
dll.length affine=accept(0) globaldom=reject(1)
dll.pvalue affine=accept(0) globaldom=reject(1)
dll.is_last affine=accept(0) globaldom=accept(0)
dll.value_at affine=accept(0) globaldom=reject(2)
dll.remove_next affine=reject(5) globaldom=reject(5)
dll.set_value_at affine=accept(0) globaldom=reject(1)
dll.insert_after affine=reject(3) globaldom=accept(0)
rbtree.rb_new affine=accept(0) globaldom=accept(0)
rbtree.rb_node_new affine=accept(0) globaldom=accept(0)
rbtree.rb_value affine=accept(0) globaldom=reject(1)
rbtree.rotate_left affine=reject(4) globaldom=reject(1)
rbtree.rotate_right affine=reject(4) globaldom=reject(1)
rbtree.bst_insert affine=reject(4) globaldom=accept(0)
rbtree.uncle_red_right affine=accept(0) globaldom=accept(0)
rbtree.uncle_red_left affine=accept(0) globaldom=accept(0)
rbtree.blacken_right affine=accept(0) globaldom=accept(0)
rbtree.blacken_left affine=accept(0) globaldom=accept(0)
rbtree.rb_fixup affine=accept(0) globaldom=reject(1)
rbtree.rb_insert affine=accept(0) globaldom=reject(2)
rbtree.node_contains affine=accept(0) globaldom=accept(0)
rbtree.rb_contains affine=accept(0) globaldom=reject(1)
rbtree.node_min affine=accept(0) globaldom=accept(0)
rbtree.rb_min affine=accept(0) globaldom=reject(1)
rbtree.node_size affine=accept(0) globaldom=accept(0)
rbtree.rb_size affine=accept(0) globaldom=reject(1)
rbtree.node_height affine=accept(0) globaldom=accept(0)
rbtree.rb_height affine=accept(0) globaldom=reject(1)
rbtree.check_node affine=accept(0) globaldom=accept(0)
rbtree.shuffle affine=reject(9) globaldom=accept(0)
rbtree.rb_check affine=accept(0) globaldom=reject(1)
msg.sll_new affine=accept(0) globaldom=accept(0)
msg.node_new affine=accept(0) globaldom=accept(0)
msg.push_front affine=accept(0) globaldom=reject(2)
msg.pop_front affine=accept(0) globaldom=reject(4)
msg.remove_tail affine=accept(0) globaldom=reject(3)
msg.list_remove_tail affine=accept(0) globaldom=reject(3)
msg.concat affine=accept(0) globaldom=reject(2)
msg.length_node affine=accept(0) globaldom=reject(1)
msg.length affine=accept(0) globaldom=reject(1)
msg.sum_node affine=accept(0) globaldom=reject(3)
msg.sum affine=accept(0) globaldom=reject(1)
msg.nth_value_node affine=accept(0) globaldom=reject(2)
msg.nth_value affine=accept(0) globaldom=reject(1)
msg.producer affine=reject(1) globaldom=accept(0)
msg.consumer affine=accept(0) globaldom=accept(0)
msg.producer_lists affine=reject(1) globaldom=accept(0)
msg.consumer_lists affine=accept(0) globaldom=accept(0)
msg.worker affine=accept(0) globaldom=accept(0)
msg.reducer affine=accept(0) globaldom=accept(0)
msg.relay affine=accept(0) globaldom=accept(0)
trie.trie_new affine=accept(0) globaldom=accept(0)
trie.node_insert affine=accept(0) globaldom=reject(4)
trie.trie_insert affine=accept(0) globaldom=reject(2)
trie.node_lookup affine=accept(0) globaldom=reject(2)
trie.trie_lookup affine=accept(0) globaldom=reject(1)
trie.node_count affine=accept(0) globaldom=reject(2)
trie.trie_count affine=accept(0) globaldom=reject(1)
trie.trie_send_zero_subtree affine=accept(0) globaldom=reject(2)
trie.trie_recv_counter affine=accept(0) globaldom=accept(0)
extras.sll_new affine=accept(0) globaldom=accept(0)
extras.node_new affine=accept(0) globaldom=accept(0)
extras.push_front affine=accept(0) globaldom=reject(2)
extras.pop_front affine=accept(0) globaldom=reject(4)
extras.remove_tail affine=accept(0) globaldom=reject(3)
extras.list_remove_tail affine=accept(0) globaldom=reject(3)
extras.concat affine=accept(0) globaldom=reject(2)
extras.length_node affine=accept(0) globaldom=reject(1)
extras.length affine=accept(0) globaldom=reject(1)
extras.sum_node affine=accept(0) globaldom=reject(3)
extras.sum affine=accept(0) globaldom=reject(1)
extras.nth_value_node affine=accept(0) globaldom=reject(2)
extras.nth_value affine=accept(0) globaldom=reject(1)
extras.node_value affine=accept(0) globaldom=reject(1)
extras.reverse affine=accept(0) globaldom=reject(8)
extras.ins affine=accept(0) globaldom=reject(5)
extras.insert_sorted affine=accept(0) globaldom=reject(5)
extras.sort_into affine=accept(0) globaldom=reject(3)
extras.holder_push affine=accept(0) globaldom=reject(2)
extras.holder_sum affine=accept(0) globaldom=reject(1)
extras.is_sorted_from affine=accept(0) globaldom=reject(1)
extras.is_sorted affine=accept(0) globaldom=reject(1)
extras.holder_len affine=accept(0) globaldom=reject(1)
extras.queue_new affine=accept(0) globaldom=accept(0)
extras.enqueue affine=accept(0) globaldom=reject(1)
extras.dequeue affine=accept(0) globaldom=reject(12)
extras.queue_drain_sum affine=accept(0) globaldom=accept(0)
)");
}

TEST_F(BaselineFixture, ThisPaperAcceptsBoth) {
  EXPECT_TRUE(compile(programs::SllSuite).hasValue());
  EXPECT_TRUE(compile(programs::DllSuite).hasValue());
}

} // namespace
