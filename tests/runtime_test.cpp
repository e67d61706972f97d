//===- tests/runtime_test.cpp ---------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// The small-step semantics of §3.2: expression evaluation, heap defaults
// (including the self-referencing circular node of Fig. 3), stored
// reference counts maintained only on field assignment, stuck states on
// runtime faults, and the erasable reservation checks.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace fearless;
using namespace fearless::testutil;

namespace {

/// Compiles a program with a `main` entry and runs it.
Expected<MachineSummary> runMain(std::string_view Source,
                                 std::vector<Value> Args = {},
                                 Machine **MOut = nullptr) {
  Expected<Pipeline> P = compile(Source);
  if (!P)
    return P.takeFailure();
  static std::vector<std::unique_ptr<Pipeline>> Keep;
  static std::vector<std::unique_ptr<Machine>> Machines;
  Keep.push_back(std::make_unique<Pipeline>(std::move(*P)));
  Machines.push_back(std::make_unique<Machine>(Keep.back()->Checked));
  Machine &M = *Machines.back();
  if (MOut)
    *MOut = &M;
  M.spawn(Keep.back()->Prog->Names.intern("main"), std::move(Args));
  return M.run();
}

TEST(Runtime, Arithmetic) {
  auto R = runMain("def main() : int { (3 + 4) * 2 - 10 / 2 % 3 }");
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  EXPECT_EQ(R->ThreadResults[0], Value::intVal(14 - (10 / 2) % 3));
}

TEST(Runtime, ShortCircuitAvoidsDivisionByZero) {
  auto R = runMain(
      "def main(a : int) : bool { a != 0 && 10 / a > 1 }",
      {Value::intVal(0)});
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  EXPECT_EQ(R->ThreadResults[0], Value::boolVal(false));
}

TEST(Runtime, DivisionByZeroIsStuck) {
  auto R = runMain("def main(a : int) : int { 10 / a }",
                   {Value::intVal(0)});
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().Message.find("division by zero"),
            std::string::npos);
}

TEST(Runtime, WhileAndAssignment) {
  auto R = runMain(R"(
def main(n : int) : int {
  let total = 0;
  let i = 1;
  while (i <= n) {
    total = total + i;
    i = i + 1
  };
  total
}
)",
                   {Value::intVal(10)});
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  EXPECT_EQ(R->ThreadResults[0], Value::intVal(55));
}

TEST(Runtime, RecursionAndCalls) {
  auto R = runMain(R"(
def fib(n : int) : int {
  if (n < 2) { n } else { fib(n - 1) + fib(n - 2) }
}
def main() : int { fib(15) }
)");
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  EXPECT_EQ(R->ThreadResults[0], Value::intVal(610));
}

TEST(Runtime, NewDefaultsSelfReferenceIsCircular) {
  Machine *M = nullptr;
  auto R = runMain(R"(
struct data { value : int; }
struct dll_node {
  iso payload : data;
  next : dll_node;
  prev : dll_node;
}
def main() : dll_node {
  new dll_node(new data(9))
}
)",
                   {}, &M);
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  ASSERT_TRUE(R->ThreadResults[0].isLoc());
  Loc Node = R->ThreadResults[0].asLoc();
  const Object &O = M->heap().get(Node);
  // Fig. 3's size-1 circular list: next and prev are self-references, and
  // the stored refcount counts both.
  const FieldInfo *Next = O.Struct->findField(
      M->heap().structs().lookup(O.Struct->Name)->Fields[1].Name);
  (void)Next;
  EXPECT_EQ(O.Fields[1], Value::locVal(Node));
  EXPECT_EQ(O.Fields[2], Value::locVal(Node));
  EXPECT_EQ(O.StoredRefCount, 2u);
}

TEST(Runtime, MaybeSemantics) {
  auto R = runMain(R"(
struct data { value : int; }
struct box { iso item : data?; }
def main() : int {
  let b = new box();
  let was_empty = is_none(b.item);
  b.item = some new data(5);
  let some(d) = b.item in {
    if (was_empty) { d.value } else { -1 }
  } else { -2 }
}
)");
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  EXPECT_EQ(R->ThreadResults[0], Value::intVal(5));
}

TEST(Runtime, HeapExhaustionIsDiagnosedNotUndefined) {
  // A full heap must refuse the allocation (and the VM turn it
  // into a stuck-state diagnostic), not write past the block directory —
  // the old assert vanished under NDEBUG.
  Pipeline P = mustCompile("struct data { value : int; }\n"
                           "def main() : unit { }");
  Heap Small(P.Checked.Structs, /*MaxObjects=*/1);
  Symbol DataSym = sym(P, "data");
  size_t Capacity = Small.capacity(); // rounds up to one block
  for (size_t I = 0; I < Capacity; ++I)
    ASSERT_TRUE(Small.allocate(DataSym).isValid());
  EXPECT_FALSE(Small.allocate(DataSym).isValid());
  EXPECT_EQ(Small.size(), Capacity);
}

TEST(Runtime, AllocatingUnknownStructFailsCleanly) {
  Pipeline P = mustCompile("struct data { value : int; }\n"
                           "def main() : unit { }");
  Heap H(P.Checked.Structs);
  EXPECT_FALSE(H.allocate(P.Prog->Names.intern("no_such_struct"))
                   .isValid());
}

TEST(Runtime, StoredRefCountsFollowFieldAssignment) {
  Machine *M = nullptr;
  auto R = runMain(R"(
struct data { value : int; }
struct node {
  iso payload : data;
  next : node;
}
def main() : node {
  let a = new node(new data(1));
  let b = new node(new data(2));
  a.next = b;   // b: +1, a: -1 (self-ref overwritten)
  b.next = a;   // a: +1, b: -1
  a
}
)",
                   {}, &M);
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  // Ground truth must match the incrementally maintained counts.
  std::vector<uint32_t> Truth = M->heap().recomputeRefCounts();
  for (uint32_t I = 0; I < Truth.size(); ++I)
    EXPECT_EQ(M->heap().get(Loc{I}).StoredRefCount, Truth[I]) << I;
}

TEST(Runtime, LiveSetFollowsAllFields) {
  Machine *M = nullptr;
  auto R = runMain(R"(
struct data { value : int; }
struct node { iso payload : data; iso next : node?; }
def main() : node {
  new node(new data(1), some new node(new data(2), none))
}
)",
                   {}, &M);
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  std::vector<Loc> Live = M->heap().liveSet(R->ThreadResults[0].asLoc());
  // Two nodes + two payloads.
  EXPECT_EQ(Live.size(), 4u);
}

TEST(Runtime, ReservationTableBehavesLikeASet) {
  ReservationTable R;
  EXPECT_TRUE(R.empty());
  EXPECT_EQ(R.count(7), 0u);
  R.insert(7);
  R.insert(3);
  R.insert(7); // duplicate insert is a no-op
  EXPECT_EQ(R.size(), 2u);
  EXPECT_EQ(R.count(7), 1u);
  EXPECT_EQ(R.count(3), 1u);
  EXPECT_EQ(R.count(4), 0u);

  std::vector<uint32_t> Seen(R.begin(), R.end());
  EXPECT_EQ(Seen, (std::vector<uint32_t>{3, 7}));

  R.erase(7);
  EXPECT_EQ(R.count(7), 0u);
  EXPECT_EQ(R.size(), 1u);
  R.erase(7); // double erase is a no-op
  EXPECT_EQ(R.size(), 1u);

  // clear() is an O(1) epoch bump; membership and re-insertion must
  // behave as if the stamps were wiped.
  R.clear();
  EXPECT_TRUE(R.empty());
  EXPECT_EQ(R.count(3), 0u);
  EXPECT_EQ(std::distance(R.begin(), R.end()), 0);
  R.insert(3);
  EXPECT_EQ(R.count(3), 1u);

  // Copy semantics (tests hand reservations between threads this way).
  ReservationTable Copy = R;
  Copy.insert(9);
  EXPECT_EQ(Copy.size(), 2u);
  EXPECT_EQ(R.size(), 1u);
}

TEST(Runtime, LiveSetIntoReusesBuffers) {
  Machine *M = nullptr;
  auto R = runMain(R"(
struct data { value : int; }
struct node { iso payload : data; iso next : node?; }
def main() : node {
  new node(new data(1), some new node(new data(2), none))
}
)",
                   {}, &M);
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().render());
  Loc Root = R->ThreadResults[0].asLoc();
  std::vector<Loc> Out;
  EpochSet Seen;
  M->heap().liveSetInto(Root, Out, Seen);
  EXPECT_EQ(Out.size(), 4u);
  const Loc *DataBefore = Out.data();
  // A second collection into the same buffers must reuse the capacity
  // (and, trivially, produce the same set).
  M->heap().liveSetInto(Root, Out, Seen);
  EXPECT_EQ(Out.size(), 4u);
  EXPECT_EQ(Out.data(), DataBefore);
  // Invalid root: empty result, no fault.
  M->heap().liveSetInto(Loc::invalid(), Out, Seen);
  EXPECT_TRUE(Out.empty());
}

TEST(Runtime, DeterministicAcrossSeeds) {
  const char *Source = R"(
def work(n : int) : int {
  let acc = 0;
  let i = 0;
  while (i < n) { acc = acc + i * i; i = i + 1 };
  acc
}
)";
  Expected<Pipeline> P = compile(Source);
  ASSERT_TRUE(P.hasValue());
  Value First;
  for (uint64_t Seed : {0u, 1u, 42u}) {
    Machine M(P->Checked);
    M.spawn(P->Prog->Names.intern("work"), {Value::intVal(50)});
    Expected<MachineSummary> R = M.run(Seed);
    ASSERT_TRUE(R.hasValue());
    if (Seed == 0)
      First = R->ThreadResults[0];
    else
      EXPECT_EQ(R->ThreadResults[0], First);
  }
}

TEST(Runtime, BytecodeModeMismatchIsReported) {
  Pipeline P = mustCompile("def main() : int { 7 }");
  for (bool Checks : {true, false}) {
    // Bytecode of the other mode: erased code for a checked run, and
    // checked code for an erased one.
    vm::CompileOptions VO;
    VO.EmitChecks = !Checks;
    Expected<vm::CompiledProgram> Code = vm::compileProgram(P.Checked, VO);
    ASSERT_TRUE(Code.hasValue());
    MachineOptions MO;
    MO.CheckReservations = Checks;
    MO.VmCode = &*Code;
    std::string Want = std::string("bytecode mode mismatch: reservation "
                                   "checks are ") +
                       (Checks ? "on" : "off") + " but the bytecode is " +
                       (Checks ? "erased" : "checked");

    Machine Run(P.Checked, MO);
    Run.spawn(sym(P, "main"));
    Expected<MachineSummary> R = Run.run();
    ASSERT_FALSE(R.hasValue()) << "checks " << Checks;
    EXPECT_EQ(R.error().Message, Want);

    Machine Stepped(P.Checked, MO);
    Stepped.spawn(sym(P, "main"));
    ExpectedVoid Begin = Stepped.beginStepping();
    ASSERT_FALSE(Begin.hasValue()) << "checks " << Checks;
    EXPECT_EQ(Begin.error().Message, Want);

    // The matching mode runs.
    MO.CheckReservations = !Checks;
    Machine Matched(P.Checked, MO);
    Matched.spawn(sym(P, "main"));
    Expected<MachineSummary> Ok = Matched.run();
    ASSERT_TRUE(Ok.hasValue()) << (Ok ? "" : Ok.error().render());
    EXPECT_EQ(Ok->ThreadResults[0], Value::intVal(7));
  }
}

} // namespace
