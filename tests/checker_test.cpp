//===- tests/checker_test.cpp ---------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//
//
// End-to-end checker tests on the paper's flagship programs: the sll and
// dll suites must be accepted (and verified), Fig. 4's broken remove_tail
// must be rejected, and a battery of targeted ill-typed programs must
// each fail with the right kind of diagnostic.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"

#include <gtest/gtest.h>

using namespace fearless;

namespace {

/// Compiles and expects success; returns the pipeline.
Pipeline compileOk(std::string_view Source) {
  Expected<Pipeline> Result = compile(Source);
  EXPECT_TRUE(Result.hasValue())
      << (Result.hasValue() ? "" : Result.error().render());
  if (!Result)
    return Pipeline{};
  return std::move(*Result);
}

/// Compiles and expects failure; returns the diagnostic message.
std::string compileErr(std::string_view Source) {
  Expected<Pipeline> Result = compile(Source);
  EXPECT_FALSE(Result.hasValue()) << "expected a type error";
  if (Result)
    return "";
  return Result.error().Message;
}

TEST(Checker, SllSuiteChecks) {
  Pipeline P = compileOk(programs::SllSuite);
  ASSERT_NE(P.Prog, nullptr);
  EXPECT_EQ(P.Checked.Functions.size(), P.Prog->Functions.size());
  EXPECT_GT(P.Verified.StepsChecked, 0u);
  EXPECT_GT(P.Verified.VirtualStepsChecked, 0u);
}

TEST(Checker, DllSuiteChecks) {
  Pipeline P = compileOk(programs::DllSuite);
  ASSERT_NE(P.Prog, nullptr);
  EXPECT_EQ(P.Checked.Functions.size(), P.Prog->Functions.size());
}

TEST(Checker, RedBlackTreeChecks) {
  Pipeline P = compileOk(programs::RedBlackTree);
  ASSERT_NE(P.Prog, nullptr);
}

TEST(Checker, MessagePassingChecks) {
  Pipeline P = compileOk(programs::MessagePassing);
  ASSERT_NE(P.Prog, nullptr);
}

TEST(Checker, BitTrieChecks) {
  Pipeline P = compileOk(programs::BitTrie);
  ASSERT_NE(P.Prog, nullptr);
}

TEST(Checker, ExtrasCheck) {
  Pipeline P = compileOk(programs::Extras);
  ASSERT_NE(P.Prog, nullptr);
}

TEST(Checker, Fig4BrokenRemoveTailRejected) {
  std::string Err = compileErr(programs::DllBrokenRemoveTail);
  EXPECT_NE(Err.find("remove_tail"), std::string::npos) << Err;
}

/// The resolver's full rendered output, text and order, with one program
/// per child position it descends into: a walk that skips a child, or
/// visits children out of order, changes the message.
TEST(Resolver, DiagnosticsInEveryChildPosition) {
  // The body under test starts on line 5, column 3.
  const std::string Prelude =
      "struct data { value : int; }\n"
      "struct box { iso item : data?; }\n"
      "def g(x : data) : unit { unit }\n"
      "def f(b : box, d : data, c : bool, n : int) : unit {\n  ";
  struct Case {
    const char *Body;
    const char *Expected;
  };
  const Case Cases[] = {
      // Field base and both assignment forms.
      {"n = nope.value;",
       "error: use of undeclared variable 'nope' at 5:7"},
      {"n = nope;", "error: use of undeclared variable 'nope' at 5:7"},
      {"m = n;", "error: use of undeclared variable 'm' at 5:5"},
      {"nope.value = nope2;",
       "error: use of undeclared variable 'nope' at 5:3\n"
       "error: use of undeclared variable 'nope2' at 5:16"},
      // `if`: condition, then and else; `while`: condition and body.
      {"if (nope) { unit } else { unit }",
       "error: use of undeclared variable 'nope' at 5:7"},
      {"if (c) { nope } else { nope2 }",
       "error: use of undeclared variable 'nope' at 5:12\n"
       "error: use of undeclared variable 'nope2' at 5:26"},
      {"if (c) { unit } else if (nope) { unit }",
       "error: use of undeclared variable 'nope' at 5:28"},
      {"while (nope) { nope2 }",
       "error: use of undeclared variable 'nope' at 5:10\n"
       "error: use of undeclared variable 'nope2' at 5:18"},
      // `new` and call arguments, and their own checks.
      {"let x = new data(nope) in { unit }",
       "error: use of undeclared variable 'nope' at 5:20"},
      {"let x = new data(1, 2) in { unit }",
       "error: 'new data' takes 0 (required fields) or 1 (all fields) "
       "arguments, got 2 at 5:11"},
      {"let x = new nope(nope2) in { unit }",
       "error: unknown struct 'nope' at 5:11"},
      {"g(nope)", "error: use of undeclared variable 'nope' at 5:5"},
      {"g(nope, d)", "error: function 'g' takes 1 arguments, got 2 at 5:3\n"
                     "error: use of undeclared variable 'nope' at 5:5"},
      {"nope(d)", "error: call to unknown function 'nope' at 5:3"},
      // `some`, `is_none`, `send`, `recv`.
      {"b.item = some nope;",
       "error: use of undeclared variable 'nope' at 5:17"},
      {"c = is_none(nope);",
       "error: use of undeclared variable 'nope' at 5:15"},
      {"send(nope)", "error: use of undeclared variable 'nope' at 5:8"},
      {"let x = recv<nope>() in { unit }",
       "error: unknown struct type 'nope' at 5:11"},
      // Binary and unary operands.
      {"n = nope + nope2;",
       "error: use of undeclared variable 'nope' at 5:7\n"
       "error: use of undeclared variable 'nope2' at 5:14"},
      {"n = -nope;", "error: use of undeclared variable 'nope' at 5:8"},
      {"c = !nope;", "error: use of undeclared variable 'nope' at 5:8"},
      // `if disconnected`: both variables, then both branches.
      {"if disconnected(nope, nope2) { nope3 } else { nope4 }",
       "error: use of undeclared variable 'nope' at 5:3\n"
       "error: use of undeclared variable 'nope2' at 5:3\n"
       "error: use of undeclared variable 'nope3' at 5:34\n"
       "error: use of undeclared variable 'nope4' at 5:49"},
      // `let`: the initializer is outside the binder's scope, a shadowing
      // binder hides its body, and the binder ends with its body.
      {"let n = nope; nope2",
       "error: use of undeclared variable 'nope' at 5:11\n"
       "error: shadowing of variable 'n' is not allowed at 5:3"},
      {"let x : nope = d; unit", "error: unknown struct type 'nope' at 5:3"},
      {"let x = x; unit", "error: use of undeclared variable 'x' at 5:11"},
      {"let x = 1 in { unit }; x",
       "error: use of undeclared variable 'x' at 5:26"},
      // `let some`: scrutinee, shadowing, and a binder that the `else`
      // branch does not see.
      {"let some(x) = nope in { unit } else { unit }",
       "error: use of undeclared variable 'nope' at 5:17"},
      {"let some(d) = b.item in { nope } else { unit }",
       "error: shadowing of variable 'd' is not allowed at 5:3"},
      {"let some(x) = b.item in { nope } else { x }",
       "error: use of undeclared variable 'nope' at 5:29\n"
       "error: use of undeclared variable 'x' at 5:43"},
      // A block reports its elements' diagnostics in order.
      {"n = nope; n = nope2; nope3",
       "error: use of undeclared variable 'nope' at 5:7\n"
       "error: use of undeclared variable 'nope2' at 5:17\n"
       "error: use of undeclared variable 'nope3' at 5:24"},
  };
  for (const Case &C : Cases) {
    Expected<FrontendResult> R = checkSource(Prelude + C.Body + "\n}\n");
    ASSERT_FALSE(R.hasValue()) << C.Body;
    EXPECT_EQ(R.error().Message, std::string(C.Expected) + "\n") << C.Body;
  }
}

} // namespace
