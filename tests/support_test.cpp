//===- tests/support_test.cpp ---------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "HeapCount.h"
#include "support/ChunkedVector.h"
#include "support/Expected.h"
#include "support/FlatMap.h"
#include "support/Interner.h"
#include "support/JsonEscape.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

using namespace fearless;

namespace {

TEST(Expected, ValueRoundTrip) {
  Expected<int> Ok = 42;
  ASSERT_TRUE(Ok.hasValue());
  EXPECT_EQ(*Ok, 42);
  EXPECT_EQ(Ok.take(), 42);
}

TEST(Expected, ErrorCarriesDiagnostic) {
  Expected<int> Err = fail("something broke", SourceLoc{3, 7});
  ASSERT_FALSE(Err.hasValue());
  EXPECT_EQ(Err.error().Message, "something broke");
  EXPECT_EQ(Err.error().Loc.Line, 3u);
  EXPECT_NE(Err.error().render().find("3:7"), std::string::npos);
}

TEST(Expected, FailurePropagatesAcrossTypes) {
  Expected<int> Err = fail("inner");
  Expected<std::string> Outer = Err.takeFailure();
  ASSERT_FALSE(Outer.hasValue());
  EXPECT_EQ(Outer.error().Message, "inner");
}

TEST(ExpectedVoid, SuccessAndFailure) {
  ExpectedVoid Ok = success();
  EXPECT_TRUE(Ok.hasValue());
  ExpectedVoid Bad = fail("nope");
  EXPECT_FALSE(Bad.hasValue());
  EXPECT_EQ(Bad.error().Message, "nope");
}

TEST(Diagnostics, EngineCountsErrors) {
  DiagnosticEngine Engine;
  EXPECT_FALSE(Engine.hasErrors());
  Engine.error("first", SourceLoc{1, 1});
  Engine.note("context", SourceLoc{1, 2});
  Engine.error("second", SourceLoc{2, 1});
  EXPECT_TRUE(Engine.hasErrors());
  EXPECT_EQ(Engine.errorCount(), 2u);
  EXPECT_EQ(Engine.diagnostics().size(), 3u);
  std::string All = Engine.renderAll();
  EXPECT_NE(All.find("first"), std::string::npos);
  EXPECT_NE(All.find("note: context"), std::string::npos);
}

TEST(Interner, InterningIsIdempotent) {
  Interner Names;
  Symbol A = Names.intern("alpha");
  Symbol B = Names.intern("beta");
  Symbol A2 = Names.intern("alpha");
  EXPECT_EQ(A, A2);
  EXPECT_NE(A, B);
  EXPECT_TRUE(A.isValid());
  EXPECT_EQ(Names.spelling(A), "alpha");
  EXPECT_EQ(Names.spelling(B), "beta");
  EXPECT_EQ(Names.size(), 2u);
}

TEST(Interner, InvalidSymbolIsDistinct) {
  Symbol Invalid;
  EXPECT_FALSE(Invalid.isValid());
  Interner Names;
  EXPECT_NE(Names.intern("x"), Invalid);
}

TEST(Interner, EqualSubstringsOfDifferentBuffersShareASymbol) {
  // Neither view is NUL-terminated: each is followed by another letter.
  const char First[] = {'n', 'o', 'd', 'e', 'x'};
  const char Second[] = {'y', 'n', 'o', 'd', 'e', 'z'};
  Interner Names;
  Symbol A = Names.intern(std::string_view(First, 4));
  Symbol B = Names.intern(std::string_view(Second + 1, 4));
  EXPECT_EQ(A, B);
  EXPECT_EQ(Names.spelling(A), "node");
  EXPECT_EQ(Names.size(), 1u);
}

TEST(Interner, IdsStayDenseAndStableAcrossTableGrowth) {
  constexpr uint32_t Count = 12000;
  Interner Names;
  for (uint32_t I = 1; I <= Count; ++I)
    ASSERT_EQ(Names.intern("s" + std::to_string(I)).Id, I);
  EXPECT_EQ(Names.size(), Count);
  for (uint32_t I = Count; I >= 1; --I) {
    std::string Spelling = "s" + std::to_string(I);
    ASSERT_EQ(Names.intern(Spelling).Id, I);
    ASSERT_EQ(Names.spelling(Symbol{I}), Spelling);
  }
  EXPECT_EQ(Names.size(), Count);
}

TEST(Interner, LookupOfAKnownNameAllocatesNothing) {
  Interner Names;
  std::vector<std::string> Spellings;
  for (int I = 0; I < 1000; ++I)
    Spellings.push_back("a_longer_identifier_" + std::to_string(I));
  for (const std::string &S : Spellings)
    Names.intern(S);
  uint64_t Before = heapAllocs();
  for (const std::string &S : Spellings)
    Names.intern(S);
  EXPECT_EQ(heapAllocs(), Before);
}

TEST(SourceLoc, Rendering) {
  EXPECT_EQ(toString(SourceLoc{}), "<unknown>");
  EXPECT_EQ(toString(SourceLoc{12, 34}), "12:34");
}

//===----------------------------------------------------------------------===//
// FlatMap / FlatSet: differential tests against std::map / std::set
//===----------------------------------------------------------------------===//

template <typename Map>
std::vector<std::pair<int, std::string>> entriesOf(const Map &M) {
  std::vector<std::pair<int, std::string>> Out;
  for (const auto &[Key, Value] : M)
    Out.push_back({Key, Value});
  return Out;
}

template <typename Set> std::vector<int> elementsOf(const Set &S) {
  return std::vector<int>(S.begin(), S.end());
}

// Seeded random sequences of insert, operator[], erase, find, at and
// lower_bound on two FlatMaps and two std::maps side by side. A small key
// space makes hits, misses and equal maps all common. After every
// operation both implementations must hold the same entries in the same
// order and agree on ==.
TEST(JsonEscape, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(escapeJson("plain `x` 1:2"), "plain `x` 1:2");
  EXPECT_EQ(escapeJson("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(escapeJson("\b\f\n\r\t"), "\\b\\f\\n\\r\\t");
  EXPECT_EQ(escapeJson(std::string("\0\x01\x1f", 3)),
            "\\u0000\\u0001\\u001f");
  EXPECT_EQ(escapeJson("\x7f\xc3\xa9"), "\x7f\xc3\xa9"); // Not control.
}

TEST(FlatMap, MatchesStdMapOnRandomOperations) {
  for (unsigned Seed = 1; Seed <= 25; ++Seed) {
    std::mt19937 Rng(Seed);
    auto Draw = [&](int N) {
      return std::uniform_int_distribution<int>(0, N - 1)(Rng);
    };
    FlatMap<int, std::string> Flat[2];
    std::map<int, std::string> Ref[2];
    for (int Step = 0; Step < 1500; ++Step) {
      int Which = Draw(2);
      FlatMap<int, std::string> &F = Flat[Which];
      std::map<int, std::string> &R = Ref[Which];
      int Key = Draw(12);
      std::string Value(static_cast<size_t>(Draw(3)), 'v');
      switch (Draw(7)) {
      case 0:
        F[Key] = Value;
        R[Key] = Value;
        break;
      case 1: {
        auto [FIt, FNew] = F.emplace(Key, Value);
        auto [RIt, RNew] = R.emplace(Key, Value);
        ASSERT_EQ(FNew, RNew);
        ASSERT_EQ(FIt->first, RIt->first);
        ASSERT_EQ(FIt->second, RIt->second);
        break;
      }
      case 2:
        ASSERT_EQ(F.erase(Key), R.erase(Key));
        break;
      case 3: {
        auto FIt = F.find(Key);
        auto RIt = R.find(Key);
        ASSERT_EQ(FIt == F.end(), RIt == R.end());
        if (FIt != F.end()) {
          ASSERT_EQ(FIt->second, RIt->second);
        }
        break;
      }
      case 4:
        ASSERT_EQ(F.count(Key), R.count(Key));
        if (R.count(Key)) {
          ASSERT_EQ(F.at(Key), R.at(Key));
        }
        break;
      case 5: {
        auto FIt = F.lower_bound(Key);
        auto RIt = R.lower_bound(Key);
        ASSERT_EQ(FIt == F.end(), RIt == R.end());
        if (FIt != F.end()) {
          ASSERT_EQ(FIt->first, RIt->first);
        }
        break;
      }
      case 6:
        // Assigning through a found entry must not reorder anything.
        if (auto It = F.find(Key); It != F.end()) {
          It->second = Value;
          R[Key] = Value;
        }
        break;
      }
      ASSERT_EQ(entriesOf(F), entriesOf(R)) << "seed " << Seed;
      ASSERT_EQ(F.size(), R.size());
      ASSERT_EQ(F.empty(), R.empty());
      ASSERT_EQ(Flat[0] == Flat[1], Ref[0] == Ref[1]) << "seed " << Seed;
    }
  }
}

// The same for FlatSet, with merge (set union) checked against
// std::set's range insert.
TEST(FlatSet, MatchesStdSetOnRandomOperations) {
  for (unsigned Seed = 1; Seed <= 25; ++Seed) {
    std::mt19937 Rng(Seed);
    auto Draw = [&](int N) {
      return std::uniform_int_distribution<int>(0, N - 1)(Rng);
    };
    FlatSet<int> Flat[2];
    std::set<int> Ref[2];
    for (int Step = 0; Step < 1500; ++Step) {
      int Which = Draw(2);
      FlatSet<int> &F = Flat[Which];
      std::set<int> &R = Ref[Which];
      int Key = Draw(16);
      switch (Draw(5)) {
      case 0: {
        auto [FIt, FNew] = F.insert(Key);
        auto [RIt, RNew] = R.insert(Key);
        ASSERT_EQ(FNew, RNew);
        ASSERT_EQ(*FIt, *RIt);
        break;
      }
      case 1:
        ASSERT_EQ(F.erase(Key), R.erase(Key));
        break;
      case 2:
        ASSERT_EQ(F.count(Key), R.count(Key));
        ASSERT_EQ(F.find(Key) == F.end(), R.find(Key) == R.end());
        break;
      case 3: {
        auto FIt = F.lower_bound(Key);
        auto RIt = R.lower_bound(Key);
        ASSERT_EQ(FIt == F.end(), RIt == R.end());
        if (FIt != F.end()) {
          ASSERT_EQ(*FIt, *RIt);
        }
        break;
      }
      case 4:
        F.merge(Flat[1 - Which]);
        R.insert(Ref[1 - Which].begin(), Ref[1 - Which].end());
        break;
      }
      ASSERT_EQ(elementsOf(F), elementsOf(R)) << "seed " << Seed;
      ASSERT_EQ(F.size(), R.size());
      ASSERT_EQ(Flat[0] == Flat[1], Ref[0] == Ref[1]) << "seed " << Seed;
    }
  }
}

TEST(ChunkedVector, MatchesStdVectorAndNeverMovesElements) {
  for (unsigned Seed = 1; Seed <= 10; ++Seed) {
    std::mt19937 Rng(Seed);
    auto Draw = [&](size_t N) {
      return std::uniform_int_distribution<size_t>(0, N - 1)(Rng);
    };
    ChunkedVector<std::string> Chunked;
    std::vector<std::string> Ref;
    std::vector<const std::string *> Addresses;
    for (int Step = 0; Step < 3000; ++Step) {
      if (Draw(8) == 0 && !Ref.empty()) {
        // Roll back to an earlier size.
        size_t NewSize = Draw(Ref.size() + 1);
        Chunked.truncate(NewSize);
        Ref.resize(NewSize);
        Addresses.resize(NewSize);
      } else {
        std::string Value = "element " + std::to_string(Step) +
                            " of seed " + std::to_string(Seed);
        Addresses.push_back(&Chunked.emplace_back(Value));
        Ref.push_back(Value);
      }
      ASSERT_EQ(Chunked.size(), Ref.size());
      if (!Ref.empty()) {
        size_t I = Draw(Ref.size());
        ASSERT_EQ(Chunked[I], Ref[I]) << "seed " << Seed;
        ASSERT_EQ(&Chunked[I], Addresses[I]) << "seed " << Seed;
      }
    }
    for (size_t I = 0; I < Ref.size(); ++I)
      ASSERT_EQ(&Chunked[I], Addresses[I]);
    ChunkedVector<std::string> Moved = std::move(Chunked);
    ASSERT_EQ(Moved.size(), Ref.size());
    ASSERT_TRUE(Chunked.empty());
    for (size_t I = 0; I < Ref.size(); ++I)
      ASSERT_EQ(&Moved[I], Addresses[I]);
  }
}

} // namespace
