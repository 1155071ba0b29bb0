//===- tests/core/UnionFindTest.cpp - Union-find tests ---------------------===//
//
// Part of egglog-cpp. Unit and property tests for the canonicalizing
// union-find (§3.3 of the paper).
//
//===----------------------------------------------------------------------===//

#include "core/UnionFind.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

using egglog::UnionFind;

TEST(UnionFindTest, MakeSetIsIdentity) {
  UnionFind UF;
  for (int I = 0; I < 10; ++I) {
    uint64_t Id = UF.makeSet();
    EXPECT_EQ(Id, static_cast<uint64_t>(I));
    EXPECT_EQ(UF.find(Id), Id);
  }
  EXPECT_EQ(UF.size(), 10u);
  EXPECT_EQ(UF.unionCount(), 0u);
}

TEST(UnionFindTest, UniteKeepsSmallestIdCanonical) {
  UnionFind UF;
  uint64_t A = UF.makeSet(), B = UF.makeSet(), C = UF.makeSet();
  EXPECT_EQ(UF.unite(B, C), B);
  EXPECT_EQ(UF.find(C), B);
  EXPECT_EQ(UF.unite(C, A), A);
  EXPECT_EQ(UF.find(B), A);
  EXPECT_EQ(UF.find(C), A);
  EXPECT_EQ(UF.unionCount(), 2u);
}

TEST(UnionFindTest, UniteIsIdempotent) {
  UnionFind UF;
  uint64_t A = UF.makeSet(), B = UF.makeSet();
  UF.unite(A, B);
  uint64_t Count = UF.unionCount();
  UF.unite(A, B);
  UF.unite(B, A);
  EXPECT_EQ(UF.unionCount(), Count) << "re-uniting must not count";
  EXPECT_TRUE(UF.congruent(A, B));
}

TEST(UnionFindTest, NestedRollbackUndoesCompressionBetweenMarks) {
  // A (push) context keeps an outer mark open while commands open and
  // close inner ones, and finds between them compress paths across unions
  // made after the outer mark. Rolling back the outer mark must still
  // return the exact pre-mark parent array.
  UnionFind UF;
  constexpr uint64_t N = 64;
  for (uint64_t I = 0; I < N; ++I)
    UF.makeSet();
  UF.unite(10, 20);
  UF.unite(30, 31);
  auto findAll = [&UF] {
    std::vector<uint64_t> Roots;
    for (uint64_t I = 0; I < N; ++I)
      Roots.push_back(UF.find(I));
    return Roots;
  };
  std::vector<uint64_t> PreRoots = findAll();
  std::vector<uint64_t> PreParents = UF.parents();
  uint64_t PreUnions = UF.unionCount();

  UnionFind::TxnMark Outer = UF.txnBegin();
  // A 32-deep chain 63 -> 62 -> ... -> 32, hung under the pre-mark class
  // of 30; the deep finds then shortcut across these post-mark unions.
  for (uint64_t I = N - 2; I >= 32; --I)
    UF.unite(I, I + 1);
  UF.unite(31, 32);
  EXPECT_EQ(UF.find(N - 1), 30u);
  EXPECT_EQ(UF.find(48), 30u);

  // A committed inner mark (a command that succeeded inside the context).
  UnionFind::TxnMark Committed = UF.txnBegin();
  EXPECT_GT(Committed.UndoLogSize, 0u) << "the outer mark journals";
  UF.unite(1, 2);
  UF.txnCommit();
  std::vector<uint64_t> AtInner = findAll();
  std::vector<uint64_t> InnerParents = UF.parents();
  uint64_t InnerUnions = UF.unionCount();

  // A rolled-back inner mark (a failed command).
  UnionFind::TxnMark Inner = UF.txnBegin();
  UF.unite(0, N - 1);
  UF.makeSet();
  EXPECT_EQ(UF.find(48), 0u);
  UF.txnRollback(Inner);
  EXPECT_EQ(UF.size(), N);
  EXPECT_EQ(UF.parents(), InnerParents);
  EXPECT_EQ(UF.unionCount(), InnerUnions);
  EXPECT_EQ(findAll(), AtInner);

  // More compression under the still-open outer mark, then its rollback.
  UF.unite(5, 40);
  findAll();
  UF.txnRollback(Outer);
  EXPECT_EQ(UF.parents(), PreParents);
  EXPECT_EQ(findAll(), PreRoots);
  EXPECT_EQ(UF.unionCount(), PreUnions);
}

class UnionFindPropertyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(UnionFindPropertyTest, EquivalenceRelationAxioms) {
  std::mt19937 Rng(GetParam());
  UnionFind UF;
  constexpr int N = 200;
  for (int I = 0; I < N; ++I)
    UF.makeSet();
  // Oracle: naive labels.
  std::vector<int> Label(N);
  for (int I = 0; I < N; ++I)
    Label[I] = I;
  std::uniform_int_distribution<int> Dist(0, N - 1);
  for (int Step = 0; Step < 300; ++Step) {
    int A = Dist(Rng), B = Dist(Rng);
    UF.unite(A, B);
    int La = Label[A], Lb = Label[B];
    if (La != Lb)
      for (int I = 0; I < N; ++I)
        if (Label[I] == Lb)
          Label[I] = La;
    // Spot-check the full relation every 50 steps.
    if (Step % 50 == 0) {
      for (int I = 0; I < N; ++I)
        for (int J = I + 1; J < N; J += 17)
          EXPECT_EQ(UF.congruent(I, J), Label[I] == Label[J]);
    }
  }
  // Canonical representative must be the minimum of its class.
  for (int I = 0; I < N; ++I) {
    uint64_t Root = UF.find(I);
    EXPECT_LE(Root, static_cast<uint64_t>(I));
    for (int J = 0; J < N; ++J)
      if (Label[J] == Label[I])
        EXPECT_GE(static_cast<uint64_t>(J), Root);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnionFindPropertyTest,
                         ::testing::Values(11u, 22u, 33u, 44u));
