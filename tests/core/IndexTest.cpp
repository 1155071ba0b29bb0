//===- tests/core/IndexTest.cpp - Column-index cache tests -----------------===//
//
// Part of egglog-cpp. Tests for the persistent column-trie index layer
// (core/Index.h): version-counter invalidation on insert/erase/rebuild,
// cache reuse across queries, a randomized differential check that the
// index-backed generic join emits exactly the match multiset of the
// reference oracle's from-scratch scan (tests/oracle/Reference.h) across
// interleaved inserts, unions, and rebuilds, and a property test that
// entries repaired by rollback equal a fresh build.
//
//===----------------------------------------------------------------------===//

#include "core/Query.h"
#include "oracle/Reference.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

using namespace egglog;

namespace {

/// The sort of every column of the bare tables below (v()'s default).
constexpr SortId S = 2;
Value v(uint64_t Bits, uint32_t Sort = S) { return Value(Sort, Bits); }

TEST(TableVersionTest, BumpsOnInsert) {
  Table T({S, S, S});
  uint64_t V0 = T.version();
  Value Keys[2] = {v(1), v(2)};
  T.insert(Keys, v(10), 0);
  EXPECT_GT(T.version(), V0);
  // Updating an existing key (kill + append) bumps again.
  uint64_t V1 = T.version();
  T.insert(Keys, v(20), 1);
  EXPECT_GT(T.version(), V1);
  EXPECT_GT(T.killCount(), 0u);
  // Re-inserting the identical output is a no-op and must not invalidate.
  uint64_t V2 = T.version();
  T.insert(Keys, v(20), 2);
  EXPECT_EQ(T.version(), V2);
}

TEST(TableVersionTest, BumpsOnEraseAndRollback) {
  Table T({S, S});
  Table::TxnMark Empty = T.txnMark();
  Value Key[1] = {v(7)};
  T.insert(Key, v(1), 0);
  uint64_t V0 = T.version();
  EXPECT_TRUE(T.erase(Key));
  EXPECT_GT(T.version(), V0);
  uint64_t V1 = T.version();
  T.rollbackTo(Empty);
  EXPECT_EQ(T.rowCount(), 0u);
  EXPECT_GT(T.version(), V1);
}

TEST(TableVersionTest, RebuildInvalidatesRewrittenTables) {
  EGraph G;
  SortId V = G.declareSort("V");
  FunctionDecl Decl;
  Decl.Name = "edge";
  Decl.ArgSorts = {V, V};
  Decl.OutSort = SortTable::UnitSort;
  FunctionId Edge = G.declareFunction(std::move(Decl));

  Value A = G.freshId(V), B = G.freshId(V), C = G.freshId(V);
  Value K1[2] = {A, B};
  Value K2[2] = {B, C};
  ASSERT_TRUE(G.setValue(Edge, K1, G.mkUnit()));
  ASSERT_TRUE(G.setValue(Edge, K2, G.mkUnit()));

  const Table &T = *G.function(Edge).Storage;
  uint64_t V0 = T.version();
  // Union A and C: rebuild must rewrite the rows mentioning the loser and
  // bump the version, invalidating any cached index.
  G.unionValues(A, C);
  G.rebuild();
  EXPECT_GT(T.version(), V0);
}

TEST(IndexCacheTest, ReusedAcrossQueriesAndInvalidatedByMutation) {
  EGraph G;
  FunctionDecl Decl;
  Decl.Name = "edge";
  Decl.ArgSorts = {SortTable::I64Sort, SortTable::I64Sort};
  Decl.OutSort = SortTable::UnitSort;
  FunctionId Edge = G.declareFunction(std::move(Decl));
  for (int64_t I = 0; I < 10; ++I) {
    Value Keys[2] = {G.mkI64(I), G.mkI64((I + 1) % 10)};
    ASSERT_TRUE(G.setValue(Edge, Keys, G.mkUnit()));
  }

  Query Q;
  Q.NumVars = 3;
  Q.VarSorts = {SortTable::I64Sort, SortTable::I64Sort, SortTable::I64Sort};
  auto MakeAtom = [&](uint32_t A, uint32_t B) {
    QueryAtom Atom;
    Atom.Func = Edge;
    Atom.Terms = {VarOrConst::makeVar(A), VarOrConst::makeVar(B),
                  VarOrConst::makeConst(G.mkUnit())};
    return Atom;
  };
  Q.Atoms = {MakeAtom(0, 1), MakeAtom(1, 2)};

  auto RunOnce = [&] {
    size_t Matches = 0;
    executeQuery(G, Q, [&](const std::vector<Value> &) { ++Matches; });
    return Matches;
  };

  size_t First = RunOnce();
  IndexCache::Stats S1 = G.indexStats();
  EXPECT_GT(S1.Builds, 0u);

  // Re-running the same query against an unchanged table must be served
  // entirely from the cache.
  size_t Second = RunOnce();
  EXPECT_EQ(First, Second);
  IndexCache::Stats S2 = G.indexStats();
  EXPECT_EQ(S2.Builds, S1.Builds);
  EXPECT_GT(S2.Hits, S1.Hits);

  // Mutating the table invalidates; the next run must refresh, not reuse.
  Value Keys[2] = {G.mkI64(3), G.mkI64(7)};
  ASSERT_TRUE(G.setValue(Edge, Keys, G.mkUnit()));
  size_t Third = RunOnce();
  EXPECT_GT(Third, Second);
  IndexCache::Stats S3 = G.indexStats();
  EXPECT_GT(S3.Builds + S3.Refreshes, S2.Builds + S2.Refreshes);
}

TEST(IndexCacheTest, RollbackThenRegrowStaysSorted) {
  Table T({S, S});
  Table::TxnMark Empty = T.txnMark();
  for (uint64_t I = 0; I < 5; ++I) {
    Value Key[1] = {v(I)};
    T.insert(Key, v(100 + I), 0);
  }
  std::vector<unsigned> Perm{0};
  EXPECT_EQ(T.indexes().get(Perm, AtomFilter::All, 0).size(), 5u);

  // Rolling back to the empty table reuses row slots with different
  // contents; the repair must drop the truncated ids, or a refresh that
  // trusted them would produce an unsorted index.
  T.rollbackTo(Empty);
  for (uint64_t I = 0; I < 7; ++I) {
    Value Key[1] = {v(6 - I)};
    T.insert(Key, v(200 + I), 0);
  }
  const ColumnIndex &Idx = T.indexes().get(Perm, AtomFilter::All, 0);
  ASSERT_EQ(Idx.size(), 7u);
  for (size_t I = 0; I + 1 < Idx.size(); ++I)
    EXPECT_TRUE(T.cell(Idx.ids()[I], 0) < T.cell(Idx.ids()[I + 1], 0))
        << "index out of order at " << I;
  EXPECT_EQ(T.indexes().stats().Builds, 1u);
}

TEST(IndexCacheTest, DerivedPartitionsFilterByStampAndStaySorted) {
  Table T({S, S, S});
  for (uint64_t I = 0; I < 40; ++I) {
    Value Keys[2] = {v(I % 7), v(39 - I)};
    T.insert(Keys, v(I), static_cast<uint32_t>(I / 10));
  }
  std::vector<unsigned> Perm{1, 0};
  const uint32_t Bound = 2; // stamps 0..3, so Old/New both non-empty
  const ColumnIndex &All = T.indexes().get(Perm, AtomFilter::All, Bound);
  const ColumnIndex &Old = T.indexes().get(Perm, AtomFilter::Old, Bound);
  const ColumnIndex &New = T.indexes().get(Perm, AtomFilter::New, Bound);
  EXPECT_EQ(All.size(), T.liveCount());
  EXPECT_EQ(Old.size() + New.size(), All.size());
  for (const ColumnIndex *Idx : {&Old, &New}) {
    ASSERT_GT(Idx->size(), 0u);
    for (size_t I = 0; I < Idx->size(); ++I) {
      uint32_t Row = Idx->ids()[I];
      EXPECT_TRUE(T.isLive(Row));
      if (Idx == &Old)
        EXPECT_LT(T.stamp(Row), Bound);
      else
        EXPECT_GE(T.stamp(Row), Bound);
      // Sorted under the permuted column order (position 1 leads and is
      // unique per row here), so the batched sweep probes can gallop over
      // a contiguous ids run.
      if (I + 1 < Idx->size())
        EXPECT_TRUE(T.cell(Row, 1) < T.cell(Idx->ids()[I + 1], 1))
            << "partition out of order at " << I;
    }
  }
}

//===----------------------------------------------------------------------===
// Randomized differential test
//===----------------------------------------------------------------------===

using oracle::MatchMultiset;
using oracle::ReferenceJoin;

MatchMultiset runIndexed(EGraph &G, const Query &Q,
                         const std::vector<AtomFilter> &Filters,
                         uint32_t Bound) {
  MatchMultiset Out;
  executeQuery(G, Q, Filters, Bound, [&](const std::vector<Value> &Env) {
    oracle::MatchBits M;
    for (const Value &V : Env)
      M.push_back(V.Bits);
    ++Out[M];
  });
  return Out;
}

class IndexDifferentialTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(IndexDifferentialTest, CachedJoinMatchesFromScratchScan) {
  std::mt19937 Rng(GetParam());
  EGraph G;
  SortId V = G.declareSort("V");
  FunctionDecl Decl;
  Decl.Name = "edge";
  Decl.ArgSorts = {V, V};
  Decl.OutSort = SortTable::UnitSort;
  FunctionId Edge = G.declareFunction(std::move(Decl));

  std::vector<Value> Ids;
  for (int I = 0; I < 12; ++I)
    Ids.push_back(G.freshId(V));

  auto RandomId = [&] {
    return Ids[std::uniform_int_distribution<size_t>(0, Ids.size() - 1)(
        Rng)];
  };

  // Queries: a 2-hop path, a self loop (repeated variable), and a
  // constant-anchored scan.
  auto MakeAtom = [&](VarOrConst A, VarOrConst B) {
    QueryAtom Atom;
    Atom.Func = Edge;
    Atom.Terms = {A, B, VarOrConst::makeConst(G.mkUnit())};
    return Atom;
  };
  Query TwoHop;
  TwoHop.NumVars = 3;
  TwoHop.VarSorts = {V, V, V};
  TwoHop.Atoms = {
      MakeAtom(VarOrConst::makeVar(0), VarOrConst::makeVar(1)),
      MakeAtom(VarOrConst::makeVar(1), VarOrConst::makeVar(2))};
  Query SelfLoop;
  SelfLoop.NumVars = 1;
  SelfLoop.VarSorts = {V};
  SelfLoop.Atoms = {
      MakeAtom(VarOrConst::makeVar(0), VarOrConst::makeVar(0))};
  Query Anchored;
  Anchored.NumVars = 1;
  Anchored.VarSorts = {V};
  Anchored.Atoms = {
      MakeAtom(VarOrConst::makeConst(Ids[0]), VarOrConst::makeVar(0))};

  for (int Step = 0; Step < 60; ++Step) {
    // Mutate: mostly inserts, some unions; occasionally bump the clock.
    int Op = std::uniform_int_distribution<int>(0, 9)(Rng);
    if (Op < 7) {
      Value Keys[2] = {RandomId(), RandomId()};
      ASSERT_TRUE(G.setValue(Edge, Keys, G.mkUnit()));
    } else if (Op < 9) {
      G.unionValues(G.canonicalize(RandomId()), G.canonicalize(RandomId()));
    } else {
      G.bumpTimestamp();
    }
    // Queries require canonical form; rebuild (which also exercises the
    // bulk invalidation path) before comparing.
    G.rebuild();
    ASSERT_FALSE(G.failed());

    uint32_t Bound = std::uniform_int_distribution<uint32_t>(
        0, G.timestamp() + 1)(Rng);
    for (const Query *Q : {&TwoHop, &SelfLoop, &Anchored}) {
      // All-rows variant plus every semi-naïve delta variant.
      std::vector<std::vector<AtomFilter>> FilterSets = {{}};
      for (size_t J = 0; J < Q->Atoms.size(); ++J) {
        std::vector<AtomFilter> F(Q->Atoms.size(), AtomFilter::All);
        for (size_t K = 0; K < Q->Atoms.size(); ++K)
          F[K] = K < J ? AtomFilter::Old
                       : (K == J ? AtomFilter::New : AtomFilter::All);
        FilterSets.push_back(F);
      }
      for (const auto &Filters : FilterSets)
        EXPECT_EQ(runIndexed(G, *Q, Filters, Bound),
                  ReferenceJoin(G, *Q, Filters, Bound).run())
            << "generic join diverged at step " << Step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexDifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

//===----------------------------------------------------------------------===
// Rollback repair property test
//===----------------------------------------------------------------------===

/// \p T's index for \p Perm from a cache that never saw the table's
/// history.
std::vector<uint32_t> freshIds(const Table &T,
                               const std::vector<unsigned> &Perm,
                               AtomFilter Filter, uint32_t Bound) {
  IndexCache Fresh(T);
  return Fresh.get(Perm, Filter, Bound).ids();
}

class IndexRollbackTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(IndexRollbackTest, RepairedEntriesEqualAFreshBuild) {
  // Random inserts, updates and erases over a small key space (so keys
  // collide and rows die) under nested marks, with entries built at
  // different depths. After every rollback, each cached entry, re-read,
  // must equal a fresh build in the same order: the repair restores the
  // entry's invariant and the refresh completes it.
  std::mt19937 Rng(GetParam());
  auto Pick = [&](int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  };
  const std::vector<std::vector<unsigned>> Perms = {
      {0, 1, 2}, {1, 0}, {2}, {2, 1, 0}};
  Table T({S, S, S});
  uint32_t Clock = 0;
  std::vector<Table::TxnMark> Marks;
  size_t Rollbacks = 0;

  auto Check = [&](int Step) {
    IndexCache &Cache = T.indexes();
    for (const std::vector<unsigned> &Perm : Cache.allPermutations())
      ASSERT_EQ(Cache.get(Perm, AtomFilter::All, 0).ids(),
                freshIds(T, Perm, AtomFilter::All, 0))
          << "permutation of " << Perm.size() << " columns, step " << Step;
    uint32_t Bound = Clock / 2;
    for (AtomFilter Filter : {AtomFilter::Old, AtomFilter::New})
      ASSERT_EQ(Cache.get(Perms[1], Filter, Bound).ids(),
                freshIds(T, Perms[1], Filter, Bound))
          << "partition at step " << Step;
  };
  auto RollBack = [&] {
    T.rollbackTo(Marks.back());
    Marks.pop_back();
    ++Rollbacks;
  };

  for (int Step = 0; Step < 600; ++Step) {
    int Op = Pick(0, 99);
    Value Keys[2] = {v(Pick(0, 5)), v(Pick(0, 5))};
    if (Op < 40) {
      T.insert(Keys, v(Pick(0, 3)), Clock);
    } else if (Op < 55) {
      T.erase(Keys);
    } else if (Op < 62) {
      ++Clock;
    } else if (Op < 72) {
      if (Marks.size() < 4)
        Marks.push_back(T.txnMark());
    } else if (Op < 82) {
      if (Marks.empty())
        continue;
      RollBack();
      // Sometimes unwind two levels before any refresh, so a repaired
      // entry is repaired again.
      if (!Marks.empty() && Pick(0, 2) == 0)
        RollBack();
      Check(Step);
      if (::testing::Test::HasFatalFailure())
        return;
    } else {
      // Build or refresh one entry at the current depth.
      T.indexes().get(Perms[Pick(0, Perms.size() - 1)], AtomFilter::All, 0);
    }
  }
  while (!Marks.empty()) {
    RollBack();
    Check(-1);
    if (::testing::Test::HasFatalFailure())
      return;
  }
  EXPECT_GT(Rollbacks, 20u);
  // Every entry was built once and repaired from then on.
  EXPECT_LE(T.indexes().stats().Builds, Perms.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexRollbackTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

} // namespace
