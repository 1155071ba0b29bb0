//===- tests/core/TableTest.cpp - Function table tests ---------------------===//
//
// Part of egglog-cpp. Tests for the append-only functional tables with
// timestamps (§5.1 "Database").
//
//===----------------------------------------------------------------------===//

#include "core/Table.h"
#include "oracle/Reference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <unordered_map>

using egglog::Table;
using egglog::Value;

namespace {
/// The sort of every column of the tables below (v()'s default).
constexpr egglog::SortId S = 2;
Value v(uint64_t Bits, uint32_t Sort = S) { return Value(Sort, Bits); }
} // namespace

TEST(TableTest, InsertAndLookup) {
  Table T({S, S, S});
  Value Keys[2] = {v(1), v(2)};
  EXPECT_FALSE(T.lookup(Keys).has_value());
  EXPECT_FALSE(T.insert(Keys, v(10), 0).has_value());
  auto Found = T.lookup(Keys);
  ASSERT_TRUE(Found.has_value());
  EXPECT_EQ(Found->Bits, 10u);
  EXPECT_EQ(T.liveCount(), 1u);
}

TEST(TableTest, UpdateKillsOldRowAndReturnsPrevious) {
  Table T({S, S});
  Value Key[1] = {v(7)};
  T.insert(Key, v(100), 0);
  auto Old = T.insert(Key, v(200), 1);
  ASSERT_TRUE(Old.has_value());
  EXPECT_EQ(Old->Bits, 100u);
  EXPECT_EQ(T.liveCount(), 1u);
  EXPECT_EQ(T.rowCount(), 2u) << "updates append rather than overwrite";
  EXPECT_FALSE(T.isLive(0));
  EXPECT_TRUE(T.isLive(1));
  EXPECT_EQ(T.stamp(1), 1u);
  EXPECT_EQ(T.lookup(Key)->Bits, 200u);
}

TEST(TableTest, IdenticalReinsertIsANoOp) {
  Table T({S, S});
  Value Key[1] = {v(7)};
  T.insert(Key, v(100), 0);
  EXPECT_FALSE(T.insert(Key, v(100), 5).has_value());
  EXPECT_EQ(T.rowCount(), 1u) << "no delta row for identical output";
  EXPECT_EQ(T.stamp(0), 0u);
}

TEST(TableTest, EraseUnlinksRow) {
  Table T({S, S});
  Value KeyA[1] = {v(1)}, KeyB[1] = {v(2)};
  T.insert(KeyA, v(10), 0);
  T.insert(KeyB, v(20), 0);
  EXPECT_TRUE(T.erase(KeyA));
  EXPECT_FALSE(T.erase(KeyA)) << "double erase returns false";
  EXPECT_FALSE(T.lookup(KeyA).has_value());
  EXPECT_EQ(T.lookup(KeyB)->Bits, 20u);
  EXPECT_EQ(T.liveCount(), 1u);
}

TEST(TableTest, NullaryTable) {
  Table T({S});
  Value Dummy;
  EXPECT_FALSE(T.lookup(&Dummy).has_value());
  T.insert(&Dummy, v(42), 0);
  EXPECT_EQ(T.lookup(&Dummy)->Bits, 42u);
  auto Old = T.insert(&Dummy, v(43), 1);
  ASSERT_TRUE(Old.has_value());
  EXPECT_EQ(Old->Bits, 42u);
}

TEST(TableTest, GrowsPastInitialCapacity) {
  Table T({S, S});
  for (uint64_t I = 0; I < 1000; ++I) {
    Value Key[1] = {v(I)};
    T.insert(Key, v(I * 2), 0);
  }
  EXPECT_EQ(T.liveCount(), 1000u);
  for (uint64_t I = 0; I < 1000; ++I) {
    Value Key[1] = {v(I)};
    ASSERT_TRUE(T.lookup(Key).has_value());
    EXPECT_EQ(T.lookup(Key)->Bits, I * 2);
  }
}

TEST(TableTest, DistinguishesSorts) {
  Table T({S, S});
  Value KeyA[1] = {Value(2, 5)};
  Value KeyB[1] = {Value(3, 5)};
  T.insert(KeyA, v(1), 0);
  EXPECT_FALSE(T.lookup(KeyB).has_value())
      << "same bits under a different sort is a different key";
}

TEST(TableTest, OccurrenceWalkLeavesTheListInPlace) {
  // forEachOccurrence reads an id's live rows (key or output column) and
  // keeps the list.
  Table T({S, S});
  T.setIdColumns({0, 1});
  Value K1[1] = {v(1)}, K2[1] = {v(2)}, K5[1] = {v(5)}, K4[1] = {v(4)};
  T.insert(K1, v(5), 0); // row 0: output 5
  T.insert(K2, v(5), 0); // row 1: output 5, killed below
  T.insert(K5, v(3), 0); // row 2: key 5
  T.insert(K4, v(6), 0); // row 3: no 5
  ASSERT_TRUE(T.erase(K2));
  auto Walk = [&](uint64_t Id) {
    std::vector<uint32_t> Rows;
    EXPECT_TRUE(T.forEachOccurrence(Id, [&](uint32_t Row) {
      Rows.push_back(Row);
      return true;
    }));
    std::sort(Rows.begin(), Rows.end());
    return Rows;
  };
  EXPECT_EQ(Walk(5), (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(Walk(5), (std::vector<uint32_t>{0, 2})) << "the walk consumed";
  EXPECT_TRUE(Walk(1000).empty());
  // Rows appended after a walk are caught up by the next one.
  Value K7[1] = {v(7)};
  T.insert(K7, v(5), 0); // row 4
  EXPECT_EQ(Walk(5), (std::vector<uint32_t>{0, 2, 4}));
  // A visitor returning false stops the walk.
  size_t Visited = 0;
  EXPECT_FALSE(T.forEachOccurrence(5, [&](uint32_t) {
    ++Visited;
    return false;
  }));
  EXPECT_EQ(Visited, 1u);
}

TEST(TableTest, CellsKeepColumnSorts) {
  // Three columns of three sorts over one payload range: a cell's sort
  // comes from its column. Through inserts, updates, erases and nested
  // rollbacks, every live cell reads back with its column's sort, and
  // liveHash() equals a recomputation from the modelled Values.
  const std::vector<egglog::SortId> Sorts = {3, 5, 7};
  constexpr egglog::FunctionId Func = 4;
  Table T(Sorts, Func);
  for (unsigned C = 0; C < 3; ++C)
    EXPECT_EQ(T.columnSort(C), Sorts[C]);
  using Model = std::map<std::pair<uint64_t, uint64_t>, uint64_t>;
  Model Rows;
  std::vector<std::pair<Table::TxnMark, Model>> Marks;
  std::mt19937 Rng(32);
  for (int Step = 0; Step < 3000; ++Step) {
    uint64_t A = Rng() % 6, B = Rng() % 6;
    Value Keys[2] = {v(A, 3), v(B, 5)};
    switch (Rng() % 8) {
    case 0:
      EXPECT_EQ(T.erase(Keys), Rows.erase({A, B}) > 0) << "step " << Step;
      break;
    case 1:
      if (Marks.size() < 4)
        Marks.emplace_back(T.txnMark(), Rows);
      break;
    case 2:
      if (!Marks.empty()) {
        T.rollbackTo(Marks.back().first);
        Rows = Marks.back().second;
        if (Rng() % 2)
          Marks.pop_back();
      }
      break;
    case 3: {
      // The same payloads under the other key sorts name no row.
      Value Swapped[2] = {v(A, 5), v(B, 3)};
      EXPECT_EQ(T.findRow(Swapped), -1) << "step " << Step;
      std::optional<Value> Found = T.lookup(Keys);
      ASSERT_EQ(Found.has_value(), Rows.count({A, B}) > 0) << "step " << Step;
      if (Found) {
        EXPECT_TRUE(*Found == v(Rows[{A, B}], 7)) << "step " << Step;
      }
      break;
    }
    default: {
      uint64_t Out = Rng() % 6;
      T.insert(Keys, v(Out, 7), static_cast<uint32_t>(Step / 50));
      Rows[{A, B}] = Out;
      break;
    }
    }
    uint64_t Hash = 0;
    for (const auto &[Key, Out] : Rows) {
      Value Cells[3] = {v(Key.first, 3), v(Key.second, 5), v(Out, 7)};
      Hash += Table::rowHash(Func, 3, [&](unsigned I) { return Cells[I]; });
    }
    ASSERT_EQ(T.liveHash(), Hash) << "step " << Step;
    ASSERT_EQ(T.liveCount(), Rows.size()) << "step " << Step;
    for (size_t Row : T.liveRows()) {
      Value Cells[3];
      T.copyRow(Row, Cells);
      for (unsigned C = 0; C < 3; ++C) {
        ASSERT_EQ(T.cell(Row, C).Sort, Sorts[C]) << "step " << Step;
        ASSERT_TRUE(Cells[C] == T.cell(Row, C)) << "step " << Step;
      }
      ASSERT_EQ(T.output(Row).Sort, Sorts[2]) << "step " << Step;
      auto It = Rows.find({Cells[0].Bits, Cells[1].Bits});
      ASSERT_TRUE(It != Rows.end()) << "step " << Step;
      ASSERT_EQ(It->second, Cells[2].Bits) << "step " << Step;
    }
  }
}

/// Property sweep: the table agrees with a std::unordered_map oracle under
/// random insert/update/erase workloads (including backward-shift deletion
/// stress).
class TablePropertyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(TablePropertyTest, MatchesMapOracle) {
  std::mt19937 Rng(GetParam());
  std::uniform_int_distribution<uint64_t> KeyDist(0, 200);
  std::uniform_int_distribution<int> OpDist(0, 3);
  Table T({S, S});
  std::unordered_map<uint64_t, uint64_t> Oracle;
  uint32_t Stamp = 0;
  for (int Step = 0; Step < 3000; ++Step) {
    uint64_t K = KeyDist(Rng);
    Value Key[1] = {v(K)};
    switch (OpDist(Rng)) {
    case 0:
    case 1: {
      uint64_t Out = KeyDist(Rng);
      T.insert(Key, v(Out), Stamp++);
      Oracle[K] = Out;
      break;
    }
    case 2: {
      bool Erased = T.erase(Key);
      EXPECT_EQ(Erased, Oracle.erase(K) > 0);
      break;
    }
    case 3: {
      auto Found = T.lookup(Key);
      auto It = Oracle.find(K);
      if (It == Oracle.end()) {
        EXPECT_FALSE(Found.has_value());
      } else {
        ASSERT_TRUE(Found.has_value());
        EXPECT_EQ(Found->Bits, It->second);
      }
      break;
    }
    }
  }
  EXPECT_EQ(T.liveCount(), Oracle.size());
  // Final sweep: every oracle entry is present.
  for (const auto &[K, Out] : Oracle) {
    Value Key[1] = {v(K)};
    auto Found = T.lookup(Key);
    ASSERT_TRUE(Found.has_value());
    EXPECT_EQ(Found->Bits, Out);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TablePropertyTest,
                         ::testing::Values(5u, 6u, 7u, 8u));

//===----------------------------------------------------------------------===
// Columnar storage
//===----------------------------------------------------------------------===

TEST(TableColumnarTest, CellColumnAndCopyRowAgree) {
  Table T({S, S, S});
  for (uint64_t I = 0; I < 64; ++I) {
    Value Keys[2] = {v(I), v(I * 3)};
    T.insert(Keys, v(I * 7), static_cast<uint32_t>(I));
  }
  ASSERT_EQ(T.rowCount(), 64u);
  for (size_t Row = 0; Row < T.rowCount(); ++Row) {
    EXPECT_EQ(T.cell(Row, 0).Bits, Row);
    EXPECT_EQ(T.cell(Row, 1).Bits, Row * 3);
    EXPECT_EQ(T.cell(Row, 2).Bits, Row * 7);
    EXPECT_EQ(T.output(Row).Bits, Row * 7);
    Value Out[3];
    T.copyRow(Row, Out);
    for (unsigned C = 0; C < 3; ++C)
      EXPECT_TRUE(Out[C] == T.cell(Row, C));
  }
  // column() exposes each position as one contiguous payload array:
  // indexing the base pointer by row, under the column's sort, must agree
  // with cell() for every position.
  for (unsigned C = 0; C < T.rowWidth(); ++C) {
    const uint64_t *Col = T.column(C);
    for (size_t Row = 0; Row < T.rowCount(); ++Row)
      EXPECT_TRUE(Value(T.columnSort(C), Col[Row]) == T.cell(Row, C));
  }
  const uint32_t *Stamps = T.stampColumn();
  for (size_t Row = 0; Row < T.rowCount(); ++Row)
    EXPECT_EQ(Stamps[Row], T.stamp(Row));
}

TEST(TableColumnarTest, EraseRowMatchesEraseByKey) {
  Table A({S, S}), B({S, S});
  for (uint64_t I = 0; I < 100; ++I) {
    Value Key[1] = {v(I)};
    A.insert(Key, v(I + 1), 0);
    B.insert(Key, v(I + 1), 0);
  }
  // Kill every third key: by key tuple in A, by row index in B.
  for (uint64_t I = 0; I < 100; I += 3) {
    Value Key[1] = {v(I)};
    EXPECT_TRUE(A.erase(Key));
    int64_t Row = B.findRow(Key);
    ASSERT_GE(Row, 0);
    B.eraseRow(static_cast<size_t>(Row));
  }
  EXPECT_EQ(A.liveCount(), B.liveCount());
  EXPECT_EQ(A.killCount(), B.killCount());
  EXPECT_EQ(A.version(), B.version());
  for (uint64_t I = 0; I < 100; ++I) {
    Value Key[1] = {v(I)};
    EXPECT_EQ(A.lookup(Key).has_value(), B.lookup(Key).has_value());
    EXPECT_EQ(B.lookup(Key).has_value(), I % 3 != 0);
  }
}

TEST(TableColumnarTest, RollbackResurrectsAndTruncatesColumns) {
  Table T({S, S});
  for (uint64_t I = 0; I < 50; ++I) {
    Value Key[1] = {v(I)};
    T.insert(Key, v(I), 0);
  }
  Table::TxnMark Mark = T.txnMark();
  // Update (kill + append), erase, and fresh-append past the mark.
  for (uint64_t I = 0; I < 50; I += 2) {
    Value Key[1] = {v(I)};
    T.insert(Key, v(I + 1000), 1);
  }
  for (uint64_t I = 1; I < 50; I += 4) {
    Value Key[1] = {v(I)};
    T.erase(Key);
  }
  for (uint64_t I = 100; I < 120; ++I) {
    Value Key[1] = {v(I)};
    T.insert(Key, v(I), 1);
  }
  T.rollbackTo(Mark);
  EXPECT_EQ(T.rowCount(), 50u) << "appended rows truncated";
  EXPECT_EQ(T.liveCount(), 50u) << "killed rows resurrected";
  for (uint64_t I = 0; I < 50; ++I) {
    Value Key[1] = {v(I)};
    auto Found = T.lookup(Key);
    ASSERT_TRUE(Found.has_value()) << "key " << I;
    EXPECT_EQ(Found->Bits, I) << "pre-mark output restored";
  }
  Value Fresh[1] = {v(100)};
  EXPECT_FALSE(T.lookup(Fresh).has_value());
}

TEST(TableColumnarTest, NestedMarkRollbackRoundTrip) {
  // A (push) context's mark stays open across the per-command marks inside
  // it: an inner rollback must land exactly on the inner mark's state and
  // leave the outer mark valid for its own rollback later.
  Table T({S, S, S});
  for (uint64_t I = 0; I < 40; ++I) {
    Value Keys[2] = {v(I), v(I * 2)};
    T.insert(Keys, v(I * 5), static_cast<uint32_t>(I / 10));
  }
  for (uint64_t I = 0; I < 40; I += 5) {
    Value Keys[2] = {v(I), v(I * 2)};
    T.erase(Keys);
  }
  // Exact observable state: per-row liveness plus every key's output.
  struct State {
    std::vector<bool> Live;
    size_t LiveCount;
    std::vector<std::optional<uint64_t>> Outputs;
    bool operator==(const State &) const = default;
  };
  auto capture = [&T] {
    State S{{}, T.liveCount(), {}};
    for (size_t Row = 0; Row < T.rowCount(); ++Row)
      S.Live.push_back(T.isLive(Row));
    for (uint64_t I = 0; I < 320; ++I) {
      Value Keys[2] = {v(I), v(I < 40 ? I * 2 : I)};
      std::optional<Value> Found = T.lookup(Keys);
      S.Outputs.push_back(Found ? std::optional<uint64_t>(Found->Bits)
                                : std::nullopt);
    }
    return S;
  };
  State AtOuter = capture();
  Table::TxnMark Outer = T.txnMark();

  // Between the marks: update every key (kill + append, erased keys
  // reborn as fresh rows).
  for (uint64_t I = 0; I < 40; ++I) {
    Value Keys[2] = {v(I), v(I * 2)};
    T.insert(Keys, v(I * 5 + 1), 9);
  }
  State AtInner = capture();
  Table::TxnMark Inner = T.txnMark();

  // Past the inner mark: kills of rows appended between the marks, and
  // fresh appends.
  for (uint64_t I = 0; I < 40; I += 3) {
    Value Keys[2] = {v(I), v(I * 2)};
    T.erase(Keys);
  }
  for (uint64_t I = 200; I < 230; ++I) {
    Value Keys[2] = {v(I), v(I)};
    T.insert(Keys, v(I), 10);
  }
  T.rollbackTo(Inner);
  EXPECT_EQ(T.rowCount(), Inner.Rows);
  EXPECT_TRUE(capture() == AtInner) << "inner rollback is exact";

  // More work under the still-open outer mark, then its rollback.
  for (uint64_t I = 300; I < 310; ++I) {
    Value Keys[2] = {v(I), v(I)};
    T.insert(Keys, v(I), 11);
  }
  Value Keys1[2] = {v(1), v(2)};
  EXPECT_TRUE(T.erase(Keys1));
  T.rollbackTo(Outer);
  EXPECT_EQ(T.rowCount(), Outer.Rows);
  State AfterOuter = capture();
  EXPECT_TRUE(AfterOuter == AtOuter) << "outer rollback is exact";
  for (uint64_t I = 0; I < 40; ++I) {
    if (I % 5 == 0)
      EXPECT_FALSE(AfterOuter.Outputs[I].has_value())
          << "erased key " << I << " stays dead";
    else
      EXPECT_EQ(AfterOuter.Outputs[I], I * 5) << "pre-mark output " << I;
  }
}

TEST(TableTest, LiveHashMatchesSweepAcrossNestedRollbacks) {
  // liveHash() is kept incrementally (append adds a row's hash, kill
  // subtracts it, a mark restores it); after every step it, and the live
  // count, must equal a from-scratch sweep of the live rows.
  constexpr egglog::FunctionId Func = 7;
  std::mt19937 Rng(20);
  Table T({S, S, S}, Func);
  std::vector<Table::TxnMark> Marks;
  auto Key = [&](Value *Keys) {
    Keys[0] = v(Rng() % 24);
    Keys[1] = v(Rng() % 3);
  };
  for (int Step = 0; Step < 4000; ++Step) {
    Value Keys[2];
    Key(Keys);
    switch (Rng() % 8) {
    case 0:
      T.erase(Keys);
      break;
    case 1:
      if (int64_t Row = T.findRow(Keys); Row >= 0)
        T.eraseRow(static_cast<size_t>(Row));
      break;
    case 2:
      if (Marks.size() < 4)
        Marks.push_back(T.txnMark());
      break;
    case 3:
      if (!Marks.empty()) {
        T.rollbackTo(Marks.back());
        // A rolled-back mark stays valid, like a (push) context's mark
        // across the per-command marks inside it; keep it about half the
        // time.
        if (Rng() % 2)
          Marks.pop_back();
      }
      break;
    default:
      T.insert(Keys, v(Rng() % 4), static_cast<uint32_t>(Step / 50));
      break;
    }
    ASSERT_EQ(T.liveHash(), egglog::oracle::referenceTableHash(T, Func))
        << "step " << Step;
    // liveCount() is derived from the kill journal; it must match the
    // sweep too.
    size_t Swept = 0;
    for (size_t Row = 0; Row < T.rowCount(); ++Row)
      Swept += T.isLive(Row);
    ASSERT_EQ(T.liveCount(), Swept) << "step " << Step;
  }
  // The function id seeds every row hash: the same rows stored for
  // another function hash differently.
  Table Other({S, S, S}, Func + 1);
  for (size_t Row : T.liveRows()) {
    Value Cells[3];
    T.copyRow(Row, Cells);
    Other.insert(Cells, Cells[2], 0);
  }
  EXPECT_EQ(Other.liveCount(), T.liveCount());
  if (T.liveCount() > 0)
    EXPECT_NE(Other.liveHash(), T.liveHash());
}

TEST(TableColumnarTest, ApproxBytesTracksColumnPayload) {
  Table T({S, S, S, S});
  size_t Empty = T.approxBytes();
  for (uint64_t I = 0; I < 2000; ++I) {
    Value Keys[3] = {v(I), v(I + 1), v(I + 2)};
    T.insert(Keys, v(I * 2), 0);
  }
  size_t Filled = T.approxBytes();
  // Four 8-byte payload columns of 2000 rows is the hard floor; the
  // accounting must cover at least the column payload plus stamps and the
  // hash index.
  EXPECT_GE(Filled, Empty + 4 * 2000 * sizeof(uint64_t));
  EXPECT_GE(Filled, 2000 * (4 * sizeof(uint64_t) + sizeof(uint32_t)));
}
