//===- tests/core/RebuildTest.cpp - Incremental rebuild differential -------===//
//
// Part of egglog-cpp. The incremental, worklist-driven rebuild must be
// observationally identical to the reference oracle's brute-force sweep
// (sweepRebuild in tests/oracle/Reference.h): after every rebuild of any
// random union/insert/push/pop sequence, the two reach the same live
// content hash, tuple count, and union count. The random driver mirrors
// each operation onto two databases that differ only in how they are
// rebuilt.
//
// The sequences mint fresh ids only from the driver (never from a merge
// expression), so the id numbering of the two databases stays aligned and
// the content hashes are directly comparable.
//
//===----------------------------------------------------------------------===//

#include "core/EGraph.h"
#include "oracle/Reference.h"
#include "support/FailPoints.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

using namespace egglog;

namespace {

/// One database plus the handles the driver mutates through.
struct TestDb {
  EGraph G;
  SortId S = 0;
  SortId SetOfS = 0;
  FunctionId UnaryF = 0;  ///< f : S -> S (congruence cascades)
  FunctionId BinaryF = 0; ///< g : S S -> S
  FunctionId EdgeR = 0;   ///< edge : S S -> Unit (relation)
  FunctionId Score = 0;   ///< score : S -> i64, :merge (max old new)
  FunctionId Bag = 0;     ///< bag : i64 -> SetOfS (container sweep path)
  /// Open (push)-style transaction marks, innermost last.
  std::vector<EGraph::TxnMark> Stack;

  TestDb() {
    S = G.declareSort("T");
    SetOfS = G.declareSetSort("SetT", S);

    FunctionDecl F;
    F.Name = "f";
    F.ArgSorts = {S};
    F.OutSort = S;
    UnaryF = G.declareFunction(std::move(F));

    FunctionDecl GDecl;
    GDecl.Name = "g";
    GDecl.ArgSorts = {S, S};
    GDecl.OutSort = S;
    BinaryF = G.declareFunction(std::move(GDecl));

    FunctionDecl E;
    E.Name = "edge";
    E.ArgSorts = {S, S};
    E.OutSort = SortTable::UnitSort;
    EdgeR = G.declareFunction(std::move(E));

    // score : S -> i64 with (max old new), so rebuild collisions exercise
    // merge expressions without minting ids.
    uint32_t MaxPrim = 0;
    EXPECT_TRUE(G.primitives().resolve(
        "max", {SortTable::I64Sort, SortTable::I64Sort}, MaxPrim));
    FunctionDecl Sc;
    Sc.Name = "score";
    Sc.ArgSorts = {S};
    Sc.OutSort = SortTable::I64Sort;
    Sc.MergeExpr = TypedExpr::makeCall(
        TypedExpr::Kind::PrimCall, MaxPrim, SortTable::I64Sort,
        {TypedExpr::makeVar(0, SortTable::I64Sort),
         TypedExpr::makeVar(1, SortTable::I64Sort)});
    Score = G.declareFunction(std::move(Sc));

    // bag : i64 -> SetT hides ids inside a container column, forcing the
    // incremental rebuild onto its per-table sweep fallback.
    FunctionDecl B;
    B.Name = "bag";
    B.ArgSorts = {SortTable::I64Sort};
    B.OutSort = SetOfS;
    Bag = G.declareFunction(std::move(B));
  }
};

/// Drives both databases through the same random sequence and checks the
/// observable state after every rebuild.
class DifferentialDriver {
public:
  explicit DifferentialDriver(uint32_t Seed)
      : Rng(Seed) {}

  void run(unsigned Steps) {
    for (unsigned Step = 0; Step < Steps; ++Step) {
      switch (pick(10)) {
      case 0:
      case 1:
        makeTerm();
        break;
      case 2:
        insertBinary();
        break;
      case 3:
        insertEdge();
        break;
      case 4:
        insertScore();
        break;
      case 5:
        insertBag();
        break;
      case 6:
      case 7:
        unite();
        break;
      case 8:
        pushOrPop();
        break;
      case 9:
        rebuildAndCompare();
        break;
      }
      ASSERT_FALSE(Incremental.G.failed()) << Incremental.G.errorMessage();
      ASSERT_FALSE(FullSweep.G.failed()) << FullSweep.G.errorMessage();
    }
    rebuildAndCompare();
  }

private:
  TestDb Incremental;
  TestDb FullSweep;
  std::mt19937 Rng;
  /// Ids minted so far (same numbering in both databases).
  std::vector<uint64_t> Ids;
  unsigned NextBagKey = 0;

  uint64_t pick(uint64_t Bound) {
    return std::uniform_int_distribution<uint64_t>(0, Bound - 1)(Rng);
  }

  uint64_t randomId() {
    if (Ids.empty())
      makeTerm();
    return Ids[pick(Ids.size())];
  }

  /// Applies \p Op to both databases.
  template <typename Fn> void both(Fn Op) {
    Op(Incremental);
    Op(FullSweep);
  }

  void makeTerm() {
    // A fresh id, plus f(id) so congruence cascades have fuel. getOrCreate
    // mints the f-output id in both databases in the same order.
    uint64_t Fresh = 0;
    both([&](TestDb &Db) {
      Value Id = Db.G.freshId(Db.S);
      Fresh = Id.Bits;
      Value Out;
      ASSERT_TRUE(Db.G.getOrCreate(Db.UnaryF, &Id, Out));
      Ids.push_back(Out.Bits); // same in both: same numbering
    });
    Ids.pop_back(); // pushed twice (once per database)
    Ids.push_back(Fresh);
  }

  void insertBinary() {
    uint64_t A = randomId(), B = randomId();
    both([&](TestDb &Db) {
      Value Keys[2] = {Value(Db.S, A), Value(Db.S, B)};
      Value Out;
      ASSERT_TRUE(Db.G.getOrCreate(Db.BinaryF, Keys, Out));
      Ids.push_back(Out.Bits);
    });
    Ids.pop_back();
  }

  void insertEdge() {
    uint64_t A = randomId(), B = randomId();
    both([&](TestDb &Db) {
      Value Keys[2] = {Value(Db.S, A), Value(Db.S, B)};
      ASSERT_TRUE(Db.G.setValue(Db.EdgeR, Keys, Db.G.mkUnit()));
    });
  }

  void insertScore() {
    uint64_t A = randomId();
    int64_t N = static_cast<int64_t>(pick(100));
    both([&](TestDb &Db) {
      Value Key(Db.S, A);
      ASSERT_TRUE(Db.G.setValue(Db.Score, &Key, Db.G.mkI64(N)));
    });
  }

  void insertBag() {
    uint64_t A = randomId(), B = randomId();
    unsigned Key = NextBagKey++; // unique key: no container merge conflicts
    both([&](TestDb &Db) {
      Value Set =
          Db.G.mkSet(Db.SetOfS, {Value(Db.S, A), Value(Db.S, B)});
      Value K = Db.G.mkI64(Key);
      ASSERT_TRUE(Db.G.setValue(Db.Bag, &K, Set));
    });
  }

  void unite() {
    uint64_t A = randomId(), B = randomId();
    both([&](TestDb &Db) {
      Db.G.unionValues(Value(Db.S, A), Value(Db.S, B));
    });
  }

  void pushOrPop() {
    bool Pop = !Incremental.Stack.empty() && pick(2) == 0;
    if (Pop) {
      both([&](TestDb &Db) {
        Db.G.txnRollback(Db.Stack.back());
        Db.Stack.pop_back();
      });
      // Ids minted inside the popped context are gone; conservatively
      // rebuild the pool from the union-find size (ids are dense).
      size_t Known = Incremental.G.unionFind().size();
      Ids.erase(std::remove_if(Ids.begin(), Ids.end(),
                               [&](uint64_t Id) { return Id >= Known; }),
                Ids.end());
    } else if (Incremental.Stack.size() < 4) {
      both([&](TestDb &Db) { Db.Stack.push_back(Db.G.txnBegin()); });
    }
  }

  /// Every table that tracks occurrences lists, for each canonical id,
  /// exactly the live rows whose id columns hold it: rebuild's per-id drain
  /// and extractVariants both rely on it.
  static void checkOccurrences(EGraph &G) {
    const UnionFind &UF = G.unionFind();
    for (size_t F = 0; F < G.numFunctions(); ++F) {
      const FunctionInfo &Info = G.function(F);
      Table &T = *Info.Storage;
      if (!T.trackingOccurrences())
        continue;
      // The sweep: id -> live rows mentioning it in an id-sort column.
      std::vector<std::vector<uint32_t>> Expected(UF.size());
      for (size_t Row : T.liveRows())
        for (unsigned Col = 0; Col < T.rowWidth(); ++Col) {
          SortId Sort = Col < Info.numKeys() ? Info.Decl.ArgSorts[Col]
                                             : Info.Decl.OutSort;
          if (!G.sorts().isIdSort(Sort))
            continue;
          std::vector<uint32_t> &Rows = Expected[T.cell(Row, Col).Bits];
          if (Rows.empty() || Rows.back() != Row)
            Rows.push_back(static_cast<uint32_t>(Row));
        }
      for (uint64_t Id = 0; Id < UF.size(); ++Id) {
        if (UF.find(Id) != Id)
          continue;
        std::vector<uint32_t> Listed;
        T.forEachOccurrence(Id, [&](uint32_t Row) {
          Listed.push_back(Row);
          return true;
        });
        std::sort(Listed.begin(), Listed.end());
        ASSERT_EQ(Listed, Expected[Id])
            << "occurrences of id " << Id << " in " << Info.Decl.Name;
      }
    }
  }

  void rebuildAndCompare() {
    Incremental.G.rebuild();
    checkOccurrences(Incremental.G);
    if (::testing::Test::HasFatalFailure())
      return;
    oracle::sweepRebuild(FullSweep.G);
    ASSERT_FALSE(FullSweep.G.failed()) << FullSweep.G.errorMessage();
    ASSERT_EQ(Incremental.G.liveTupleCount(), FullSweep.G.liveTupleCount());
    ASSERT_EQ(Incremental.G.unionFind().unionCount(),
              FullSweep.G.unionFind().unionCount());
    uint64_t SweptHash = FullSweep.G.liveContentHash();
    ASSERT_EQ(Incremental.G.liveContentHash(), SweptHash);
    // The sweep leaves the dirty worklist behind; draining it must not
    // change anything the sweep already made canonical.
    FullSweep.G.rebuild();
    checkOccurrences(FullSweep.G);
    if (::testing::Test::HasFatalFailure())
      return;
    ASSERT_EQ(FullSweep.G.liveContentHash(), SweptHash);
    ASSERT_FALSE(Incremental.G.needsRebuild());
    ASSERT_FALSE(FullSweep.G.needsRebuild());
  }
};

} // namespace

TEST(RebuildTest, DifferentialRandomSequences) {
  for (uint32_t Seed : {1u, 7u, 42u, 1234u, 99991u}) {
    DifferentialDriver Driver(Seed);
    Driver.run(400);
    if (::testing::Test::HasFatalFailure())
      FAIL() << "diverged at seed " << Seed;
  }
}

TEST(RebuildTest, CongruenceCascade) {
  // f(a)=b, f(c)=d: uniting a~c must cascade to b~d through the occurrence
  // index alone (no full sweep at this size... the heuristic may still
  // sweep small tables; either way the result must be canonical).
  TestDb Db;
  EGraph &G = Db.G;
  Value A = G.freshId(Db.S), C = G.freshId(Db.S);
  Value B, D;
  ASSERT_TRUE(G.getOrCreate(Db.UnaryF, &A, B));
  ASSERT_TRUE(G.getOrCreate(Db.UnaryF, &C, D));
  ASSERT_FALSE(G.valueEqual(B, D));
  G.unionValues(A, C);
  G.rebuild();
  EXPECT_TRUE(G.valueEqual(A, C));
  EXPECT_TRUE(G.valueEqual(B, D));
  // One row survives, stored fully canonically.
  EXPECT_EQ(G.functionSize(Db.UnaryF), 1u);
}

TEST(RebuildTest, PendingDirtyWorklistSurvivesPop) {
  // A union is pending (not yet rebuilt) when the context pops: the
  // restored worklist must still drive the post-pop rebuild.
  TestDb Db;
  EGraph &G = Db.G;
  Value A = G.freshId(Db.S), C = G.freshId(Db.S);
  Value B, D;
  ASSERT_TRUE(G.getOrCreate(Db.UnaryF, &A, B));
  ASSERT_TRUE(G.getOrCreate(Db.UnaryF, &C, D));
  G.unionValues(A, C); // dirty, NOT rebuilt
  EGraph::TxnMark Mark = G.txnBegin();

  // Inside the context: more churn, fully rebuilt (drains the worklist).
  Value E = G.freshId(Db.S);
  Value FE;
  ASSERT_TRUE(G.getOrCreate(Db.UnaryF, &E, FE));
  G.unionValues(A, E);
  G.rebuild();

  G.txnRollback(Mark);
  EXPECT_TRUE(G.needsRebuild());
  G.rebuild();
  EXPECT_TRUE(G.valueEqual(B, D));
  EXPECT_EQ(G.functionSize(Db.UnaryF), 1u);
}

TEST(RebuildTest, ContainerColumnsStillCanonicalize) {
  // Ids hidden inside a set-sort output: the occurrence index cannot see
  // them, so the incremental rebuild must fall back to sweeping the table.
  TestDb Db;
  EGraph &G = Db.G;
  Value A = G.freshId(Db.S), B = G.freshId(Db.S);
  Value Set = G.mkSet(Db.SetOfS, {A, B});
  Value K = G.mkI64(0);
  ASSERT_TRUE(G.setValue(Db.Bag, &K, Set));
  G.unionValues(A, B);
  G.rebuild();
  Value Canonical = G.canonicalize(A);
  std::optional<Value> Stored = G.lookup(Db.Bag, &K);
  ASSERT_TRUE(Stored.has_value());
  const std::vector<Value> &Elements = G.valueToSet(*Stored);
  ASSERT_EQ(Elements.size(), 1u);
  EXPECT_EQ(Elements[0], Canonical);
}

TEST(RebuildTest, NoDirtyMeansNoPasses) {
  // Pure inserts never stale a row: the incremental rebuild must be a
  // no-op (0 passes), where a sweep would still pay a full pass.
  TestDb Db;
  EGraph &G = Db.G;
  for (int I = 0; I < 100; ++I) {
    Value Id = G.freshId(Db.S);
    Value Out;
    ASSERT_TRUE(G.getOrCreate(Db.UnaryF, &Id, Out));
  }
  EXPECT_EQ(G.rebuild(), 0u);
}

#if EGGLOG_FAILPOINTS_ENABLED

namespace {

/// Twelve ids, each under the unary function, fully rebuilt.
void populate(TestDb &Db, std::vector<Value> &Ids) {
  EGraph &G = Db.G;
  for (int I = 0; I < 12; ++I)
    Ids.push_back(G.freshId(Db.S));
  for (int I = 0; I < 12; ++I) {
    Value Out;
    ASSERT_TRUE(G.getOrCreate(Db.UnaryF, &Ids[I], Out));
    Ids.push_back(Out);
  }
  G.rebuild();
}

/// Pairwise unions whose rebuild cascades through the occurrence lists.
void churn(TestDb &Db, const std::vector<Value> &Ids) {
  for (int I = 0; I + 1 < 12; I += 2)
    Db.G.unionValues(Ids[I], Ids[I + 1]);
}

} // namespace

TEST(RebuildTest, AbortedRebuildRollsBackAndComposes) {
  // A rebuild aborted at its k-th row (swept across every k) must roll
  // back to the pre-transaction state — including the occurrence lists,
  // which rollback wipes for a fresh catch-up — and a clean retry must
  // land on the same content as a database that never faulted.
  struct Disarm {
    ~Disarm() { failpoints::disarm(); }
  } Guard;

  TestDb Faulty, Ref;
  std::vector<Value> FaultyIds, RefIds;
  populate(Faulty, FaultyIds);
  populate(Ref, RefIds);
  Faulty.G.governor().setCheckpointInterval(1);

  uint64_t Before = Faulty.G.liveContentHash();
  size_t Faults = 0;
  for (uint64_t K = 1;; K = K < 8 ? K + 1 : K + (K >> 1)) {
    EGraph::TxnMark Mark = Faulty.G.txnBegin();
    churn(Faulty, FaultyIds);
    bool Ok = true;
    failpoints::arm("rebuild.row", K);
    try {
      Faulty.G.rebuild();
    } catch (const InjectedFault &) {
      Ok = false;
    }
    failpoints::disarm();
    if (Ok) {
      Faulty.G.txnCommit();
      break;
    }
    ++Faults;
    Faulty.G.txnRollback(Mark);
    ASSERT_EQ(Faulty.G.liveContentHash(), Before) << "hit " << K;
    // The rolled-back database is fully canonical: rebuilding is a no-op.
    Faulty.G.rebuild();
    ASSERT_EQ(Faulty.G.liveContentHash(), Before) << "hit " << K;
  }
  EXPECT_GT(Faults, 0u);

  churn(Ref, RefIds);
  Ref.G.rebuild();
  EXPECT_EQ(Faulty.G.liveContentHash(), Ref.G.liveContentHash());
  EXPECT_EQ(Faulty.G.liveTupleCount(), Ref.G.liveTupleCount());
}

#endif // EGGLOG_FAILPOINTS_ENABLED
