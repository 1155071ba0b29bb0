//===- tests/core/QueryTest.cpp - Generic join tests -----------------------===//
//
// Part of egglog-cpp. Tests the relational query engine: generic join
// results, semi-naïve delta splits, primitive filters, and agreement
// between the worst-case-optimal join and the reference oracle's naive
// nested-loop join (tests/oracle/Reference.h), on triangles and on plans
// whose one-participant levels precede the last level.
//
//===----------------------------------------------------------------------===//

#include "core/Query.h"
#include "oracle/Reference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

using namespace egglog;

namespace {

/// Fixture providing an edge relation over i64 pairs.
class QueryTestFixture : public ::testing::Test {
protected:
  EGraph G;
  FunctionId Edge = 0;

  void SetUp() override {
    FunctionDecl Decl;
    Decl.Name = "edge";
    Decl.ArgSorts = {SortTable::I64Sort, SortTable::I64Sort};
    Decl.OutSort = SortTable::UnitSort;
    Edge = G.declareFunction(std::move(Decl));
  }

  void addEdge(int64_t From, int64_t To) {
    Value Keys[2] = {G.mkI64(From), G.mkI64(To)};
    ASSERT_TRUE(G.setValue(Edge, Keys, G.mkUnit()));
  }

  /// Builds the 2-hop query edge(x,y), edge(y,z).
  Query twoHop() {
    Query Q;
    Q.NumVars = 3;
    Q.VarSorts = {SortTable::I64Sort, SortTable::I64Sort, SortTable::I64Sort};
    QueryAtom A1;
    A1.Func = Edge;
    A1.Terms = {VarOrConst::makeVar(0), VarOrConst::makeVar(1),
                VarOrConst::makeConst(G.mkUnit())};
    QueryAtom A2;
    A2.Func = Edge;
    A2.Terms = {VarOrConst::makeVar(1), VarOrConst::makeVar(2),
                VarOrConst::makeConst(G.mkUnit())};
    Q.Atoms = {A1, A2};
    return Q;
  }

  std::set<std::vector<int64_t>> collect(const Query &Q) {
    std::set<std::vector<int64_t>> Results;
    executeQuery(G, Q, [&](const std::vector<Value> &Env) {
      std::vector<int64_t> Row;
      for (const Value &V : Env)
        Row.push_back(static_cast<int64_t>(V.Bits));
      Results.insert(Row);
    });
    return Results;
  }
};

} // namespace

TEST_F(QueryTestFixture, TwoHopJoin) {
  addEdge(1, 2);
  addEdge(2, 3);
  addEdge(3, 4);
  auto Results = collect(twoHop());
  std::set<std::vector<int64_t>> Expected = {{1, 2, 3}, {2, 3, 4}};
  EXPECT_EQ(Results, Expected);
}

TEST_F(QueryTestFixture, SelfLoopAndRepeatedVariable) {
  addEdge(1, 1);
  addEdge(1, 2);
  addEdge(2, 1);
  // edge(x, x): repeated variable within one atom.
  Query Q;
  Q.NumVars = 1;
  Q.VarSorts = {SortTable::I64Sort};
  QueryAtom A;
  A.Func = Edge;
  A.Terms = {VarOrConst::makeVar(0), VarOrConst::makeVar(0),
             VarOrConst::makeConst(G.mkUnit())};
  Q.Atoms = {A};
  auto Results = collect(Q);
  std::set<std::vector<int64_t>> Expected = {{1}};
  EXPECT_EQ(Results, Expected);
}

TEST_F(QueryTestFixture, ConstantsFilterRows) {
  addEdge(1, 2);
  addEdge(1, 3);
  addEdge(2, 3);
  // edge(1, y).
  Query Q;
  Q.NumVars = 1;
  Q.VarSorts = {SortTable::I64Sort};
  QueryAtom A;
  A.Func = Edge;
  A.Terms = {VarOrConst::makeConst(G.mkI64(1)), VarOrConst::makeVar(0),
             VarOrConst::makeConst(G.mkUnit())};
  Q.Atoms = {A};
  auto Results = collect(Q);
  std::set<std::vector<int64_t>> Expected = {{2}, {3}};
  EXPECT_EQ(Results, Expected);
}

TEST_F(QueryTestFixture, PrimitiveFilterPrunes) {
  addEdge(1, 2);
  addEdge(2, 1);
  addEdge(3, 3);
  // edge(x,y) with x < y.
  Query Q;
  Q.NumVars = 2;
  Q.VarSorts = {SortTable::I64Sort, SortTable::I64Sort};
  QueryAtom A;
  A.Func = Edge;
  A.Terms = {VarOrConst::makeVar(0), VarOrConst::makeVar(1),
             VarOrConst::makeConst(G.mkUnit())};
  Q.Atoms = {A};
  PrimComputation Less;
  ASSERT_TRUE(G.primitives().resolve(
      "<", {SortTable::I64Sort, SortTable::I64Sort}, Less.Prim));
  Less.Args = {VarOrConst::makeVar(0), VarOrConst::makeVar(1)};
  Less.Out = VarOrConst::makeConst(G.mkBool(true));
  Q.Prims = {Less};
  auto Results = collect(Q);
  std::set<std::vector<int64_t>> Expected = {{1, 2}};
  EXPECT_EQ(Results, Expected);
}

TEST_F(QueryTestFixture, PrimitiveComputationBindsVariable) {
  addEdge(1, 2);
  // edge(x,y), z := x + y.
  Query Q;
  Q.NumVars = 3;
  Q.VarSorts = {SortTable::I64Sort, SortTable::I64Sort, SortTable::I64Sort};
  QueryAtom A;
  A.Func = Edge;
  A.Terms = {VarOrConst::makeVar(0), VarOrConst::makeVar(1),
             VarOrConst::makeConst(G.mkUnit())};
  Q.Atoms = {A};
  PrimComputation Add;
  ASSERT_TRUE(G.primitives().resolve(
      "+", {SortTable::I64Sort, SortTable::I64Sort}, Add.Prim));
  Add.Args = {VarOrConst::makeVar(0), VarOrConst::makeVar(1)};
  Add.Out = VarOrConst::makeVar(2);
  Q.Prims = {Add};
  auto Results = collect(Q);
  std::set<std::vector<int64_t>> Expected = {{1, 2, 3}};
  EXPECT_EQ(Results, Expected);
}

TEST_F(QueryTestFixture, SemiNaiveSplitCoversExactlyTheNewMatches) {
  // Old epoch: edges at stamp 0. New epoch: one edge at stamp 1.
  addEdge(1, 2);
  addEdge(2, 3);
  G.bumpTimestamp();
  addEdge(3, 4);

  Query Q = twoHop();
  // Full query finds both 2-hop paths.
  auto Full = collect(Q);
  EXPECT_EQ(Full.size(), 2u);

  // Delta expansion: (New, All) plus (Old, New) must find exactly the
  // matches involving the new edge, with no duplicates across splits.
  std::set<std::vector<int64_t>> DeltaResults;
  size_t Emitted = 0;
  for (int J = 0; J < 2; ++J) {
    std::vector<AtomFilter> Filters(2);
    for (int K = 0; K < 2; ++K)
      Filters[K] = K < J ? AtomFilter::Old
                         : (K == J ? AtomFilter::New : AtomFilter::All);
    executeQuery(G, Q, Filters, /*DeltaBound=*/1,
                 [&](const std::vector<Value> &Env) {
                   std::vector<int64_t> Row;
                   for (const Value &V : Env)
                     Row.push_back(static_cast<int64_t>(V.Bits));
                   DeltaResults.insert(Row);
                   ++Emitted;
                 });
  }
  std::set<std::vector<int64_t>> Expected = {{2, 3, 4}};
  EXPECT_EQ(DeltaResults, Expected);
  EXPECT_EQ(Emitted, DeltaResults.size()) << "delta splits must not overlap";
}

TEST_F(QueryTestFixture, EmptyAtomYieldsNothing) {
  auto Results = collect(twoHop());
  EXPECT_TRUE(Results.empty());
}

TEST_F(QueryTestFixture, QueryWithNoAtomsRunsPrimsOnce) {
  Query Q;
  Q.NumVars = 1;
  Q.VarSorts = {SortTable::I64Sort};
  PrimComputation Add;
  ASSERT_TRUE(G.primitives().resolve(
      "+", {SortTable::I64Sort, SortTable::I64Sort}, Add.Prim));
  Add.Args = {VarOrConst::makeConst(G.mkI64(2)),
              VarOrConst::makeConst(G.mkI64(3))};
  Add.Out = VarOrConst::makeVar(0);
  Q.Prims = {Add};
  auto Results = collect(Q);
  std::set<std::vector<int64_t>> Expected = {{5}};
  EXPECT_EQ(Results, Expected);
}

TEST(QueryTest, MatchesKeepEachVariablesSortOverSharedPayloads) {
  // (R i64 E) with every row's i64 and E id holding the same payload. The
  // columns and the match arena keep payloads only; each match must come
  // back with every variable's own sort, through the multi-participant
  // level (y) and the last-level column scan (z).
  EGraph G;
  SortId E = G.declareSort("E");
  FunctionDecl Decl;
  Decl.Name = "R";
  Decl.ArgSorts = {SortTable::I64Sort, E};
  Decl.OutSort = SortTable::UnitSort;
  FunctionId R = G.declareFunction(std::move(Decl));
  std::set<std::vector<uint64_t>> Expected;
  std::vector<Value> Ids;
  for (int I = 0; I < 5; ++I)
    Ids.push_back(G.freshId(E));
  for (Value Id : Ids) {
    uint64_t Twin = Id.Bits + 100;
    for (uint64_t X : {Id.Bits, Twin}) {
      Value Keys[2] = {G.mkI64(static_cast<int64_t>(X)), Id};
      ASSERT_TRUE(G.setValue(R, Keys, G.mkUnit()));
      for (uint64_t Z : {Id.Bits, Twin})
        Expected.insert({X, Id.Bits, Z});
    }
  }

  // R(x, y), R(z, y).
  Query Q;
  Q.NumVars = 3;
  Q.VarSorts = {SortTable::I64Sort, E, SortTable::I64Sort};
  for (uint32_t X : {0u, 2u}) {
    QueryAtom A;
    A.Func = R;
    A.Terms = {VarOrConst::makeVar(X), VarOrConst::makeVar(1),
               VarOrConst::makeConst(G.mkUnit())};
    Q.Atoms.push_back(A);
  }
  std::set<std::vector<uint64_t>> Got;
  size_t Count = 0;
  executeQuery(G, Q, [&](const std::vector<Value> &Env) {
    ASSERT_EQ(Env.size(), 3u);
    EXPECT_EQ(Env[0].Sort, SortTable::I64Sort);
    EXPECT_EQ(Env[1].Sort, E);
    EXPECT_EQ(Env[2].Sort, SortTable::I64Sort);
    Got.insert({Env[0].Bits, Env[1].Bits, Env[2].Bits});
    ++Count;
  });
  EXPECT_EQ(Got, Expected);
  EXPECT_EQ(Count, Expected.size());

  // A constant narrows its column by payload within the column's sort: the
  // i64 twin of an id selects that id's rows only.
  Query Anchored;
  Anchored.NumVars = 1;
  Anchored.VarSorts = {E};
  QueryAtom A;
  A.Func = R;
  A.Terms = {VarOrConst::makeConst(G.mkI64(static_cast<int64_t>(Ids[2].Bits))),
             VarOrConst::makeVar(0), VarOrConst::makeConst(G.mkUnit())};
  Anchored.Atoms = {A};
  std::vector<Value> Anchors;
  executeQuery(G, Anchored,
               [&](const std::vector<Value> &Env) { Anchors.push_back(Env[0]); });
  EXPECT_EQ(Anchors, std::vector<Value>{Ids[2]});
}

/// Property: the generic join and the oracle's nested-loop join agree on
/// random graphs for triangle queries (the classic worst-case-optimal
/// showcase): the same match multiset.
class JoinAgreementTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(JoinAgreementTest, TriangleQueryAgreesWithNaiveJoin) {
  std::mt19937 Rng(GetParam());
  EGraph G;
  FunctionDecl Decl;
  Decl.Name = "edge";
  Decl.ArgSorts = {SortTable::I64Sort, SortTable::I64Sort};
  Decl.OutSort = SortTable::UnitSort;
  FunctionId Edge = G.declareFunction(std::move(Decl));

  std::uniform_int_distribution<int64_t> Node(0, 15);
  for (int I = 0; I < 60; ++I) {
    Value Keys[2] = {G.mkI64(Node(Rng)), G.mkI64(Node(Rng))};
    ASSERT_TRUE(G.setValue(Edge, Keys, G.mkUnit()));
  }

  // Triangle: edge(x,y), edge(y,z), edge(z,x).
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
  Q.Atoms = {MakeAtom(0, 1), MakeAtom(1, 2), MakeAtom(2, 0)};

  oracle::MatchMultiset Generic;
  executeQuery(G, Q, [&](const std::vector<Value> &Env) {
    ++Generic[{Env[0].Bits, Env[1].Bits, Env[2].Bits}];
  });
  EXPECT_FALSE(Generic.empty());
  EXPECT_EQ(Generic, oracle::ReferenceJoin(G, Q).run());
}

/// Plans with one-participant levels before the last level, which run
/// through the join's group loop (only a last level takes the tail scan):
/// a two-atom path (x, then z alone), a repeated variable (x twice in one
/// atom, then y), and a primitive-bound variable (z = y + 1) that feeds a
/// later atom. Through executeQuery, and through the engine at 1 and at 4
/// match threads, each plan yields the oracle's match multiset.
TEST_P(JoinAgreementTest, SingleParticipantLevelsAgreeWithNaiveJoin) {
  struct Plan {
    std::string Body;
    std::string Out;
    std::vector<std::string> Vars;
  };
  const std::vector<Plan> Plans = {
      {"(edge x y) (edge y z)", "path", {"x", "y", "z"}},
      {"(hop x x y)", "loop", {"x", "y"}},
      {"(edge x y) (= z (+ y 1)) (edge z w)", "step", {"x", "y", "z", "w"}},
  };
  std::string Program = R"(
    (relation edge (i64 i64))
    (relation hop (i64 i64 i64))
    (relation path (i64 i64 i64))
    (relation loop (i64 i64))
    (relation step (i64 i64 i64 i64))
  )";
  for (const Plan &P : Plans) {
    Program += "(rule (" + P.Body + ") ((" + P.Out;
    for (const std::string &V : P.Vars)
      Program += " " + V;
    Program += ")))\n";
  }
  std::mt19937 Rng(GetParam());
  std::uniform_int_distribution<int> Node(0, 11);
  for (int I = 0; I < 40; ++I) {
    std::string A = std::to_string(Node(Rng)), B = std::to_string(Node(Rng)),
                C = std::to_string(Node(Rng));
    Program += "(edge " + A + " " + B + ")\n";
    // Every other hop row repeats its first column.
    Program += "(hop " + A + " " + (I % 2 ? A : B) + " " + C + ")\n";
  }

  for (unsigned Threads : {1u, 4u}) {
    Frontend F;
    F.engine().setThreads(Threads);
    ASSERT_TRUE(F.execute(Program)) << F.error();
    EGraph &G = F.graph();
    size_t ExpectedMatches = 0;
    std::vector<std::set<oracle::MatchBits>> ExpectedRows;
    for (size_t R = 0; R < Plans.size(); ++R) {
      const Rule &TheRule = F.engine().rule(R);
      oracle::MatchMultiset Reference =
          oracle::ReferenceJoin(G, TheRule.Body).run();
      oracle::MatchMultiset Generic;
      executeQuery(G, TheRule.Body, [&](const std::vector<Value> &Env) {
        oracle::MatchBits M;
        for (const Value &V : Env)
          M.push_back(V.Bits);
        ++Generic[M];
      });
      EXPECT_FALSE(Reference.empty()) << Plans[R].Body;
      EXPECT_EQ(Generic, Reference) << Plans[R].Body;

      // The rule writes each match's named variables to its output.
      std::vector<size_t> Slots;
      for (const std::string &Name : Plans[R].Vars) {
        auto It = std::find(TheRule.VarNames.begin(), TheRule.VarNames.end(),
                            Name);
        ASSERT_NE(It, TheRule.VarNames.end()) << Name;
        Slots.push_back(It - TheRule.VarNames.begin());
      }
      std::set<oracle::MatchBits> Rows;
      for (const auto &[Match, Count] : Reference) {
        oracle::MatchBits Row;
        for (size_t Slot : Slots)
          Row.push_back(Match[Slot]);
        Rows.insert(Row);
        ExpectedMatches += Count;
      }
      ExpectedRows.push_back(std::move(Rows));
    }

    ASSERT_TRUE(F.execute("(run 1)")) << F.error();
    EXPECT_EQ(F.lastRun().totalMatches(), ExpectedMatches)
        << Threads << " threads";
    for (size_t R = 0; R < Plans.size(); ++R) {
      FunctionId Out;
      ASSERT_TRUE(G.lookupFunctionName(Plans[R].Out, Out));
      const Table &T = *G.function(Out).Storage;
      std::set<oracle::MatchBits> Rows;
      for (size_t Row : T.liveRows()) {
        oracle::MatchBits Bits;
        for (unsigned I = 0; I < Plans[R].Vars.size(); ++I)
          Bits.push_back(T.cell(Row, I).Bits);
        Rows.insert(Bits);
      }
      EXPECT_EQ(Rows, ExpectedRows[R])
          << Plans[R].Body << " at " << Threads << " threads";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinAgreementTest,
                         ::testing::Values(10u, 20u, 30u, 40u, 50u));
