//===- tests/core/ContextTest.cpp - Push/pop context tests -----------------===//
//
// Part of egglog-cpp. Tests for (push)/(pop) database contexts: a context
// is a transaction mark held open until its pop, and the pop must be exact
// — the live content hash, counts, and every declaration match the
// pre-push state, no matter what ran (or failed) in between.
//
//===----------------------------------------------------------------------===//

#include "core/Frontend.h"
#include "core/Query.h"

#include <gtest/gtest.h>

using namespace egglog;

namespace {

/// Everything that must round-trip across push/pop, in one comparable bag.
struct StateFingerprint {
  uint64_t ContentHash;
  size_t LiveTuples;
  uint64_t Unions;
  size_t Functions;
  size_t Sorts;
  size_t Rules;
  size_t Rulesets;

  bool operator==(const StateFingerprint &) const = default;
};

StateFingerprint fingerprint(Frontend &F) {
  return StateFingerprint{F.graph().liveContentHash(),
                          F.graph().liveTupleCount(),
                          F.graph().unionFind().unionCount(),
                          F.graph().numFunctions(),
                          F.graph().sorts().size(),
                          F.engine().numRules(),
                          F.engine().numRulesets()};
}

} // namespace

TEST(ContextTest, PopRestoresExactContentHash) {
  // The acceptance criterion: hash after pop == hash before push, even
  // after runs that grew tables and indexes in between.
  Frontend F;
  ASSERT_TRUE(F.execute(R"(
    (datatype Math (Num i64) (Add Math Math) (Mul Math Math))
    (rewrite (Add a b) (Add b a))
    (rewrite (Add (Num x) (Num y)) (Num (+ x y)))
    (define e (Add (Num 1) (Add (Num 2) (Num 3))))
    (run 3)
  )")) << F.error();
  StateFingerprint Before = fingerprint(F);

  ASSERT_TRUE(F.execute(R"(
    (push)
    (define f (Mul e (Add (Num 4) (Num 5))))
    (rewrite (Mul a b) (Mul b a))
    (run 5)
    (check (= f (Mul (Add (Num 4) (Num 5)) e)))
    (pop)
  )")) << F.error();

  EXPECT_EQ(fingerprint(F), Before);
  // The abandoned work is really gone.
  Value Out;
  EXPECT_FALSE(F.evalGround("f", Out));
  // And the database still works: the pre-push rules keep running.
  ASSERT_TRUE(F.execute("(run 3) (check (= e (Num 6)))")) << F.error();
}

TEST(ContextTest, PopUndoesUnionsExactly) {
  Frontend F;
  ASSERT_TRUE(F.execute(R"(
    (sort N)
    (function mk (i64) N)
    (relation edge (N N))
    (relation path (N N))
    (rule ((edge x y)) ((path x y)))
    (rule ((path x y) (edge y z)) ((path x z)))
    (edge (mk 1) (mk 2))
    (edge (mk 3) (mk 4))
    (run)
  )")) << F.error();
  StateFingerprint Before = fingerprint(F);

  ASSERT_TRUE(F.execute(R"(
    (push)
    (union (mk 2) (mk 3))
    (run)
    (check (path (mk 1) (mk 4)))
    (pop)
    (check-fail (path (mk 1) (mk 4)))
  )")) << F.error();
  EXPECT_EQ(fingerprint(F), Before);

  // Entering the context again must behave identically (speculation is
  // repeatable).
  ASSERT_TRUE(F.execute(R"(
    (push)
    (union (mk 2) (mk 3))
    (run)
    (check (path (mk 1) (mk 4)))
    (pop)
  )")) << F.error();
  EXPECT_EQ(fingerprint(F), Before);
}

TEST(ContextTest, DeclarationsInsideContextAreDropped) {
  Frontend F;
  ASSERT_TRUE(F.execute(R"(
    (relation r (i64))
    (r 1)
    (push)
    (sort Inner)
    (function mkInner (i64) Inner)
    (relation s (Inner))
    (ruleset inner-rules)
    (rule ((r x)) ((s (mkInner x))) :ruleset inner-rules)
    (run inner-rules 2)
    (check (s (mkInner 1)))
    (pop)
  )")) << F.error();
  // All inner declarations are gone, so redeclaring them is legal...
  EXPECT_TRUE(F.execute("(sort Inner)")) << F.error();
  EXPECT_TRUE(F.execute("(ruleset inner-rules)")) << F.error();
  // ...and the function name is free again.
  EXPECT_TRUE(F.execute("(relation mkInner (i64))")) << F.error();
}

TEST(ContextTest, NestedContextsUnwindInOrder) {
  Frontend F;
  ASSERT_TRUE(F.execute("(relation r (i64)) (r 1)")) << F.error();
  StateFingerprint Depth0 = fingerprint(F);
  ASSERT_TRUE(F.execute("(push) (r 2)")) << F.error();
  StateFingerprint Depth1 = fingerprint(F);
  ASSERT_TRUE(F.execute("(push 2) (r 3) (r 4)")) << F.error();
  EXPECT_EQ(F.contextDepth(), 3u);

  ASSERT_TRUE(F.execute("(pop 2)")) << F.error();
  EXPECT_EQ(fingerprint(F), Depth1);
  ASSERT_TRUE(F.execute("(check (r 2)) (check-fail (r 3))")) << F.error();
  ASSERT_TRUE(F.execute("(pop)")) << F.error();
  EXPECT_EQ(fingerprint(F), Depth0);
  ASSERT_TRUE(F.execute("(check (r 1)) (check-fail (r 2))")) << F.error();
}

TEST(ContextTest, PopWithoutPushIsAnError) {
  Frontend F;
  ASSERT_FALSE(F.execute("(pop)"));
  EXPECT_NE(F.error().find("without a matching"), std::string::npos)
      << F.error();
}

TEST(ContextTest, OverdrawnPopIsAtomic) {
  // Regression: (pop n) with fewer than n open contexts must fail without
  // consuming the contexts that do exist.
  Frontend F;
  ASSERT_TRUE(F.execute("(relation r (i64)) (push) (r 1)")) << F.error();
  ASSERT_FALSE(F.execute("(pop 2)"));
  EXPECT_EQ(F.contextDepth(), 1u);
  // The open context is intact: its contents are still visible and a
  // plain (pop) still abandons them.
  EXPECT_TRUE(F.execute("(check (r 1)) (pop) (check-fail (r 1))"));
  EXPECT_EQ(F.contextDepth(), 0u);
}

TEST(ContextTest, DeletionsInsideContextAreUndone) {
  // Pop must resurrect rows killed inside the context, not just drop the
  // appended ones.
  Frontend F;
  ASSERT_TRUE(F.execute(R"(
    (relation r (i64))
    (r 1) (r 2) (r 3)
  )")) << F.error();
  StateFingerprint Before = fingerprint(F);
  ASSERT_TRUE(F.execute(R"(
    (push)
    (delete (r 2))
    (check-fail (r 2))
    (pop)
    (check (r 2))
  )")) << F.error();
  EXPECT_EQ(fingerprint(F), Before);
}

TEST(ContextTest, MergeUpdatesInsideContextRollBack) {
  // A lattice update kills the old row and appends a new one; pop must
  // restore the old output exactly.
  Frontend F;
  ASSERT_TRUE(F.execute(R"(
    (function best (i64) i64 :merge (max old new))
    (set (best 0) 10)
  )")) << F.error();
  StateFingerprint Before = fingerprint(F);
  ASSERT_TRUE(F.execute(R"(
    (push)
    (set (best 0) 99)
    (check (= (best 0) 99))
    (pop)
    (check (= (best 0) 10))
  )")) << F.error();
  EXPECT_EQ(fingerprint(F), Before);
}

TEST(ContextTest, SemiNaiveStateSurvivesAbandonedContext) {
  // A rule's delta bound rolls back with the context, so facts re-asserted
  // after the pop are still found (nothing is skipped as "already seen").
  Frontend F;
  ASSERT_TRUE(F.execute(R"(
    (relation edge (i64 i64))
    (relation path (i64 i64))
    (rule ((edge x y)) ((path x y)))
    (rule ((path x y) (edge y z)) ((path x z)))
    (edge 1 2)
    (run 1)
    (push)
    (edge 2 3)
    (run)
    (check (path 1 3))
    (pop)
    (check-fail (path 1 3))
    (edge 2 3)
    (run)
    (check (path 1 3))
  )")) << F.error();
}

TEST(ContextTest, EGraphMarkRoundTripsAtTheApiLevel) {
  // Library-level use (no Frontend): open a mark, mutate heavily, roll
  // back.
  EGraph G;
  SortId N = G.declareSort("N");
  FunctionId Mk = G.declareFunction(
      FunctionDecl{"mk", {SortTable::I64Sort}, N, std::nullopt, std::nullopt, 1});
  for (int64_t I = 0; I < 10; ++I) {
    Value Key = G.mkI64(I);
    Value Out;
    ASSERT_TRUE(G.getOrCreate(Mk, &Key, Out));
  }
  uint64_t HashBefore = G.liveContentHash();
  size_t LiveBefore = G.liveTupleCount();

  EGraph::TxnMark Mark = G.txnBegin();
  // Mutate: new terms, unions, a rebuild, and touched indexes.
  for (int64_t I = 10; I < 50; ++I) {
    Value Key = G.mkI64(I);
    Value Out;
    ASSERT_TRUE(G.getOrCreate(Mk, &Key, Out));
  }
  Value K0 = G.mkI64(0), K1 = G.mkI64(1);
  Value V0 = *G.lookup(Mk, &K0), V1 = *G.lookup(Mk, &K1);
  G.unionValues(V0, V1);
  G.rebuild();
  ASSERT_NE(G.liveContentHash(), HashBefore);

  G.txnRollback(Mark);
  EXPECT_EQ(G.liveContentHash(), HashBefore);
  EXPECT_EQ(G.liveTupleCount(), LiveBefore);
  EXPECT_EQ(G.unionFind().unionCount(), 0u);
  // The rolled-back table is fully usable: lookups and fresh inserts work.
  EXPECT_TRUE(G.lookup(Mk, &K0).has_value());
  Value K99 = G.mkI64(99), Out99;
  ASSERT_TRUE(G.getOrCreate(Mk, &K99, Out99));
  EXPECT_EQ(G.liveTupleCount(), LiveBefore + 1);
}

TEST(ContextTest, HugePushCountIsConstantSpace) {
  // (push n) saves one state n times, so it costs one entry however large
  // n is; (pop k) consumes repeat counts. The n contexts all saved the
  // pre-push state, so any pop discards the innermost change.
  Frontend F;
  ASSERT_TRUE(F.execute("(relation r (i64)) (r 1)")) << F.error();
  StateFingerprint Before = fingerprint(F);
  ASSERT_TRUE(F.execute("(push 1000000000000) (r 2)")) << F.error();
  EXPECT_EQ(F.contextDepth(), 1000000000000u);
  ASSERT_TRUE(F.execute("(pop 999999999999)")) << F.error();
  EXPECT_EQ(F.contextDepth(), 1u);
  EXPECT_EQ(fingerprint(F), Before);
  ASSERT_TRUE(F.execute("(check-fail (r 2))")) << F.error();
  // The last remaining context is a working mark: a change made in it is
  // visible, an overdrawn pop is still atomic, and (pop) undoes the change.
  ASSERT_TRUE(F.execute("(r 3) (check (r 3))")) << F.error();
  ASSERT_FALSE(F.execute("(pop 2)"));
  EXPECT_EQ(F.contextDepth(), 1u);
  ASSERT_TRUE(F.execute("(check (r 3)) (pop)")) << F.error();
  EXPECT_EQ(F.contextDepth(), 0u);
  EXPECT_EQ(fingerprint(F), Before);
}

TEST(ContextTest, FailedCommandInsideContextRollsBackOnlyTheCommand) {
  // A command's own mark nests inside the open context's mark: the
  // governor tripping mid-run rolls back that command alone, the context
  // keeps working, and the pop still lands on the pre-push state.
  Frontend F;
  F.graph().governor().setCheckpointInterval(16);
  ASSERT_TRUE(F.execute(R"(
    (datatype Math (Num i64) (Add Math Math))
    (rewrite (Add a b) (Add b a))
    (rewrite (Add a (Add b c)) (Add (Add a b) c))
    (define e (Add (Num 1) (Add (Num 2) (Add (Num 3) (Num 4)))))
  )")) << F.error();
  StateFingerprint BeforePush = fingerprint(F);

  ASSERT_TRUE(F.execute(R"(
    (push)
    (define g (Add (Num 5) (Num 6)))
    (union g (Num 11))
    (run 1)
  )")) << F.error();
  StateFingerprint BeforeCommand = fingerprint(F);
  ASSERT_NE(BeforeCommand, BeforePush);

  size_t Ceiling = F.graph().liveTupleCount() + 20;
  ASSERT_TRUE(F.execute("(set-option :max-nodes " + std::to_string(Ceiling) +
                        ")"))
      << F.error();
  EXPECT_FALSE(F.execute("(run 100)"));
  EXPECT_EQ(F.lastError().Kind, ErrKind::Limit) << F.error();
  EXPECT_EQ(fingerprint(F), BeforeCommand);
  EXPECT_EQ(F.contextDepth(), 1u);

  ASSERT_TRUE(F.execute(R"(
    (set-option :max-nodes 0)
    (run 2)
    (check (= g (Num 11)))
    (check (= e (Add (Add (Num 1) (Num 2)) (Add (Num 3) (Num 4)))))
  )")) << F.error();
  ASSERT_TRUE(F.execute("(pop)")) << F.error();
  EXPECT_EQ(fingerprint(F), BeforePush);
}

TEST(ContextTest, PopKeepsUntouchedTablesIndexesWarm) {
  // Pop rolls back only the tables the context touched, so a column index
  // built on an untouched table before the push is still served after the
  // pop without a rebuild.
  Frontend F;
  ASSERT_TRUE(F.execute(R"(
    (relation a (i64 i64))
    (relation b (i64))
    (a 1 2) (a 2 3) (a 3 1)
    (b 0)
  )")) << F.error();
  FunctionId A = 0;
  ASSERT_TRUE(F.graph().lookupFunctionName("a", A));
  IndexCache &Indexes = F.graph().function(A).Storage->indexes();
  const std::vector<unsigned> Perm{1, 0};
  ASSERT_EQ(Indexes.get(Perm, AtomFilter::All, 0).size(), 3u);
  uint64_t Builds = Indexes.stats().Builds;
  ASSERT_GT(Builds, 0u);

  ASSERT_TRUE(F.execute("(push) (b 1) (b 2) (delete (b 0)) (pop)"))
      << F.error();
  ASSERT_EQ(Indexes.get(Perm, AtomFilter::All, 0).size(), 3u);
  EXPECT_EQ(Indexes.stats().Builds, Builds);
}

TEST(ContextTest, SessionQueriesKeepIndexesWarmAcrossPops) {
  // The shape of a query session: push, define a term, run, extract, pop,
  // over and over. Each pop rolls back tables the run appended to and
  // killed in; their column indexes are repaired, not dropped, so after
  // the first query every index the runs need is refreshed, never rebuilt.
  // At 4 threads the joins read the repaired indexes concurrently.
  const std::vector<std::string> Queries = {
      "(Add (Num 2) (Mul (Num 3) (Num 4)))",
      "(Mul (Add (Num 1) (Num 5)) (Num 2))",
      "(Add (Mul (Num 2) (Num 2)) (Add (Num 7) (Num 1)))",
      "(Mul (Num 6) (Add (Num 3) (Num 3)))",
      "(Add (Num 9) (Num 0))",
      "(Mul (Mul (Num 1) (Num 2)) (Add (Num 3) (Num 4)))",
  };
  for (unsigned Threads : {1u, 4u}) {
    Frontend F;
    F.engine().setThreads(Threads);
    ASSERT_TRUE(F.execute(R"(
      (datatype Math (Num i64) (Add Math Math) (Mul Math Math))
      (rewrite (Add a b) (Add b a))
      (rewrite (Mul a b) (Mul b a))
      (rewrite (Mul a (Add b c)) (Add (Mul a b) (Mul a c)))
      (rewrite (Add (Num x) (Num y)) (Num (+ x y)))
      (rewrite (Mul (Num x) (Num y)) (Num (* x y)))
      (define e (Mul (Num 2) (Add (Num 1) (Num 3))))
      (run 3)
    )")) << F.error();
    StateFingerprint BeforeQueries = fingerprint(F);
    uint64_t BuildsAfterFirst = 0;
    for (size_t I = 0; I < Queries.size(); ++I) {
      ASSERT_TRUE(F.execute("(push) (define q " + Queries[I] +
                            ") (run 2) (extract q) (pop)"))
          << F.error();
      EXPECT_EQ(fingerprint(F), BeforeQueries) << "query " << I;
      IndexCache::Stats Stats = F.graph().indexStats();
      if (I == 0)
        BuildsAfterFirst = Stats.Builds;
      else
        EXPECT_EQ(Stats.Builds, BuildsAfterFirst)
            << "query " << I << " at " << Threads << " threads";
    }
    EXPECT_EQ(F.outputs().size(), Queries.size());
  }
}

TEST(ContextTest, RuleExecutorsLiveAsLongAsTheirRules) {
  // A rule's executors are built when the rule is added and reference its
  // query in place, so they must survive later rules being added, a pop
  // that drops only the context's rules, and a failed command's rollback.
  // After each step the database equals a fresh frontend's that replays
  // only the commands still in effect.
  Frontend F;
  F.graph().governor().setCheckpointInterval(16);
  std::vector<std::string> Kept;
  size_t PushedAt = 0;
  auto Step = [&](const std::string &Command) {
    ASSERT_TRUE(F.execute(Command)) << Command << ": " << F.error();
    if (Command == "(push)")
      PushedAt = Kept.size();
    else if (Command == "(pop)")
      Kept.resize(PushedAt);
    else
      Kept.push_back(Command);
    Frontend Fresh;
    for (const std::string &Replayed : Kept)
      ASSERT_TRUE(Fresh.execute(Replayed)) << Replayed << ": "
                                           << Fresh.error();
    EXPECT_EQ(F.graph().liveContentHash(), Fresh.graph().liveContentHash())
        << "after " << Command;
  };
  auto MoreRules = [](int First, int Count) {
    std::string Rules;
    for (int K = First; K < First + Count; ++K)
      Rules += "(rule ((path x y) (edge y z)) ((path x z) (hit " +
               std::to_string(K) + " z)))\n";
    return Rules;
  };

  Step("(relation edge (i64 i64)) (relation path (i64 i64)) "
       "(relation hit (i64 i64))");
  Step("(edge 1 2) (edge 2 3) (edge 3 4) (edge 4 5) (edge 5 1)");
  Step("(rule ((edge x y)) ((path x y)))");
  Step("(run 2)");
  Step(MoreRules(0, 64));
  Step("(run 2)");

  Step("(push)");
  Step(MoreRules(64, 8));
  Step("(edge 5 6)");
  Step("(run 3)");
  Step("(pop)");
  Step(MoreRules(64, 2));
  Step("(run 2)");

  // A failed command rolls back to its own mark, after which the run's
  // executors keep serving the same rules.
  Step("(edge 5 6) (edge 6 7)");
  size_t Ceiling = F.graph().liveTupleCount() + 4;
  EXPECT_FALSE(F.execute("(set-option :max-nodes " + std::to_string(Ceiling) +
                         ") (run 100)"));
  EXPECT_EQ(F.lastError().Kind, ErrKind::Limit) << F.error();
  Step("(set-option :max-nodes 0)");
  Step("(run 100)");
}
