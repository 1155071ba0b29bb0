//===- tests/core/PhaseTest.cpp - Parallel match tests --------------------===//
//
// Part of egglog-cpp. Fanning the match phase out must be observationally
// invisible: for any thread count the engine produces a bit-identical
// database (liveContentHash), because matches are buffered per (rule,
// delta variant) and applied in declaration order. A randomized
// differential driver (in the style of RebuildTest.cpp) runs the same
// union/insert/run/push/pop sequence against engines at threads 1, 2, and
// 8 and compares after every run; the shipped Herbie phased schedule and a
// two-ruleset BackOff schedule over a lattice are compared at threads 1
// and 4; the prepare/join contract — after QueryExecutor::prepare, join
// performs no Index build, refresh or derivation and no Table version
// bump — is checked directly against the index stats; and the thread
// pool's claim loop and exception path are tested on their own.
//
//===----------------------------------------------------------------------===//

#include "core/Frontend.h"
#include "core/Query.h"
#include "herbie/FPExpr.h"
#include "herbie/Herbie.h"
#include "herbie/Rules.h"
#include "support/FailPoints.h"
#include "support/Rational.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <stdexcept>
#include <string>

using namespace egglog;

namespace {

//===----------------------------------------------------------------------===
// Randomized differential determinism
//===----------------------------------------------------------------------===

/// The shared program: relational rules with multi-atom joins (several
/// delta variants each), term rewrites that mint fresh ids during apply,
/// a safe i64 primitive (parallel path), and two parallel-unsafe query
/// primitives — a rational constructor (interns) and the polymorphic !=
/// over ids (canonicalizes) — exercising the serial prelude.
const char *DeterminismProgram = R"(
  (datatype E (Leaf i64) (Join E E))
  (relation edge (i64 i64))
  (relation path (i64 i64))
  (relation weight (i64 i64))
  (relation ratio (i64 Rational))
  (relation distinct (i64))
  (rule ((edge x y)) ((path x y)))
  (rule ((path x y) (edge y z)) ((path x z)))
  (rule ((path x y) (path y z) (< x z)) ((weight x z)))
  (rewrite (Join a b) (Join b a))
  (rule ((weight x y) (= r (rational x 3))) ((ratio x r)))
  (rule ((Join a b) (!= a b)) ((distinct 1)))
  (Join (Leaf 100) (Leaf 101))
  (Join (Join (Leaf 102) (Leaf 103)) (Leaf 104))
)";

/// Asserts that \p Other ended in exactly the state of \p Base: same live
/// content, same fresh-id numbering, and the same per-rule scheduler
/// trajectory (delta frontiers and BackOff bans).
void expectSameEngineState(Frontend &Base, Frontend &Other) {
  EGraph &B = Base.graph(), &O = Other.graph();
  std::string At =
      " at " + std::to_string(Other.engine().threads()) + " threads";
  ASSERT_EQ(B.liveTupleCount(), O.liveTupleCount())
      << "tuple count diverged" << At;
  ASSERT_EQ(B.unionFind().unionCount(), O.unionFind().unionCount())
      << "union count diverged" << At;
  ASSERT_EQ(B.liveContentHash(), O.liveContentHash())
      << "content diverged" << At;
  // liveContentHash folds in raw id bits, but also pin the fresh-id
  // numbering down directly: the union-find must have minted exactly the
  // same number of ids in the same order.
  ASSERT_EQ(B.unionFind().size(), O.unionFind().size())
      << "fresh-id numbering diverged" << At;
  // The scheduler trajectory must track bit-for-bit too — a dropped or
  // extra ban would only skew the database several runs later.
  Engine::Snapshot SB = Base.engine().snapshot();
  Engine::Snapshot SO = Other.engine().snapshot();
  ASSERT_EQ(SB.States.size(), SO.States.size());
  ASSERT_EQ(SB.GlobalIteration, SO.GlobalIteration)
      << "iteration clock diverged" << At;
  for (size_t R = 0; R < SB.States.size(); ++R) {
    ASSERT_EQ(SB.States[R].DeltaStart, SO.States[R].DeltaStart)
        << "delta frontier of rule " << R << " diverged" << At;
    ASSERT_EQ(SB.States[R].BannedUntil, SO.States[R].BannedUntil)
        << "ban span of rule " << R << " diverged" << At;
    ASSERT_EQ(SB.States[R].TimesBanned, SO.States[R].TimesBanned)
        << "ban count of rule " << R << " diverged" << At;
  }
}

struct TestEngine {
  Frontend F;
  size_t Depth = 0;

  TestEngine(unsigned Threads, bool UseBackoff) {
    EXPECT_TRUE(F.execute(DeterminismProgram)) << F.error();
    F.engine().setThreads(Threads);
    if (UseBackoff) {
      F.runOptions().UseBackoff = true;
      F.runOptions().BackoffMatchLimit = 200;
    }
  }
};

class DeterminismDriver {
public:
  /// Odd seeds run with the BackOff scheduler enabled (low match limit),
  /// so the randomized scripts also exercise cross-thread agreement of
  /// the ban trajectories, not just the database content.
  explicit DeterminismDriver(uint32_t Seed)
      : Engines{TestEngine(1, Seed & 1), TestEngine(2, Seed & 1),
                TestEngine(8, Seed & 1)},
        Rng(Seed) {}

  void run(unsigned Steps) {
    for (unsigned Step = 0; Step < Steps; ++Step) {
      switch (pick(10)) {
      case 0:
      case 1:
      case 2:
        addEdge();
        break;
      case 3:
      case 4:
        addTerm();
        break;
      case 5:
        addUnion();
        break;
      case 6:
      case 7:
        runRules();
        break;
      case 8:
        pushOrPop();
        break;
      case 9:
        runRules();
        break;
      }
    }
    runRules();
    compareExtraction();
  }

private:
  TestEngine Engines[3];
  std::mt19937 Rng;

  uint64_t pick(uint64_t Bound) {
    return std::uniform_int_distribution<uint64_t>(0, Bound - 1)(Rng);
  }

  void all(const std::string &Program) {
    for (TestEngine &E : Engines)
      ASSERT_TRUE(E.F.execute(Program)) << E.F.error() << " in " << Program;
  }

  void addEdge() {
    std::string I = std::to_string(pick(12)), J = std::to_string(pick(12));
    all("(edge " + I + " " + J + ")");
  }

  void addTerm() {
    std::string I = std::to_string(pick(8)), J = std::to_string(pick(8));
    all("(Join (Leaf " + I + ") (Leaf " + J + "))");
  }

  void addUnion() {
    std::string I = std::to_string(pick(8)), J = std::to_string(pick(8));
    all("(union (Leaf " + I + ") (Leaf " + J + "))");
  }

  void runRules() {
    all("(run " + std::to_string(1 + pick(3)) + ")");
    compareDatabases();
  }

  void pushOrPop() {
    bool Pop = Engines[0].Depth > 0 && pick(2) == 0;
    if (Pop) {
      all("(pop)");
      for (TestEngine &E : Engines)
        --E.Depth;
      compareDatabases();
    } else if (Engines[0].Depth < 3) {
      all("(push)");
      for (TestEngine &E : Engines)
        ++E.Depth;
    }
  }

  void compareDatabases() {
    for (int E = 1; E < 3; ++E)
      expectSameEngineState(Engines[0].F, Engines[E].F);
  }

  void compareExtraction() {
    // The seed terms predate every push, so they are present in any
    // context; the extracted representatives must agree exactly.
    for (const char *Term :
         {"(Leaf 100)", "(Join (Leaf 100) (Leaf 101))",
          "(Join (Join (Leaf 102) (Leaf 103)) (Leaf 104))"}) {
      for (TestEngine &E : Engines)
        E.F.clearOutputs();
      all(std::string("(extract ") + Term + ")");
      ASSERT_EQ(Engines[0].F.outputs().size(), 1u);
      for (int E = 1; E < 3; ++E)
        ASSERT_EQ(Engines[0].F.outputs(), Engines[E].F.outputs())
            << "extraction diverged for " << Term;
    }
  }
};

TEST(PhaseDeterminismTest, DifferentialRandomSequences) {
  for (uint32_t Seed : {3u, 17u, 99u, 512u, 2026u}) {
    DeterminismDriver Driver(Seed);
    Driver.run(120);
    if (::testing::Test::HasFatalFailure())
      FAIL() << "diverged at seed " << Seed;
  }
}

TEST(PhaseDeterminismTest, BackoffBansMatchSerial) {
  // The explosive product rule over-matches immediately; the ban decision
  // (collected total > threshold) must agree across thread counts even
  // though parallel collection aborts cooperatively.
  const char *Program = R"(
    (relation item (i64))
    (relation pair (i64 i64))
    (rule ((item x) (item y)) ((pair x y)))
  )";
  Frontend Serial, Wide;
  ASSERT_TRUE(Serial.execute(Program)) << Serial.error();
  ASSERT_TRUE(Wide.execute(Program)) << Wide.error();
  Wide.engine().setThreads(8);
  for (Frontend *F : {&Serial, &Wide}) {
    F->runOptions().UseBackoff = true;
    F->runOptions().BackoffMatchLimit = 100;
    std::string Facts;
    for (int I = 0; I < 40; ++I) // 1600 pairs > limit: banned
      Facts += "(item " + std::to_string(I) + ")\n";
    ASSERT_TRUE(F->execute(Facts + "(run 20)")) << F->error();
  }
  EXPECT_EQ(Serial.graph().liveContentHash(), Wide.graph().liveContentHash());
  EXPECT_EQ(Serial.lastRun().totalMatches(), Wide.lastRun().totalMatches());
}

//===----------------------------------------------------------------------===
// Schedules and lattices across thread counts
//===----------------------------------------------------------------------===

/// The shipped Herbie setup for one suite benchmark: the sound program,
/// the root term, and exact interval seeds for its inputs.
std::string herbieSetup(const herbie::Benchmark &Bench) {
  herbie::ExprPtr Root = herbie::parseFPExpr(Bench.Expr);
  EXPECT_TRUE(Root) << Bench.Name;
  if (!Root)
    return "";
  std::string Text = herbie::herbieProgramText(/*Sound=*/true) +
                     "\n(define root " + herbie::toEgglogTerm(*Root) + ")\n";
  auto Bound = [](double D) {
    Rational R = Rational::fromDouble(D);
    return "(rational-big \"" + R.numerator().toString() + "\" \"" +
           R.denominator().toString() + "\")";
  };
  for (const herbie::VarRange &Range : Bench.Ranges) {
    Text += "(set (lo (MVar \"" + Range.Name + "\")) " + Bound(Range.Lo) +
            ")\n";
    Text += "(set (hi (MVar \"" + Range.Name + "\")) " + Bound(Range.Hi) +
            ")\n";
  }
  return Text;
}

TEST(PhaseDeterminismTest, HerbiePhasedScheduleAcrossThreads) {
  // The shipped two-ruleset Herbie schedule under BackOff: the interval
  // analyses are lattice (:merge) functions whose Rational-interning
  // queries take the serial prelude, and (saturate analysis) interleaves
  // with one-iteration rewrite leaves. Eight phases are enough for the
  // rewrites to over-match and be banned on every benchmark.
  for (const char *Name : {"cbrt-add-one", "sum-cancel", "recip-diff"}) {
    const herbie::Benchmark *Bench = nullptr;
    for (const herbie::Benchmark &B : herbie::herbieSuite())
      if (B.Name == Name)
        Bench = &B;
    ASSERT_TRUE(Bench) << Name;
    std::string Setup = herbieSetup(*Bench);
    Frontend F[2];
    for (int E = 0; E < 2; ++E) {
      F[E].engine().setThreads(E == 0 ? 1 : 4);
      F[E].runOptions().UseBackoff = true;
      F[E].runOptions().NodeLimit = 60000;
      ASSERT_TRUE(F[E].execute(Setup)) << Name << ": " << F[E].error();
      ASSERT_TRUE(F[E].execute(herbie::herbiePhasedSchedule(8)))
          << Name << ": " << F[E].error();
    }
    EXPECT_GT(F[0].lastRun().totalMatches(), 0u) << Name;
    expectSameEngineState(F[0], F[1]);
    if (::testing::Test::HasFatalFailure())
      FAIL() << "diverged on " << Name;
  }
}

TEST(PhaseDeterminismTest, BackoffScheduleAcrossThreads) {
  // Two rulesets under a tiny BackOff limit: (saturate closure) bans its
  // rules over and over, so the schedule fast-forwards the dead time
  // (fastForwardBans) between leaves, while the grow leaf stops on its
  // :until goal. dist is a min-lattice, so merges change outputs without
  // changing live counts.
  const char *Program = R"(
    (ruleset closure)
    (ruleset grow)
    (datatype E (Leaf i64) (Join E E))
    (relation edge (i64 i64))
    (function dist (i64 i64) i64 :merge (min old new))
    (rule ((edge x y)) ((set (dist x y) 1)) :ruleset closure)
    (rule ((= d (dist x y)) (edge y z)) ((set (dist x z) (+ d 1)))
          :ruleset closure)
    (rewrite (Join a b) (Join b a) :ruleset grow)
    (rewrite (Join (Join a b) c) (Join a (Join b c)) :ruleset grow)
    (rule ((= d (dist x y)) (> d 3)) ((Join (Leaf x) (Leaf d)))
          :ruleset grow)
    (Join (Join (Leaf 1) (Leaf 2)) (Join (Leaf 3) (Leaf 4)))
  )";
  std::string Edges;
  for (int I = 0; I < 10; ++I)
    Edges += "(edge " + std::to_string(I) + " " + std::to_string(I + 1) + ")";
  const char *Schedule = R"(
    (run-schedule
      (saturate closure)
      (repeat 6 (saturate closure)
                (run grow 1 :until ((= (Join (Leaf 0) (Leaf 9))
                                       (Join (Leaf 9) (Leaf 0)))))))
  )";
  Frontend F[2];
  for (int E = 0; E < 2; ++E) {
    F[E].engine().setThreads(E == 0 ? 1 : 4);
    F[E].runOptions().UseBackoff = true;
    F[E].runOptions().BackoffMatchLimit = 4;
    F[E].runOptions().BackoffBanLength = 3;
    ASSERT_TRUE(F[E].execute(Program)) << F[E].error();
    ASSERT_TRUE(F[E].execute(Edges + Schedule)) << F[E].error();
  }
  expectSameEngineState(F[0], F[1]);
  // A chord shortens distances (pure lattice merges), then the schedule
  // runs again from the rules' saved delta frontiers and bans.
  for (int E = 0; E < 2; ++E)
    ASSERT_TRUE(F[E].execute(std::string("(edge 0 8) (edge 8 2)") + Schedule))
        << F[E].error();
  expectSameEngineState(F[0], F[1]);
  EXPECT_TRUE(F[0].execute("(check (= (dist 0 10) 3))")) << F[0].error();
}

//===----------------------------------------------------------------------===
// Prepare/join contract
//===----------------------------------------------------------------------===

/// edge relation over i64 pairs plus the triangle query edge(x,y) ∧
/// edge(y,z) ∧ edge(z,x), small but join-heavy.
struct TriangleDb {
  EGraph G;
  FunctionId Edge = 0;
  Query Q;

  TriangleDb() {
    FunctionDecl Decl;
    Decl.Name = "edge";
    Decl.ArgSorts = {SortTable::I64Sort, SortTable::I64Sort};
    Decl.OutSort = SortTable::UnitSort;
    Edge = G.declareFunction(std::move(Decl));

    Q.NumVars = 3;
    Q.VarSorts = {SortTable::I64Sort, SortTable::I64Sort,
                  SortTable::I64Sort};
    auto Atom = [&](uint32_t A, uint32_t B) {
      QueryAtom Result;
      Result.Func = Edge;
      Result.Terms = {VarOrConst::makeVar(A), VarOrConst::makeVar(B),
                      VarOrConst::makeConst(G.mkUnit())};
      return Result;
    };
    Q.Atoms = {Atom(0, 1), Atom(1, 2), Atom(2, 0)};
  }

  void addEdges(unsigned Count, uint32_t Seed) {
    std::mt19937 Rng(Seed);
    std::uniform_int_distribution<int64_t> Node(0, 31);
    for (unsigned I = 0; I < Count; ++I) {
      Value Keys[2] = {G.mkI64(Node(Rng)), G.mkI64(Node(Rng))};
      G.setValue(Edge, Keys, G.mkUnit());
    }
  }
};

TEST(WarmUpContractTest, ReadOnlyExecutionAfterWarm) {
  TriangleDb Db;
  Db.addEdges(300, 5);

  // Reference matches through prepare+join in one call.
  QueryExecutor Reference(Db.G, Db.Q);
  std::vector<Value> Expected;
  size_t ExpectedCount = 0;
  Reference.executeCollect({}, 0, Expected, ExpectedCount);

  QueryExecutor Exec(Db.G, Db.Q);
  ASSERT_TRUE(Exec.prepare({}, 0));

  const Table &T = *Db.G.function(Db.Edge).Storage;
  uint64_t VersionBefore = T.version();
  IndexCache::Stats Before = T.indexes().stats();

  std::vector<Value> Got;
  size_t GotCount = 0;
  Exec.join(Got, GotCount);

  // Same matches in the same order...
  EXPECT_EQ(GotCount, ExpectedCount);
  EXPECT_EQ(Got, Expected);
  // ...with zero database-side work: no version bump and no index
  // builds/refreshes/derivations after prepare.
  EXPECT_EQ(T.version(), VersionBefore);
  IndexCache::Stats After = T.indexes().stats();
  EXPECT_EQ(After.Builds, Before.Builds);
  EXPECT_EQ(After.Refreshes, Before.Refreshes);
  EXPECT_EQ(After.Derivations, Before.Derivations);
}

TEST(WarmUpContractTest, ReadOnlyDeltaVariantsAfterWarm) {
  TriangleDb Db;
  Db.addEdges(150, 6);
  Db.G.bumpTimestamp();
  uint32_t Bound = Db.G.timestamp();
  Db.addEdges(80, 7); // the "new" partition

  // As in the engine: every variant is prepared on its own executor
  // before any of them joins, so a later prepare (deriving another
  // partition) must leave the earlier prepared state intact.
  size_t NumAtoms = Db.Q.Atoms.size();
  std::vector<std::vector<AtomFilter>> Filters(NumAtoms);
  std::vector<QueryExecutor> Execs;
  for (size_t Variant = 0; Variant < NumAtoms; ++Variant) {
    makeDeltaVariantFilters(Filters[Variant], Variant, NumAtoms);
    Execs.emplace_back(Db.G, Db.Q);
    ASSERT_TRUE(Execs[Variant].prepare(Filters[Variant], Bound))
        << "variant " << Variant;
  }

  const Table &T = *Db.G.function(Db.Edge).Storage;
  for (size_t Variant = 0; Variant < NumAtoms; ++Variant) {
    uint64_t VersionBefore = T.version();
    IndexCache::Stats Before = T.indexes().stats();

    std::vector<Value> Got;
    size_t GotCount = 0;
    Execs[Variant].join(Got, GotCount);

    EXPECT_EQ(T.version(), VersionBefore) << "variant " << Variant;
    IndexCache::Stats After = T.indexes().stats();
    EXPECT_EQ(After.Builds, Before.Builds) << "variant " << Variant;
    EXPECT_EQ(After.Refreshes, Before.Refreshes) << "variant " << Variant;
    EXPECT_EQ(After.Derivations, Before.Derivations) << "variant " << Variant;

    QueryExecutor Reference(Db.G, Db.Q);
    std::vector<Value> Expected;
    size_t ExpectedCount = 0;
    Reference.executeCollect(Filters[Variant], Bound, Expected,
                             ExpectedCount);
    EXPECT_EQ(GotCount, ExpectedCount) << "variant " << Variant;
    EXPECT_EQ(Got, Expected) << "variant " << Variant;
  }
}

TEST(WarmUpContractTest, PrepareRejectsEmptyDeltaVariant) {
  // Nothing is stamped at or after the bound, so the New atom of every
  // delta variant has no candidates: prepare() says so, and join() then
  // finds nothing without touching the database.
  TriangleDb Db;
  Db.addEdges(100, 8);
  Db.G.bumpTimestamp();
  uint32_t Bound = Db.G.timestamp();

  std::vector<AtomFilter> Filters;
  makeDeltaVariantFilters(Filters, 1, Db.Q.Atoms.size());
  QueryExecutor Exec(Db.G, Db.Q);
  EXPECT_FALSE(Exec.prepare(Filters, Bound));

  const Table &T = *Db.G.function(Db.Edge).Storage;
  uint64_t VersionBefore = T.version();
  IndexCache::Stats Before = T.indexes().stats();
  std::vector<Value> Got;
  size_t GotCount = 0;
  Exec.join(Got, GotCount);
  EXPECT_EQ(GotCount, 0u);
  EXPECT_TRUE(Got.empty());
  EXPECT_EQ(T.version(), VersionBefore);
  IndexCache::Stats After = T.indexes().stats();
  EXPECT_EQ(After.Builds, Before.Builds);
  EXPECT_EQ(After.Refreshes, Before.Refreshes);
  EXPECT_EQ(After.Derivations, Before.Derivations);
  EXPECT_EQ(After.Hits, Before.Hits);
}

TEST(WarmUpContractTest, EngineMatchPhaseKeepsVersionsStable) {
  // End to end: a run's match phases must not bump any table version
  // except through apply/rebuild, at one thread and fanned out. Saturate
  // first, then run once more — the extra iteration is pure matching (no
  // new tuples), so every version must stay put.
  for (unsigned Threads : {1u, 4u}) {
    Frontend F;
    ASSERT_TRUE(F.execute(R"(
      (relation edge (i64 i64))
      (relation path (i64 i64))
      (rule ((edge x y)) ((path x y)))
      (rule ((path x y) (edge y z)) ((path x z)))
      (edge 0 1) (edge 1 2) (edge 2 3) (edge 3 4)
    )")) << F.error();
    F.engine().setThreads(Threads);
    ASSERT_TRUE(F.execute("(run 100)")) << F.error();

    EGraph &G = F.graph();
    std::vector<uint64_t> Versions;
    for (size_t Fn = 0; Fn < G.numFunctions(); ++Fn)
      Versions.push_back(G.function(Fn).Storage->version());
    ASSERT_TRUE(F.execute("(run 1)")) << F.error();
    for (size_t Fn = 0; Fn < G.numFunctions(); ++Fn)
      EXPECT_EQ(G.function(Fn).Storage->version(), Versions[Fn])
          << "function " << Fn << " mutated during a no-op match phase at "
          << Threads << " threads";
  }
}

//===----------------------------------------------------------------------===
// Thread pool
//===----------------------------------------------------------------------===

TEST(ThreadPoolTest, CoversEveryIndexAcrossJobs) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.threads(), 4u);
  // Repeated jobs on one pool: every index executed exactly once, with
  // worker writes visible to the caller afterwards.
  for (unsigned Job = 0; Job < 50; ++Job) {
    size_t N = 1 + Job * 7 % 97;
    std::vector<std::atomic<unsigned>> Hits(N);
    Pool.parallelFor(N, [&](size_t I) {
      Hits[I].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t I = 0; I < N; ++I)
      ASSERT_EQ(Hits[I].load(), 1u) << "item " << I << " of job " << Job;
  }
}

TEST(ThreadPoolTest, ErrorRethrownAfterEveryItemRan) {
  ThreadPool Pool(4);
  constexpr size_t N = 64;
  std::vector<std::atomic<unsigned>> Hits(N);
  auto Job = [&](size_t I) {
    if (I == 3 || I == 40)
      throw std::runtime_error("item " + std::to_string(I));
    Hits[I].fetch_add(1, std::memory_order_relaxed);
  };
  bool Thrown = false;
  try {
    Pool.parallelFor(N, Job);
  } catch (const std::runtime_error &Error) {
    Thrown = true;
    std::string What = Error.what();
    EXPECT_TRUE(What == "item 3" || What == "item 40") << What;
    // By the time the error reaches the caller, every other item has run
    // exactly once.
    for (size_t I = 0; I < N; ++I)
      EXPECT_EQ(Hits[I].load(), I == 3 || I == 40 ? 0u : 1u) << "item " << I;
  }
  EXPECT_TRUE(Thrown);
}

TEST(ThreadPoolTest, CompletesJobAfterError) {
  ThreadPool Pool(4);
  EXPECT_THROW(Pool.parallelFor(16,
                                [](size_t I) {
                                  if (I == 0)
                                    throw std::runtime_error("first");
                                }),
               std::runtime_error);
  // The same pool, with the error consumed, runs the next job in full.
  std::vector<std::atomic<unsigned>> Hits(100);
  Pool.parallelFor(Hits.size(), [&](size_t I) {
    Hits[I].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t I = 0; I < Hits.size(); ++I)
    ASSERT_EQ(Hits[I].load(), 1u) << "item " << I;
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool Pool(1);
  std::vector<size_t> Order;
  Pool.parallelFor(8, [&](size_t I) { Order.push_back(I); });
  ASSERT_EQ(Order.size(), 8u);
  for (size_t I = 0; I < 8; ++I)
    EXPECT_EQ(Order[I], I); // inline mode preserves index order
}

#if EGGLOG_FAILPOINTS_ENABLED

TEST(PhaseDeterminismTest, InjectedFaultMidRunRollsBackAtFourThreads) {
  // A fault injected anywhere inside a 4-thread (run) — match steps,
  // apply, rebuild rows — rolls the database back to the pre-command
  // state, and the eventual clean run lands on the same content hash as
  // an engine that never faulted.
  struct Disarm {
    ~Disarm() { failpoints::disarm(); }
  } Guard;

  auto Setup = [](Frontend &F) {
    ASSERT_TRUE(F.execute(DeterminismProgram)) << F.error();
    ASSERT_TRUE(F.execute("(edge 0 1) (edge 1 2) (edge 2 3) (edge 3 0)"))
        << F.error();
    F.engine().setThreads(4);
    F.graph().governor().setCheckpointInterval(1);
  };

  Frontend Clean;
  Setup(Clean);
  ASSERT_TRUE(Clean.execute("(run 4)")) << Clean.error();

  Frontend F;
  Setup(F);
  uint64_t Before = F.graph().liveContentHash();
  size_t Faults = 0;
  for (uint64_t K = 1;; K = K < 8 ? K + 1 : K + (K >> 1)) {
    failpoints::arm(nullptr, K);
    bool Ok = F.execute("(run 4)");
    failpoints::disarm();
    if (Ok)
      break;
    ++Faults;
    ASSERT_NE(F.error().find("injected fault"), std::string::npos)
        << F.error();
    ASSERT_EQ(F.graph().liveContentHash(), Before) << "hit " << K;
  }
  EXPECT_GT(Faults, 0u);
  EXPECT_EQ(F.graph().liveContentHash(), Clean.graph().liveContentHash());
  EXPECT_EQ(F.graph().liveTupleCount(), Clean.graph().liveTupleCount());
}

#endif // EGGLOG_FAILPOINTS_ENABLED

} // namespace
