//===- tests/core/FaultInjectionTest.cpp - Rollback atomicity fuzzing ------===//
//
// Part of egglog-cpp. Deterministic fault injection: command scripts run
// with a fault armed at the k-th failpoint hit for a sweep of k, probing
// every class of intermediate state a command passes through. After each
// injected fault the database must equal its pre-command state exactly —
// content hash, counts, extraction results, and output lines — and
// re-running the command cleanly must land on the same final state as a
// run that never faulted. Exercised at 1 and 4 match threads.
//
//===----------------------------------------------------------------------===//

#include "core/Extract.h"
#include "core/Frontend.h"
#include "core/Index.h"
#include "support/FailPoints.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#if EGGLOG_FAILPOINTS_ENABLED

using namespace egglog;

namespace {

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

/// Leaves no armed failpoint behind, whatever path a test takes out.
struct DisarmGuard {
  DisarmGuard() { failpoints::disarm(); }
  ~DisarmGuard() { failpoints::disarm(); }
};

/// Extraction result for \p Expr (or a marker when absent) — run with
/// failpoints disarmed so the probe itself never faults. Forces a rebuild
/// and an index refresh, so call it before fingerprinting a baseline.
/// Extracts from a freshly invalidated index: among equal-cost terms the
/// winner depends on the index's maintenance history (incremental scans
/// relax rows in a different order than a from-scratch build), so only
/// from-scratch extractions are comparable across a rollback.
std::string probeExtract(Frontend &F, const std::string &Expr) {
  Value V;
  if (!F.evalGround(Expr, V))
    return "<absent>";
  F.graph().extractIndex().invalidate();
  std::optional<ExtractedTerm> Term = extractTerm(F.graph(), V);
  if (!Term)
    return "<no-term>";
  return Term->Text + " $" + std::to_string(Term->Cost);
}

/// A script whose commands all succeed on a clean run, covering run,
/// union, push/pop, check, and extract.
std::vector<std::string> mathScript() {
  return {
      "(datatype Math (Num i64) (Add Math Math) (Mul Math Math))",
      "(rewrite (Add a b) (Add b a))",
      "(rewrite (Add (Add a b) c) (Add a (Add b c)))",
      "(rewrite (Add (Num x) (Num y)) (Num (+ x y)))",
      "(define e (Add (Num 1) (Add (Num 2) (Add (Num 3) (Num 4)))))",
      "(push)",
      "(run 3)",
      "(check (= e (Num 10)))",
      "(extract e)",
      "(pop)",
      "(define f (Mul e (Num 2)))",
      "(union f (Num 20))",
      "(run 2)",
      "(extract f)",
  };
}

/// Executes \p Commands with a fault swept across every failpoint hit of
/// every command (dense for the first hits, then geometrically spaced).
/// After each injected fault the state must equal the pre-command
/// baseline; the surviving clean executions must land on the same final
/// state as \p a reference run that never faulted.
void sweepScript(const std::vector<std::string> &Commands,
                 const std::string &ProbeExpr, unsigned Threads) {
  DisarmGuard Guard;

  auto Configure = [&](Frontend &F) {
    F.engine().setThreads(Threads);
    // Checkpoint every row so the row-granular failpoints
    // (rebuild/apply/extract) are reachable at every hit index.
    F.graph().governor().setCheckpointInterval(1);
  };

  // Reference run, probed at the same points as the sweep run so both
  // trigger rebuilds/refreshes identically.
  Frontend Clean;
  Configure(Clean);
  for (const std::string &C : Commands) {
    probeExtract(Clean, ProbeExpr);
    ASSERT_TRUE(Clean.execute(C)) << C << ": " << Clean.error();
  }
  std::string FinalExtract = probeExtract(Clean, ProbeExpr);
  StateFingerprint FinalFP = fingerprint(Clean);

  Frontend F;
  Configure(F);
  size_t FaultsInjected = 0;
  for (const std::string &C : Commands) {
    std::string BeforeExtract = probeExtract(F, ProbeExpr);
    StateFingerprint Before = fingerprint(F);
    size_t OutputsBefore = F.outputs().size();
    uint64_t K = 1;
    for (unsigned Attempt = 1;; ++Attempt) {
      // After enough attempts, run clean (FireAtHit = 0 only counts) so a
      // hit-heavy command like (run 3) cannot stall the sweep.
      failpoints::arm(nullptr, Attempt > 48 ? 0 : K);
      bool Ok = F.execute(C);
      failpoints::disarm();
      if (Ok)
        break;
      ASSERT_NE(F.error().find("injected fault"), std::string::npos)
          << C << " failed for another reason: " << F.error();
      ++FaultsInjected;
      EXPECT_EQ(fingerprint(F), Before) << C << " rolled back at hit " << K;
      EXPECT_EQ(probeExtract(F, ProbeExpr), BeforeExtract)
          << C << " at hit " << K;
      EXPECT_EQ(F.outputs().size(), OutputsBefore) << C << " at hit " << K;
      if (::testing::Test::HasFailure())
        return;
      K = K < 8 ? K + 1 : K + (K >> 1);
    }
  }
  // The sweep's surviving executions equal a never-faulted run.
  EXPECT_EQ(probeExtract(F, ProbeExpr), FinalExtract);
  EXPECT_EQ(fingerprint(F), FinalFP);
  EXPECT_EQ(F.outputs(), Clean.outputs());
  // The sweep exercised real intermediate states.
  EXPECT_GT(FaultsInjected, 10u);
}

} // namespace

TEST(FaultInjectionTest, MathScriptSweepSerial) {
  sweepScript(mathScript(), "e", /*Threads=*/1);
}

TEST(FaultInjectionTest, MathScriptSweepFourThreads) {
  sweepScript(mathScript(), "e", /*Threads=*/4);
}

TEST(FaultInjectionTest, FirstHitIsTheCommandEntry) {
  // Hit 1 of any command is the "frontend.command" site: the fault fires
  // before dispatch, so the rollback exercises the cheap no-op path.
  DisarmGuard Guard;
  Frontend F;
  ASSERT_TRUE(F.execute("(sort S)")) << F.error();
  StateFingerprint Before = fingerprint(F);
  failpoints::arm("frontend.command", 1);
  EXPECT_FALSE(F.execute("(relation r (S))"));
  failpoints::disarm();
  EXPECT_NE(F.error().find("injected fault at 'frontend.command'"),
            std::string::npos)
      << F.error();
  EXPECT_EQ(fingerprint(F), Before);
  EXPECT_TRUE(F.execute("(relation r (S))")) << F.error();
}

TEST(FaultInjectionTest, SiteFilterOnlyFiresAtThatSite) {
  DisarmGuard Guard;
  Frontend F;
  failpoints::arm("egraph.declare", 2);
  // Declaration 1 (the sort command has no declare hits), then the first
  // constructor is hit 1 and the second is hit 2 — the fault fires there.
  ASSERT_TRUE(F.execute("(sort S)")) << F.error();
  EXPECT_FALSE(F.execute("(datatype T (A) (B))"));
  failpoints::disarm();
  EXPECT_NE(F.error().find("injected fault at 'egraph.declare'"),
            std::string::npos)
      << F.error();
  SortId Sort;
  EXPECT_FALSE(F.graph().sorts().lookup("T", Sort));
  EXPECT_TRUE(F.execute("(datatype T (A) (B))")) << F.error();
}

TEST(FaultInjectionTest, VariantScanReachesAGovernorCheckpoint) {
  // With the index warm, (extract e n) does no refresh work; its only
  // checkpoint is the walk over the class's occurrence lists, so a fault
  // armed there proves a timeout or cancel can stop that walk.
  DisarmGuard Guard;
  Frontend F;
  ASSERT_TRUE(F.execute("(datatype M (Num i64) (Add M M))"
                        "(define e (Add (Num 1) (Num 2)))"
                        "(union e (Add (Num 2) (Num 1)))"
                        "(extract e)"))
      << F.error();
  StateFingerprint Before = fingerprint(F);
  F.graph().governor().setCheckpointInterval(1);
  failpoints::arm("extract.variants", 1);
  EXPECT_FALSE(F.execute("(extract e 3)"));
  failpoints::disarm();
  EXPECT_NE(F.error().find("injected fault at 'extract.variants'"),
            std::string::npos)
      << F.error();
  EXPECT_EQ(fingerprint(F), Before);
  EXPECT_TRUE(F.execute("(extract e 3)")) << F.error();
}

TEST(FaultInjectionTest, TornIndexRefreshIsRebuiltNotReused) {
  // A fault between a refresh's append and its merge leaves the entry's
  // ids torn. The failed command appended nothing to `edge`, so its
  // rollback takes the cheap path and keeps the cache; the entry must then
  // read as unbuilt, so the rerun rebuilds it instead of appending the
  // same rows a second time.
  DisarmGuard Guard;
  Frontend F;
  ASSERT_TRUE(F.execute("(relation edge (i64 i64))"
                        "(relation path (i64 i64))"
                        "(rule ((edge x y)) ((path x y)))"
                        "(edge 3 1) (edge 1 2) (run 1)"
                        "(edge 2 0) (edge 0 4)"))
      << F.error();
  StateFingerprint Before = fingerprint(F);
  failpoints::arm("index.refresh", 1);
  EXPECT_FALSE(F.execute("(run 1)"));
  failpoints::disarm();
  EXPECT_NE(F.error().find("injected fault at 'index.refresh'"),
            std::string::npos)
      << F.error();
  EXPECT_EQ(fingerprint(F), Before);
  ASSERT_TRUE(F.execute("(run 1)")) << F.error();

  FunctionId Edge = 0;
  ASSERT_TRUE(F.graph().lookupFunctionName("edge", Edge));
  const Table &T = *F.graph().function(Edge).Storage;
  std::vector<std::vector<unsigned>> Perms = T.indexes().allPermutations();
  ASSERT_FALSE(Perms.empty());
  for (const std::vector<unsigned> &Perm : Perms) {
    IndexCache Fresh(T);
    EXPECT_EQ(T.indexes().get(Perm, AtomFilter::All, 0).ids(),
              Fresh.get(Perm, AtomFilter::All, 0).ids());
  }
}

TEST(FaultInjectionTest, HitCountingWithoutFiring) {
  DisarmGuard Guard;
  Frontend F;
  failpoints::arm(nullptr, 0);
  ASSERT_TRUE(F.execute("(sort S) (relation r (S))")) << F.error();
  EXPECT_GT(failpoints::hits(), 0u);
  failpoints::disarm();
}

#endif // EGGLOG_FAILPOINTS_ENABLED
