//===- tests/core/GovernorTest.cpp - Resource governance tests -------------===//
//
// Part of egglog-cpp. The ResourceGovernor turns timeouts, node ceilings,
// memory ceilings, and cooperative cancellation into bounded-latency hard
// stops: the tripped command fails with a limit/cancelled error and rolls
// back exactly, and the database keeps working afterwards.
//
//===----------------------------------------------------------------------===//

#include "core/Extract.h"
#include "core/Frontend.h"
#include "support/Governor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <thread>

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

/// An explosive workload: associativity + commutativity over a long Add
/// chain saturates far beyond any limit a test would wait for.
void setupExplosive(Frontend &F, int ChainLength = 14) {
  std::string Seed = "(Num 0)";
  for (int I = 1; I <= ChainLength; ++I)
    Seed = "(Add (Num " + std::to_string(I) + ") " + Seed + ")";
  ASSERT_TRUE(F.execute(R"(
    (datatype Math (Num i64) (Add Math Math) (Mul Math Math))
    (rewrite (Add a b) (Add b a))
    (rewrite (Add (Add a b) c) (Add a (Add b c)))
  )")) << F.error();
  ASSERT_TRUE(F.execute("(define e " + Seed + ")")) << F.error();
}

} // namespace

TEST(GovernorTest, VerdictsAndCheckpointInterval) {
  ResourceGovernor Gov;
  EXPECT_FALSE(Gov.anyLimitSet());
  EXPECT_EQ(Gov.poll(1u << 30, 1u << 30), GovernorVerdict::Ok);

  Gov.setMaxLive(10);
  EXPECT_TRUE(Gov.anyLimitSet());
  EXPECT_EQ(Gov.poll(10, 0), GovernorVerdict::Ok);
  EXPECT_EQ(Gov.poll(11, 0), GovernorVerdict::NodeLimit);

  Gov.setMaxBytes(1000);
  EXPECT_EQ(Gov.poll(0, 1001), GovernorVerdict::MemoryLimit);

  // Cancellation is sticky until the next arm().
  Gov.requestCancel();
  EXPECT_EQ(Gov.pollQuick(), GovernorVerdict::Cancelled);
  EXPECT_EQ(Gov.pollQuick(), GovernorVerdict::Cancelled);
  Gov.arm();
  EXPECT_EQ(Gov.pollQuick(), GovernorVerdict::Ok);

  // An already-expired deadline trips immediately after arm().
  Gov.setTimeout(1e-9);
  Gov.arm();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(Gov.pollQuick(), GovernorVerdict::Timeout);

  Gov.setCheckpointInterval(0);
  EXPECT_EQ(Gov.checkpointInterval(), 1u);
  Gov.setCheckpointInterval(64);
  EXPECT_EQ(Gov.checkpointInterval(), 64u);
}

TEST(GovernorTest, BudgetBeyondTheClockRangeIsNoDeadline) {
  // steady_clock counts int64 nanoseconds (~292 years): these budgets
  // cannot be represented, and must not turn into a deadline in the past.
  ResourceGovernor Gov;
  for (double Seconds :
       {1e10, 1e300, std::numeric_limits<double>::infinity()}) {
    Gov.setTimeout(Seconds);
    Gov.arm();
    EXPECT_EQ(Gov.pollQuick(), GovernorVerdict::Ok) << Seconds;
  }
  // A long budget the clock can represent is still a (distant) deadline.
  Gov.setTimeout(1e9);
  Gov.arm();
  EXPECT_EQ(Gov.pollQuick(), GovernorVerdict::Ok);

  Frontend F;
  ASSERT_TRUE(F.execute("(set-option :timeout 10000000000)")) << F.error();
  EXPECT_TRUE(F.execute("(relation r (i64)) (r 1) (run 1)")) << F.error();
}

TEST(GovernorTest, TimeoutIsAHardBoundedStopThatRollsBack) {
  Frontend F;
  setupExplosive(F);
  StateFingerprint Before = fingerprint(F);

  ASSERT_TRUE(F.execute("(set-option :timeout 0.05)")) << F.error();
  auto Start = std::chrono::steady_clock::now();
  EXPECT_FALSE(F.execute("(run 100)"));
  double Elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  EXPECT_EQ(F.lastError().Kind, ErrKind::Limit);
  EXPECT_NE(F.error().find("timeout"), std::string::npos) << F.error();
  // Checkpoints bound the stop latency far below a full saturation run
  // (which would take minutes); 1s leaves slack for slow CI machines.
  EXPECT_LT(Elapsed, 1.0);
  EXPECT_EQ(fingerprint(F), Before);

  // Disabling the budget lets work proceed again.
  ASSERT_TRUE(F.execute("(set-option :timeout 0)")) << F.error();
  EXPECT_TRUE(F.execute("(run 1)")) << F.error();
}

TEST(GovernorTest, NodeCeilingTripsAndRollsBack) {
  Frontend F;
  F.graph().governor().setCheckpointInterval(16);
  setupExplosive(F);
  StateFingerprint Before = fingerprint(F);

  ASSERT_TRUE(F.execute("(set-option :max-nodes 200)")) << F.error();
  EXPECT_FALSE(F.execute("(run 100)"));
  EXPECT_EQ(F.lastError().Kind, ErrKind::Limit);
  EXPECT_NE(F.error().find("live tuple ceiling"), std::string::npos)
      << F.error();
  EXPECT_EQ(fingerprint(F), Before);

  ASSERT_TRUE(F.execute("(set-option :max-nodes 0)")) << F.error();
  EXPECT_TRUE(F.execute("(run 1)")) << F.error();
}

TEST(GovernorTest, MemoryCeilingTripsAndRollsBack) {
  Frontend F;
  F.graph().governor().setCheckpointInterval(16);
  setupExplosive(F, /*ChainLength=*/16);
  StateFingerprint Before = fingerprint(F);

  ASSERT_TRUE(F.execute("(set-option :max-memory-mb 1)")) << F.error();
  EXPECT_FALSE(F.execute("(run 100)"));
  EXPECT_EQ(F.lastError().Kind, ErrKind::Limit);
  EXPECT_NE(F.error().find("memory ceiling of 1 MB exceeded"),
            std::string::npos)
      << F.error();
  EXPECT_EQ(fingerprint(F), Before);
}

TEST(GovernorTest, MemoryCeilingCountsTheExtractionIndex) {
  // The extraction index holds per-id arrays and use chains; the memory
  // ceiling counts them, so a ceiling between the graph's bytes without
  // the index and with it stops the extract that would build it.
  auto Setup = [](Frontend &F) {
    setupExplosive(F, /*ChainLength=*/8);
    ASSERT_TRUE(F.execute("(run 3)")) << F.error();
  };
  Frontend Reference;
  Setup(Reference);
  ASSERT_TRUE(Reference.execute("(extract e)")) << Reference.error();
  size_t WithIndex = Reference.graph().approxBytes();

  Frontend F;
  Setup(F);
  size_t WithoutIndex = F.graph().approxBytes();
  // Below the Best array alone (one entry per union-find id), which the
  // index allocates before its first checkpoint.
  size_t Ceiling = WithoutIndex + F.graph().unionFind().size() *
                                      sizeof(ExtractIndex::Entry) / 2;
  ASSERT_LT(Ceiling, WithIndex);
  StateFingerprint Before = fingerprint(F);
  F.graph().governor().setCheckpointInterval(1);
  F.graph().governor().setMaxBytes(Ceiling);
  EXPECT_FALSE(F.execute("(extract e)"));
  EXPECT_EQ(F.lastError().Kind, ErrKind::Limit);
  // A ceiling that is not whole MiB is named in bytes, not rounded to MB.
  ASSERT_NE(Ceiling % (size_t(1) << 20), 0u);
  EXPECT_NE(F.error().find("memory ceiling of " + std::to_string(Ceiling) +
                           " bytes exceeded"),
            std::string::npos)
      << F.error();
  EXPECT_EQ(fingerprint(F), Before);
  // The rollback released the invalidated index, so the ceiling is clear
  // again for commands that do not build it.
  EXPECT_EQ(F.graph().approxBytes(), WithoutIndex);

  F.graph().governor().setMaxBytes(0);
  EXPECT_TRUE(F.execute("(extract e)")) << F.error();
}

TEST(GovernorTest, MemoryCeilingCountsMatchArenas) {
  // Each rule's match arena dwarfs the graph: the cross product of a
  // 300-row relation is 90,000 matches of two variables, 1.4 MB of
  // payloads, against a graph of tens of KB. A ceiling between the two
  // stops the join. The checkpoint interval outlasts the run, so apply and
  // rebuild poll once, before the graph grows: only the match phase's own
  // check, which adds the arenas to the graph's bytes, can trip. At 4
  // threads the two rules join concurrently into the shared counter.
  constexpr size_t Rows = 300;
  std::string Facts;
  for (size_t I = 0; I < Rows; ++I)
    Facts += "(R " + std::to_string(I) + ")\n";
  for (unsigned Threads : {1u, 4u}) {
    Frontend F;
    F.engine().setThreads(Threads);
    ASSERT_TRUE(F.execute(R"(
      (relation R (i64))
      (relation P (i64 i64))
      (relation Q (i64 i64))
      (rule ((R a) (R b)) ((P a b)))
      (rule ((R a) (R b)) ((Q b a)))
    )")) << F.error();
    ASSERT_TRUE(F.execute(Facts)) << F.error();
    StateFingerprint Before = fingerprint(F);
    size_t Arena = Rows * Rows * 2 * sizeof(uint64_t);
    size_t Ceiling = F.graph().approxBytes() + Arena / 4;
    F.graph().governor().setCheckpointInterval(1u << 30);
    F.graph().governor().setMaxBytes(Ceiling);
    EXPECT_FALSE(F.execute("(run 1)")) << Threads << " threads";
    EXPECT_EQ(F.lastError().Kind, ErrKind::Limit);
    EXPECT_NE(F.error().find("memory ceiling of " + std::to_string(Ceiling) +
                             " bytes exceeded"),
              std::string::npos)
        << F.error();
    EXPECT_EQ(fingerprint(F), Before) << Threads << " threads";

    // The ceiling was the only obstacle.
    F.graph().governor().setMaxBytes(0);
    ASSERT_TRUE(F.execute("(run 1)")) << F.error();
    FunctionId P;
    ASSERT_TRUE(F.graph().lookupFunctionName("P", P));
    EXPECT_EQ(F.graph().function(P).Storage->liveCount(), Rows * Rows);
  }
}

TEST(GovernorTest, CancelFromAnotherThreadRollsBack) {
  Frontend F;
  setupExplosive(F);
  StateFingerprint Before = fingerprint(F);

  std::thread Canceller([&F] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    F.graph().governor().requestCancel();
  });
  EXPECT_FALSE(F.execute("(run 1000)"));
  Canceller.join();
  EXPECT_EQ(F.lastError().Kind, ErrKind::Cancelled);
  EXPECT_EQ(fingerprint(F), Before);

  // arm() at the next command clears the stale cancel request.
  EXPECT_TRUE(F.execute("(run 1)")) << F.error();
}

TEST(GovernorTest, LimitsApplyToExtraction) {
  // The extract scan honours checkpoints too: a cancel requested before
  // the index is (re)built stops the scan and fails the command cleanly.
  Frontend F;
  setupExplosive(F, /*ChainLength=*/10);
  ASSERT_TRUE(F.execute("(run 2)")) << F.error();
  StateFingerprint Before = fingerprint(F);

  F.graph().governor().setCheckpointInterval(1);
  std::thread Canceller([&F] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    F.graph().governor().requestCancel();
  });
  // A long saturation run whose trailing extract would need the index; the
  // cancel lands either during the run or during extraction — both must
  // roll back to the same fingerprint.
  bool Ok = F.execute("(run 50) (extract e)");
  Canceller.join();
  if (!Ok) {
    EXPECT_EQ(F.lastError().Kind, ErrKind::Cancelled);
    EXPECT_EQ(fingerprint(F), Before);
  }
  EXPECT_TRUE(F.execute("(extract e)")) << F.error();
}
