//===- tests/core/SoakTest.cpp - Randomized parallel soak ----------------===//
//
// Part of egglog-cpp. A time-bounded randomized soak of the parallel match
// phase: one frontend executes a random mix of inserts, unions, runs,
// push/pop, and extractions while its thread count is re-set between
// commands ((set-option :threads N) cycling 1/2/4/8), so iterations that
// fan matching out at different widths interleave with context switches. At
// every push/pop boundary the entire command log is replayed into a fresh
// single-threaded frontend and the live content hashes must agree — the
// strongest cross-thread check we have, applied at the points where
// engine snapshots and database rollbacks interact.
//
// Runs under a wall-clock budget (the loop stops after ~8 seconds, and a
// ResourceGovernor per-command timeout backstops any single runaway
// command), and carries the ctest label "soak": the scheduled CI lane
// runs it, the per-push tier-1 lane excludes it.
//
//===----------------------------------------------------------------------===//

#include "core/Frontend.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>
#include <vector>

using namespace egglog;

namespace {

const char *SoakProgram = R"(
  (datatype E (Leaf i64) (Join E E))
  (relation edge (i64 i64))
  (relation path (i64 i64))
  (relation weight (i64 i64))
  (rule ((edge x y)) ((path x y)))
  (rule ((path x y) (edge y z)) ((path x z)))
  (rule ((path x y) (path y z) (< x z)) ((weight x z)))
  (rewrite (Join a b) (Join b a))
  (rewrite (Join (Join a b) c) (Join a (Join b c)))
  (Join (Leaf 100) (Leaf 101))
)";

class SoakDriver {
public:
  explicit SoakDriver(uint32_t Seed) : Rng(Seed) {
    EXPECT_TRUE(Subject.execute(SoakProgram)) << Subject.error();
    // Governor backstop: no single command may exceed 2 seconds even if
    // a random script stumbles into an explosive run.
    EXPECT_TRUE(Subject.execute("(set-option :timeout 2)"))
        << Subject.error();
  }

  void run(double BudgetSeconds) {
    Timer Clock;
    unsigned Step = 0;
    while (Clock.seconds() < BudgetSeconds && Step < 2000) {
      ++Step;
      setThreads();
      switch (pick(12)) {
      case 0:
      case 1:
      case 2:
        exec("(edge " + num(14) + " " + num(14) + ")");
        break;
      case 3:
      case 4:
        exec("(Join (Leaf " + num(8) + ") (Leaf " + num(8) + "))");
        break;
      case 5:
        exec("(union (Leaf " + num(8) + ") (Leaf " + num(8) + "))");
        break;
      case 6:
      case 7:
      case 8:
        exec("(run " + std::to_string(1 + pick(3)) + ")");
        break;
      case 9:
        extract();
        break;
      case 10:
      case 11:
        pushOrPop();
        break;
      }
      if (::testing::Test::HasFatalFailure())
        return;
    }
    compareWithSerialReplay();
  }

private:
  Frontend Subject;
  std::vector<std::string> Log;
  size_t Depth = 0;
  std::mt19937 Rng;

  uint64_t pick(uint64_t Bound) {
    return std::uniform_int_distribution<uint64_t>(0, Bound - 1)(Rng);
  }
  std::string num(uint64_t Bound) { return std::to_string(pick(Bound)); }

  /// Cycle the subject's width between commands. Not logged: the serial
  /// replay is the point of comparison, and by the determinism invariant
  /// the thread count must not be observable in the database.
  void setThreads() {
    static const unsigned Widths[] = {1, 2, 4, 8};
    std::string C = "(set-option :threads " +
                    std::to_string(Widths[pick(4)]) + ")";
    ASSERT_TRUE(Subject.execute(C)) << Subject.error();
  }

  void exec(const std::string &Command) {
    if (Subject.execute(Command)) {
      Log.push_back(Command);
      return;
    }
    // A governor trip (the 2s per-command backstop) rolls the command
    // back exactly, so the script just skips it; anything else is a bug.
    ASSERT_EQ(Subject.lastError().Kind, ErrKind::Limit)
        << Command << ": " << Subject.error();
  }

  void extract() {
    // The seed term predates every push, so it extracts in any context.
    exec("(extract (Join (Leaf 100) (Leaf 101)))");
  }

  void pushOrPop() {
    if (Depth > 0 && pick(2) == 0) {
      exec("(pop)");
      --Depth;
    } else if (Depth < 3) {
      exec("(push)");
      ++Depth;
    } else {
      return;
    }
    compareWithSerialReplay();
  }

  /// Replays the whole command log into a fresh frontend pinned at one
  /// thread and compares the live databases bit-for-bit. The replay also
  /// snapshot round-trips itself ((save) then (load)) at a random
  /// depth-0 boundary and continues from the loaded copy: persistence
  /// must be invisible to everything the comparison can see.
  void compareWithSerialReplay() {
    // No governor timeout on the replay: every logged command already
    // succeeded once, and a tighter machine-dependent bound here would
    // only turn a slow serial replay into a flake.
    Frontend Replay;
    ASSERT_TRUE(Replay.execute(SoakProgram)) << Replay.error();
    const std::string SnapPath = ::testing::TempDir() + "soak_replay.snap";
    const size_t SnapAt = pick(Log.size() + 1);
    bool Snapshotted = false;
    size_t ReplayDepth = 0;
    // Round-trips at the first log index >= SnapAt where no context is
    // open ((load) inside a (push) context is rejected by design).
    auto MaybeRoundTrip = [&](size_t Index) {
      if (Snapshotted || Index < SnapAt || ReplayDepth != 0)
        return;
      ASSERT_TRUE(Replay.execute("(save \"" + SnapPath + "\")"))
          << Replay.error();
      ASSERT_TRUE(Replay.execute("(load \"" + SnapPath + "\")"))
          << Replay.error();
      Snapshotted = true;
    };
    for (size_t I = 0; I < Log.size(); ++I) {
      MaybeRoundTrip(I);
      if (::testing::Test::HasFatalFailure())
        return;
      ASSERT_TRUE(Replay.execute(Log[I])) << Log[I] << ": "
                                          << Replay.error();
      if (Log[I] == "(push)")
        ++ReplayDepth;
      else if (Log[I] == "(pop)")
        --ReplayDepth;
    }
    MaybeRoundTrip(Log.size());
    std::remove(SnapPath.c_str());
    EGraph &S = Subject.graph(), &R = Replay.graph();
    ASSERT_EQ(S.liveTupleCount(), R.liveTupleCount())
        << "tuple count diverged after " << Log.size() << " commands";
    ASSERT_EQ(S.unionFind().unionCount(), R.unionFind().unionCount())
        << "union count diverged after " << Log.size() << " commands";
    ASSERT_EQ(S.unionFind().size(), R.unionFind().size())
        << "fresh-id numbering diverged after " << Log.size() << " commands";
    ASSERT_EQ(S.liveContentHash(), R.liveContentHash())
        << "content diverged after " << Log.size() << " commands";
    ASSERT_EQ(Subject.outputs(), Replay.outputs())
        << "extraction outputs diverged after " << Log.size() << " commands";
  }
};

TEST(SoakTest, RandomizedParallelSoak) {
  // One long script per run, freshly seeded from the clock would break
  // reproducibility — instead split the budget over fixed seeds so a
  // failure names the script that produced it.
  const uint32_t Seeds[] = {11u, 47u, 1009u};
  for (uint32_t Seed : Seeds) {
    SoakDriver Driver(Seed);
    Driver.run(/*BudgetSeconds=*/8.0 / std::size(Seeds));
    if (::testing::Test::HasFatalFailure())
      FAIL() << "diverged at seed " << Seed;
  }
}

} // namespace
