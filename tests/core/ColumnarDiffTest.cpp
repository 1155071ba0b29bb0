//===- tests/core/ColumnarDiffTest.cpp - Columnar storage differential -----===//
//
// Part of egglog-cpp. The columnar Table refactor must be observationally
// invisible: a randomized differential driver runs identical
// insert/union/run/extract/push/pop scripts against engines at 1 and 4
// match threads and asserts liveContentHash parity after every run. The
// program leans on wide tables (a ternary relation and three-atom joins)
// so the column scans, the join's one group loop (batched sweep probes at
// multi-participant levels) and its last-level tail scan all sit on the
// hot path; any divergence between the columnar layout and the engine's
// append/kill/rollback contract shows up as a content-hash split between
// the two thread counts.
//
//===----------------------------------------------------------------------===//

#include "core/Frontend.h"

#include <gtest/gtest.h>

#include <random>
#include <string>

using namespace egglog;

namespace {

/// Joins with one, two, and three atoms over binary and ternary
/// relations: every level runs the join's group loop (with batched sweep
/// probes where several atoms take part), a lone last-level atom takes
/// the tail scan, and the term rewrite keeps rebuild (kill + re-append on
/// columnar rows) busy.
const char *ColumnarProgram = R"(
  (datatype E (Leaf i64) (Join E E))
  (relation edge (i64 i64))
  (relation path (i64 i64))
  (relation hop (i64 i64 i64))
  (relation reach (i64))
  (rule ((edge x y)) ((path x y)))
  (rule ((path x y) (edge y z)) ((path x z)))
  (rule ((path x y) (path y z) (< x z)) ((hop x y z)))
  (rule ((hop x y z) (edge z w)) ((reach w)))
  (rewrite (Join a b) (Join b a))
  (Join (Leaf 50) (Leaf 51))
  (Join (Join (Leaf 52) (Leaf 53)) (Leaf 54))
)";

class ColumnarDiffDriver {
public:
  explicit ColumnarDiffDriver(uint32_t Seed) : Rng(Seed) {
    for (int E = 0; E < 2; ++E) {
      EXPECT_TRUE(F[E].execute(ColumnarProgram)) << F[E].error();
      F[E].engine().setThreads(E == 0 ? 1 : 4);
    }
  }

  void run(unsigned Steps) {
    for (unsigned Step = 0; Step < Steps; ++Step) {
      switch (pick(10)) {
      case 0:
      case 1:
      case 2:
        addEdge();
        break;
      case 3:
        addTerm();
        break;
      case 4:
        addUnion();
        break;
      case 5:
      case 6:
      case 7:
        runRules();
        break;
      case 8:
        extract();
        break;
      case 9:
        pushOrPop();
        break;
      }
    }
    runRules();
    extract();
    while (Depth > 0) {
      all("(pop)");
      --Depth;
      compare();
    }
  }

private:
  Frontend F[2];
  size_t Depth = 0;
  std::mt19937 Rng;

  uint64_t pick(uint64_t Bound) {
    return std::uniform_int_distribution<uint64_t>(0, Bound - 1)(Rng);
  }

  void all(const std::string &Program) {
    for (int E = 0; E < 2; ++E)
      ASSERT_TRUE(F[E].execute(Program))
          << F[E].error() << " in " << Program;
  }

  void addEdge() {
    std::string I = std::to_string(pick(10)), J = std::to_string(pick(10));
    all("(edge " + I + " " + J + ")");
  }

  void addTerm() {
    std::string I = std::to_string(pick(6)), J = std::to_string(pick(6));
    all("(Join (Leaf " + I + ") (Leaf " + J + "))");
  }

  void addUnion() {
    std::string I = std::to_string(pick(6)), J = std::to_string(pick(6));
    all("(union (Leaf " + I + ") (Leaf " + J + "))");
  }

  void runRules() {
    all("(run " + std::to_string(1 + pick(3)) + ")");
    compare();
  }

  /// The seed terms predate every push, so extraction is well-defined at
  /// any depth; the printed representatives must agree exactly.
  void extract() {
    for (int E = 0; E < 2; ++E)
      F[E].clearOutputs();
    all(pick(2) == 0 ? "(extract (Join (Leaf 50) (Leaf 51)))"
                     : "(extract (Join (Join (Leaf 52) (Leaf 53)) "
                       "(Leaf 54)))");
    ASSERT_EQ(F[0].outputs().size(), 1u);
    ASSERT_EQ(F[0].outputs(), F[1].outputs())
        << "extraction diverged between 1 and 4 threads";
  }

  void pushOrPop() {
    if (Depth > 0 && pick(2) == 0) {
      all("(pop)");
      --Depth;
      compare();
    } else if (Depth < 3) {
      all("(push)");
      ++Depth;
    }
  }

  void compare() {
    ASSERT_EQ(F[0].graph().liveTupleCount(), F[1].graph().liveTupleCount())
        << "tuple count diverged between 1 and 4 threads";
    ASSERT_EQ(F[0].graph().liveContentHash(), F[1].graph().liveContentHash())
        << "content diverged between 1 and 4 threads";
  }
};

} // namespace

TEST(ColumnarDiffTest, ThreadParityRandomSequences) {
  for (uint32_t Seed : {11u, 29u, 47u, 83u, 131u}) {
    ColumnarDiffDriver Driver(Seed);
    Driver.run(120);
    if (::testing::Test::HasFatalFailure())
      FAIL() << "diverged at seed " << Seed;
  }
}
