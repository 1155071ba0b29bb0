//===- tests/core/ScheduleTest.cpp - Ruleset and schedule tests ------------===//
//
// Part of egglog-cpp. Tests for named rulesets, (run name n), and the
// (run-schedule ...) combinators: saturate, seq, repeat, and :until.
// Includes the phased-vs-monolithic equivalence check (running rulesets in
// phases must reach the same fixpoint as one combined ruleset) and the
// per-ruleset semi-naïve correctness it depends on.
//
//===----------------------------------------------------------------------===//

#include "core/Frontend.h"

#include <gtest/gtest.h>

#include <limits>

using namespace egglog;

TEST(ScheduleTest, RulesOnlyRunWithTheirRuleset) {
  Frontend F;
  ASSERT_TRUE(F.execute(R"(
    (ruleset mine)
    (relation in (i64))
    (relation out (i64))
    (rule ((in x)) ((out x)) :ruleset mine)
    (in 1)
    (run 5)
    (check-fail (out 1))
    (run mine 1)
    (check (out 1))
  )")) << F.error();
}

TEST(ScheduleTest, DefaultRulesetIsUntouchedByNamedRuns) {
  Frontend F;
  ASSERT_TRUE(F.execute(R"(
    (ruleset mine)
    (relation in (i64))
    (relation viaDefault (i64))
    (relation viaMine (i64))
    (rule ((in x)) ((viaDefault x)))
    (rule ((in x)) ((viaMine x)) :ruleset mine)
    (in 1)
    (run mine 1)
    (check (viaMine 1))
    (check-fail (viaDefault 1))
  )")) << F.error();
}

TEST(ScheduleTest, UnknownRulesetIsAnError) {
  Frontend F;
  ASSERT_FALSE(F.execute("(run nowhere 1)"));
  EXPECT_NE(F.error().find("unknown ruleset"), std::string::npos) << F.error();
  Frontend G;
  ASSERT_FALSE(G.execute(R"(
    (relation r (i64))
    (rule ((r x)) ((r x)) :ruleset nowhere)
  )"));
  EXPECT_NE(G.error().find("unknown ruleset"), std::string::npos) << G.error();
}

TEST(ScheduleTest, RulesetRedeclarationIsAnError) {
  Frontend F;
  ASSERT_FALSE(F.execute("(ruleset a) (ruleset a)"));
  EXPECT_NE(F.error().find("already declared"), std::string::npos) << F.error();
}

TEST(ScheduleTest, SaturateRunsToFixpoint) {
  Frontend F;
  ASSERT_TRUE(F.execute(R"(
    (ruleset closure)
    (relation edge (i64 i64))
    (relation path (i64 i64))
    (rule ((edge x y)) ((path x y)) :ruleset closure)
    (rule ((path x y) (edge y z)) ((path x z)) :ruleset closure)
    (edge 1 2) (edge 2 3) (edge 3 4) (edge 4 5)
    (run-schedule (saturate closure))
    (check (path 1 5))
  )")) << F.error();
  EXPECT_TRUE(F.lastRun().Saturated);
}

TEST(ScheduleTest, RepeatRunsTheBodyNTimes) {
  // Each (run grow 1) doubles the population; repeat 3 => 2^3 entries from
  // one seed.
  Frontend F;
  ASSERT_TRUE(F.execute(R"(
    (ruleset grow)
    (function count () i64 :merge (max old new))
    (set (count) 0)
    (rule ((= (count) c)) ((set (count) (+ c 1))) :ruleset grow)
    (run-schedule (repeat 3 (run grow 1)))
    (check (= (count) 3))
  )")) << F.error();
}

TEST(ScheduleTest, SeqOrdersPhases) {
  // The consume phase sees everything the produce phase made, and nothing
  // runs twice: strict left-to-right sequencing.
  Frontend F;
  ASSERT_TRUE(F.execute(R"(
    (ruleset produce)
    (ruleset consume)
    (relation seed (i64))
    (relation made (i64))
    (relation eaten (i64))
    (rule ((seed x)) ((made x)) :ruleset produce)
    (rule ((made x)) ((eaten x)) :ruleset consume)
    (seed 7)
    (run-schedule (seq (run produce 1) (run consume 1)))
    (check (eaten 7))
  )")) << F.error();
}

TEST(ScheduleTest, UntilStopsEarly) {
  Frontend F;
  ASSERT_TRUE(F.execute(R"(
    (function count () i64 :merge (max old new))
    (set (count) 0)
    (rule ((= (count) c)) ((set (count) (+ c 1))))
    (run 100 :until ((= (count) 5)))
    (check (= (count) 5))
  )")) << F.error();
}

TEST(ScheduleTest, UntilAlreadySatisfiedRunsNothing) {
  Frontend F;
  ASSERT_TRUE(F.execute(R"(
    (function count () i64 :merge (max old new))
    (set (count) 3)
    (rule ((= (count) c)) ((set (count) (+ c 1))))
    (run 100 :until ((= (count) 3)))
    (check (= (count) 3))
  )")) << F.error();
  EXPECT_EQ(F.lastRun().Iterations.size(), 0u);
}

TEST(ScheduleTest, PhasedEqualsMonolithicFixpoint) {
  // Theorem 4.1 carried to schedules: splitting the rules into two
  // rulesets and alternating them must reach the same database as running
  // them all together, because per-rule delta bounds stay correct across
  // phases.
  const char *Shared = R"(
    (relation edge (i64 i64))
    (relation path (i64 i64))
    (edge 1 2) (edge 2 3) (edge 3 4) (edge 4 5) (edge 5 6) (edge 2 6)
    (edge 6 1)
  )";
  Frontend Mono;
  ASSERT_TRUE(Mono.execute(std::string(Shared) + R"(
    (rule ((edge x y)) ((path x y)))
    (rule ((path x y) (edge y z)) ((path x z)))
    (run)
  )")) << Mono.error();

  Frontend Phased;
  ASSERT_TRUE(Phased.execute(std::string(Shared) + R"(
    (ruleset base)
    (ruleset step)
    (rule ((edge x y)) ((path x y)) :ruleset base)
    (rule ((path x y) (edge y z)) ((path x z)) :ruleset step)
    (run-schedule (saturate (run base 1) (run step 1)))
  )")) << Phased.error();

  EXPECT_EQ(Mono.graph().liveContentHash(), Phased.graph().liveContentHash());
  EXPECT_EQ(Mono.graph().liveTupleCount(), Phased.graph().liveTupleCount());
}

TEST(ScheduleTest, PhasedSemiNaiveMatchesNaive) {
  // The same phased schedule with and without semi-naïve deltas agrees,
  // i.e. per-ruleset DeltaStart bookkeeping loses nothing across phases.
  auto Run = [&](bool SemiNaive) {
    Frontend F;
    F.runOptions().SemiNaive = SemiNaive;
    EXPECT_TRUE(F.execute(R"(
      (ruleset expand)
      (ruleset fold)
      (datatype Math (Num i64) (Sym String) (Add Math Math))
      (rewrite (Add a b) (Add b a) :ruleset expand)
      (birewrite (Add (Add a b) c) (Add a (Add b c)) :ruleset expand)
      (rewrite (Add (Num x) (Num y)) (Num (+ x y)) :ruleset fold)
      (define e (Add (Num 1) (Add (Sym "x") (Num 2))))
      (run-schedule (repeat 4 (run expand 1) (saturate fold)))
      (check (= e (Add (Sym "x") (Num 3))))
    )")) << F.error();
    // Fresh-id allocation order differs between modes, so compare sizes
    // (as the LanguageTest equivalence tests do), not content hashes.
    return F.graph().liveTupleCount();
  };
  EXPECT_EQ(Run(true), Run(false));
}

TEST(ScheduleTest, NestedCombinators) {
  Frontend F;
  ASSERT_TRUE(F.execute(R"(
    (ruleset a)
    (ruleset b)
    (relation ra (i64))
    (relation rb (i64))
    (relation seed (i64))
    (rule ((seed x)) ((ra x)) :ruleset a)
    (rule ((ra x)) ((rb (+ x 1))) :ruleset b)
    (seed 0)
    (run-schedule (repeat 2 (seq (saturate a) (run b 1))))
    (check (rb 1))
  )")) << F.error();
}

TEST(ScheduleTest, ScheduleRespectsNodeLimit) {
  Frontend F;
  F.runOptions().NodeLimit = 30;
  ASSERT_TRUE(F.execute(R"(
    (ruleset blow)
    (datatype Math (Sym String) (Add Math Math))
    (rewrite (Add a b) (Add b a) :ruleset blow)
    (birewrite (Add (Add a b) c) (Add a (Add b c)) :ruleset blow)
    (define t (Add (Add (Sym "a") (Sym "b")) (Add (Sym "c") (Sym "d"))))
    (run-schedule (saturate blow))
  )")) << F.error();
  EXPECT_TRUE(F.lastRun().HitNodeLimit);
}

TEST(ScheduleTest, BudgetBeyondTheClockRangeIsNoDeadline) {
  // The graceful twin of the governor's case: a schedule-wide budget that
  // steady_clock cannot represent means no deadline, not one in the past.
  for (double Seconds :
       {1e10, 1e300, std::numeric_limits<double>::infinity()}) {
    Frontend F;
    F.runOptions().TimeoutSeconds = Seconds;
    ASSERT_TRUE(F.execute(R"(
      (relation edge (i64 i64))
      (relation path (i64 i64))
      (rule ((edge x y)) ((path x y)))
      (rule ((path x y) (edge y z)) ((path x z)))
      (edge 1 2) (edge 2 3) (edge 3 4)
      (run 100)
      (check (path 1 4))
    )")) << F.error();
    EXPECT_TRUE(F.lastRun().Saturated) << Seconds;
    EXPECT_FALSE(F.lastRun().TimedOut) << Seconds;
  }
}

TEST(ScheduleTest, BackoffAcrossPhasesTerminates) {
  // A saturate over a ruleset whose rules over-match: BackOff bans them,
  // the schedule fast-forwards the dead time, and the saturate still
  // reaches the true fixpoint.
  Frontend F;
  F.runOptions().UseBackoff = true;
  F.runOptions().BackoffMatchLimit = 4; // tiny: force repeated bans
  ASSERT_TRUE(F.execute(R"(
    (ruleset closure)
    (relation edge (i64 i64))
    (relation path (i64 i64))
    (rule ((edge x y)) ((path x y)) :ruleset closure)
    (rule ((path x y) (edge y z)) ((path x z)) :ruleset closure)
    (edge 1 2) (edge 2 3) (edge 3 4) (edge 4 5) (edge 5 6) (edge 6 7)
    (run-schedule (saturate closure))
    (check (path 1 7))
  )")) << F.error();
}

TEST(ScheduleTest, SaturateWithMetUntilGoalExitsDespiteBans) {
  // Regression: a Run leaf whose :until goal already holds must not report
  // pending BackOff bans as progress, or an enclosing saturate spins
  // through its whole pass budget without running anything.
  Frontend F;
  F.runOptions().UseBackoff = true;
  F.runOptions().BackoffMatchLimit = 1; // ban the closure rules instantly
  ASSERT_TRUE(F.execute(R"(
    (ruleset closure)
    (relation edge (i64 i64))
    (relation path (i64 i64))
    (rule ((edge x y)) ((path x y)) :ruleset closure)
    (rule ((path x y) (edge y z)) ((path x z)) :ruleset closure)
    (edge 1 2) (edge 2 3) (edge 3 4)
    (run-schedule (saturate (run closure 1 :until ((path 1 2)))))
    (check (path 1 2))
  )")) << F.error();
  // Well under the saturate pass cap: the goal-met leaf ends the loop.
  EXPECT_LT(F.lastRun().Iterations.size(), 100u);
}

TEST(ScheduleTest, MultiLeafScheduleDoesNotClaimSaturation) {
  // Regression: a later leaf saturating must not make the whole schedule
  // report Saturated while an earlier leaf still had work.
  Frontend F;
  ASSERT_TRUE(F.execute(R"(
    (ruleset a)
    (ruleset b)
    (relation seed (i64))
    (relation ra (i64))
    (relation rb (i64))
    (rule ((seed x)) ((ra (+ x 1))) :ruleset a)
    (rule ((seed x)) ((rb x)) :ruleset b)
    (seed 0)
    (run-schedule (run a 1) (run b 5))
  )")) << F.error();
  // Leaf a did one productive iteration and stopped on its budget (not a
  // fixpoint proof); leaf b then saturated — the schedule must not adopt
  // b's verdict.
  EXPECT_FALSE(F.lastRun().Saturated);
  // Whereas a schedule that genuinely reaches a fixpoint of its whole
  // body does report it.
  ASSERT_TRUE(F.execute("(run-schedule (saturate (run a 1) (run b 1)))"))
      << F.error();
  EXPECT_TRUE(F.lastRun().Saturated);
}

TEST(ScheduleTest, RunSchedulePreservesEngineApiUse) {
  // Library-level schedules (no surface syntax) drive the same machinery.
  Frontend F;
  ASSERT_TRUE(F.execute(R"(
    (ruleset mine)
    (relation in (i64))
    (relation out (i64))
    (rule ((in x)) ((out x)) :ruleset mine)
    (in 4)
  )")) << F.error();
  RulesetId Mine;
  ASSERT_TRUE(F.engine().lookupRuleset("mine", Mine));
  Schedule S = Schedule::makeCombinator(
      Schedule::Kind::Saturate, {Schedule::makeRun(Mine, 1)});
  RunOptions Opts;
  RunReport Report = F.engine().runSchedule(S, Opts);
  EXPECT_TRUE(Report.Saturated);
  Value Out;
  EXPECT_TRUE(F.evalGround("(out 4)", Out));
}

namespace {

/// What one (run ...) command reported, and the database it left.
struct RunTrace {
  bool Saturated;
  std::vector<size_t> Matches; ///< per iteration
  uint64_t ContentHash;
  bool operator==(const RunTrace &) const = default;
};

/// Runs a fixed command sequence with every rule in \p Ruleset (empty =
/// the default ruleset) and records each run's trace.
std::vector<RunTrace> traceRuns(const std::string &Ruleset, bool Backoff) {
  Frontend F;
  F.runOptions().UseBackoff = Backoff;
  F.runOptions().BackoffMatchLimit = 6;
  F.runOptions().BackoffBanLength = 2;
  std::string Tag = Ruleset.empty() ? "" : " :ruleset " + Ruleset;
  std::string Decls = Ruleset.empty() ? "" : "(ruleset " + Ruleset + ")";
  Decls += R"(
    (relation edge (i64 i64))
    (relation path (i64 i64))
    (function dist (i64 i64) i64 :merge (min old new))
    (relation note (i64))
    (datatype Math (Num i64) (Add Math Math))
    (rule ((edge x y)) ((path x y) (set (dist x y) 1)))" + Tag + R"()
    (rule ((path x y) (edge y z) (= d (dist x y)))
          ((path x z) (set (dist x z) (+ d 1))))" + Tag + R"()
    (rewrite (Add a b) (Add b a))" + Tag + R"()
    (rewrite (Add (Num a) (Num b)) (Num (+ a b)))" + Tag + R"()
  )";
  EXPECT_TRUE(F.execute(Decls)) << F.error();
  // A run count of 0 stands for a bare (run).
  auto Run = [&](unsigned N) {
    std::string Cmd = "(run";
    if (!Ruleset.empty())
      Cmd += " " + Ruleset;
    if (N)
      Cmd += " " + std::to_string(N);
    return Cmd + ")";
  };
  const std::vector<std::string> Commands = {
      "(edge 1 2) (edge 2 3) (define e (Add (Num 1) (Add (Num 2) (Num 3))))",
      Run(1), Run(3), Run(0),
      // Saturated, then touched only where no rule reads: nothing the
      // rules can change.
      "(note 1)", Run(1), "(note 2)", Run(3),
      "(edge 3 4) (edge 4 1) (edge 1 5)",
      Run(2), Run(0), Run(1)};
  std::vector<RunTrace> Traces;
  for (const std::string &Cmd : Commands) {
    EXPECT_TRUE(F.execute(Cmd)) << Cmd << ": " << F.error();
    if (Cmd.rfind("(run", 0) != 0)
      continue;
    RunTrace Trace{F.lastRun().Saturated, {}, F.graph().liveContentHash()};
    for (const IterationStats &Stats : F.lastRun().Iterations)
      Trace.Matches.push_back(Stats.Matches);
    Traces.push_back(std::move(Trace));
  }
  return Traces;
}

} // namespace

TEST(ScheduleTest, DefaultAndNamedRulesetRunsAgree) {
  // (run n) and (run r n) are the same one-leaf schedule: the same rules
  // in the default ruleset and in a named one must report the same
  // saturation verdicts, iteration counts and per-iteration matches, and
  // reach the same database, with and without BackOff.
  std::vector<RunTrace> Unbanned;
  for (bool Backoff : {false, true}) {
    SCOPED_TRACE(Backoff ? "backoff" : "no backoff");
    std::vector<RunTrace> Default = traceRuns("", Backoff);
    // BackOff does ban rules in this program.
    if (Backoff)
      EXPECT_NE(Default, Unbanned);
    else
      Unbanned = Default;
    std::vector<RunTrace> Named = traceRuns("r", Backoff);
    ASSERT_EQ(Default.size(), Named.size());
    for (size_t I = 0; I < Default.size(); ++I) {
      EXPECT_EQ(Default[I].Saturated, Named[I].Saturated) << "run " << I;
      EXPECT_EQ(Default[I].Matches, Named[I].Matches) << "run " << I;
      EXPECT_EQ(Default[I].ContentHash, Named[I].ContentHash) << "run " << I;
    }
    // On a database its rules cannot change, one iteration proves
    // saturation: no confirming iteration.
    for (size_t I : {3u, 4u}) {
      EXPECT_TRUE(Default[I].Saturated) << "run " << I;
      EXPECT_EQ(Default[I].Matches.size(), 1u) << "run " << I;
    }
  }
}
