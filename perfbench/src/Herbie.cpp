//===- perfbench/src/Herbie.cpp - The herbie workload --------------------===//
//
// Part of egglog-cpp's benchmark. The lattice-analysis case (§6.2): the
// sound mini-Herbie pipeline over every herbieSuite() benchmark, driven
// step by step through the public herbie/ calls so setup, solve and
// answer are timed apart. Apply is spent in the Rational/BigInt interval
// primitives; match and rebuild are small.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/Extract.h"
#include "herbie/Herbie.h"
#include "herbie/Rules.h"
#include "support/Rational.h"

#include <cstdio>

using namespace egglog;
using namespace egglog::herbie;

namespace pb {
namespace {

/// The settings of the sound pipeline (HerbieOptions defaults except the
/// phase and sample counts; see README.md for the probe behind them).
constexpr unsigned Phases = 5;
constexpr unsigned Samples = 1000;
constexpr size_t NodeLimit = 60000;
constexpr size_t MaxCandidates = 48;

class HerbieWorkload : public Workload {
public:
  bool prepare(uint32_t Seed, const std::string &) override {
    ProgramText = herbieProgramText(/*Sound=*/true);
    for (const Benchmark &B : herbieSuite()) {
      ExprPtr Root = parseFPExpr(B.Expr);
      if (!Root)
        return false;
      // The root term plus interval seeds for the inputs, as
      // improveExpression writes them.
      std::string Setup = "(define root " + toEgglogTerm(*Root) + ")\n";
      for (const VarRange &Range : B.Ranges) {
        Rational Lo = Rational::fromDouble(Range.Lo);
        Rational Hi = Rational::fromDouble(Range.Hi);
        Setup += "(set (lo (MVar \"" + Range.Name + "\")) (rational-big \"" +
                 Lo.numerator().toString() + "\" \"" +
                 Lo.denominator().toString() + "\"))\n";
        Setup += "(set (hi (MVar \"" + Range.Name + "\")) (rational-big \"" +
                 Hi.numerator().toString() + "\" \"" +
                 Hi.denominator().toString() + "\"))\n";
      }
      SetupTexts.push_back(std::move(Setup));
      SampleSeeds.push_back(mixSeed(Seed, SampleSeeds.size()));
    }
    return true;
  }

  Rep run(Tracer *T, unsigned Threads) override {
    Rep R;
    double ErrorSum = 0;
    const std::vector<Benchmark> &Suite = herbieSuite();
    for (size_t I = 0; I < Suite.size(); ++I) {
      ++R.Attempted;
      size_t ErrorsBefore = R.Errors.size();
      double Final = improve(Suite[I], I, T, Threads, R);
      if (R.Errors.size() != ErrorsBefore) {
        ++R.Failed;
        R.error(Suite[I].Name + ": benchmark not Ok");
        continue;
      }
      ErrorSum += Final;
    }
    char Buffer[32];
    std::snprintf(Buffer, sizeof(Buffer), "%.17g", ErrorSum);
    R.Outputs["error_bits"] = Buffer;
    R.add("herbie.error_bits", ErrorSum);
    return R;
  }

private:
  std::string ProgramText;
  std::vector<std::string> SetupTexts;
  std::vector<uint32_t> SampleSeeds;
  SExpr ScheduleForm = parseSExprs(herbiePhasedSchedule(Phases)).Forms[0];

  /// One benchmark through the pipeline; returns its final error bits.
  double improve(const Benchmark &B, size_t Index, Tracer *T,
                 unsigned Threads, Rep &R) {
    Clock::time_point Start = Clock::now();
    Frontend F;
    F.engine().setThreads(Threads);
    EGraph &G = F.graph();
    ExprPtr Root;
    SampleSet Points;
    {
      Span S(T, "setup");
      Root = parseFPExpr(B.Expr);
      {
        Span Sample(T, "herbie.sample");
        Points = samplePoints(*Root, B.Ranges, Samples, SampleSeeds[Index]);
      }
      if (Points.Points.empty()) {
        R.error(B.Name + ": no valid sample points");
        return 0;
      }
      if (!execText(F, ProgramText, T, R) ||
          !execText(F, SetupTexts[Index], T, R))
        return 0;
    }
    double Setup = secondsSince(Start);

    RunOptions &Opts = F.runOptions();
    Opts.NodeLimit = NodeLimit;
    Opts.UseBackoff = true;
    Opts.TimeoutSeconds = 120;
    size_t TuplesBefore = G.liveTupleCount();
    uint64_t UnionsBefore = G.unionFind().unionCount();
    IndexCache::Stats IndexBefore = G.indexStats();
    {
      Span S(T, "solve");
      Span Run(T, "engine.run");
      if (!execForm(F, ScheduleForm, R))
        return 0;
      Run.count("live_tuples", static_cast<double>(G.liveTupleCount()));
    }
    double Solve = secondsSince(Start) - Setup;
    addRunReport(R, F.lastRun(), TuplesBefore, UnionsBefore, G);
    addIndexDelta(R, IndexBefore, G.indexStats());
    size_t Tuples = G.liveTupleCount();
    R.add("graph.live_tuples", static_cast<double>(Tuples));
    R.add("graph.approx_mb", G.approxBytes() / (1024.0 * 1024.0));

    // Answer: candidate selection and accuracy measurement.
    ExtractCounters XBefore = extractCounters(G);
    double Initial = 0, Final = 0;
    size_t Candidates = 0;
    {
      Span S(T, "answer");
      {
        Span Eval(T, "herbie.eval");
        Initial = averageError(*Root, Points);
      }
      Value RootValue;
      if (!F.evalGround("root", RootValue)) {
        R.error(B.Name + ": root term lost");
        return 0;
      }
      {
        Span Refresh(T, "extract.refresh");
        G.extractIndex().refresh(G);
      }
      std::vector<ExtractedTerm> Variants;
      {
        Span Render(T, "extract.render");
        Variants = extractVariants(G, RootValue, MaxCandidates);
      }
      Span Eval(T, "herbie.eval");
      Final = Initial;
      for (const ExtractedTerm &Variant : Variants) {
        ExprPtr Candidate = parseEgglogTerm(Variant.Text);
        if (!Candidate)
          continue;
        ++Candidates;
        Final = std::min(Final, averageError(*Candidate, Points));
      }
    }
    double Total = secondsSince(Start);
    R.SetupS += Setup;
    R.SolveS += Solve;
    R.AnswerS += Total - Setup - Solve;
    R.TotalS += Total;
    ExtractCounters XAfter = extractCounters(G);
    addExtractDelta(R, XBefore, XAfter);
    if (XAfter.Rows > XBefore.Rows)
      R.add("_extract.refreshed_tuples", static_cast<double>(Tuples));
    R.add("herbie.candidates", static_cast<double>(Candidates));
    if (Candidates == 0)
      R.error(B.Name + ": no candidate extracted");
    return Final;
  }
};

} // namespace

std::unique_ptr<Workload> makeHerbie() {
  return std::make_unique<HerbieWorkload>();
}

} // namespace pb
