//===- bench/bench_math.cpp - Fig. 7: math micro-benchmark --------------------===//
//
// Part of egglog-cpp. Regenerates Fig. 7 of the paper: grow an e-graph
// from the math-suite seed terms under the BackOff scheduler with three
// systems —
//   egg       the classic e-graph with backtracking e-matching,
//   egglogNI  the egglog engine with semi-naïve evaluation disabled,
//   egglog    the full egglog engine —
// and report e-nodes versus cumulative time per iteration, plus the §5.3
// headline speedups at the final iteration.
//
// Usage: bench_math [iterations] [node_limit] [--threads N]
//   Every value is a positive integer; anything else (garbage, trailing
//   characters, a negative count) exits 1 with a message naming it.
//
//===----------------------------------------------------------------------===//

#include "MathSuite.h"

#include "core/Frontend.h"
#include "egraph/Runner.h"
#include "support/NumberFormat.h"
#include "support/Timer.h"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace egglog;

namespace {

struct Series {
  std::vector<size_t> ENodes;
  std::vector<double> CumulativeSeconds;
  /// Total seconds spent in the match phase across all iterations
  /// (prepare plus join).
  double SearchSeconds = 0;
  /// Total seconds spent in the apply phase across all iterations.
  double ApplySeconds = 0;
  /// Total seconds spent in the rebuild phase across all iterations.
  double RebuildSeconds = 0;
  /// Rebuild seconds per reported iteration (merge-heavy late iterations
  /// are where incremental rebuilding pays off; the JSON keeps the tail).
  std::vector<double> RebuildPerIteration;
};

/// Runs the classic egg-style baseline.
Series runEgg(unsigned Iterations, size_t NodeLimit) {
  classic::EGraphClassic G;
  classic::Runner R(G);
  for (const bench::MathRule &Rule : bench::mathRules()) {
    bool Ok = R.addRewrite(Rule.Name, Rule.Lhs, Rule.Rhs);
    if (!Ok) {
      std::fprintf(stderr, "bad rewrite %s\n", Rule.Name);
      std::exit(1);
    }
  }
  for (const char *Term : bench::mathSeedTerms()) {
    std::vector<std::string> Vars;
    auto P = classic::parsePattern(G, Term, Vars);
    classic::Subst Empty;
    classic::instantiate(G, *P, Empty);
  }
  classic::RunnerOptions Opts;
  Opts.Iterations = Iterations;
  Opts.UseBackoff = true;
  Opts.NodeLimit = NodeLimit;
  classic::RunnerReport Report = R.run(Opts);

  Series Result;
  double Cumulative = 0;
  for (const classic::RunnerIteration &It : Report.Iterations) {
    Cumulative += It.SearchSeconds + It.ApplySeconds + It.RebuildSeconds;
    Result.SearchSeconds += It.SearchSeconds;
    Result.ApplySeconds += It.ApplySeconds;
    Result.RebuildSeconds += It.RebuildSeconds;
    Result.RebuildPerIteration.push_back(It.RebuildSeconds);
    Result.ENodes.push_back(It.ENodes);
    Result.CumulativeSeconds.push_back(Cumulative);
  }
  return Result;
}

/// Counts e-nodes on the egglog side: live tuples of the Math
/// constructors.
size_t egglogENodes(Frontend &F) {
  size_t Total = 0;
  for (const char *Name : {"Num", "Sym", "Add", "Sub", "Mul", "Pow"}) {
    FunctionId Id;
    if (F.graph().lookupFunctionName(Name, Id))
      Total += F.graph().functionSize(Id);
  }
  return Total;
}

/// --threads N: match-phase concurrency for the egglog systems.
unsigned ThreadsFlag = 1;

/// Runs the egglog engine (incremental or not).
Series runEgglog(bool SemiNaive, unsigned Iterations, size_t NodeLimit) {
  Frontend F;
  F.engine().setThreads(ThreadsFlag);
  if (!F.execute(bench::mathRulesEgglog()) ||
      !F.execute(bench::mathSeedsEgglog())) {
    std::fprintf(stderr, "egglog setup failed: %s\n", F.error().c_str());
    std::exit(1);
  }
  Series Result;
  double Cumulative = 0;
  RunOptions Opts;
  Opts.Iterations = 1;
  Opts.SemiNaive = SemiNaive;
  Opts.UseBackoff = true;
  for (unsigned Iter = 0; Iter < Iterations; ++Iter) {
    Timer Step;
    RunReport Report = F.engine().run(Opts);
    Cumulative += Step.seconds();
    double StepRebuild = 0;
    for (const IterationStats &Stats : Report.Iterations) {
      Result.SearchSeconds += Stats.SearchSeconds;
      Result.ApplySeconds += Stats.ApplySeconds;
      StepRebuild += Stats.RebuildSeconds;
    }
    Result.RebuildSeconds += StepRebuild;
    Result.RebuildPerIteration.push_back(StepRebuild);
    Result.ENodes.push_back(egglogENodes(F));
    Result.CumulativeSeconds.push_back(Cumulative);
    if (Report.Saturated || egglogENodes(F) > NodeLimit)
      break;
  }
  return Result;
}

} // namespace

int main(int argc, char **argv) {
  unsigned Iterations = 30;
  size_t NodeLimit = 400000;
  unsigned Positionals = 0;
  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    long long N = 0;
    if (std::strcmp(Arg, "--threads") == 0) {
      if (I + 1 >= argc || !parseWhole(argv[++I], N) || N < 1 ||
          N > INT_MAX) {
        std::fprintf(stderr, "--threads expects a positive integer\n");
        return 1;
      }
      ThreadsFlag = static_cast<unsigned>(N);
    } else if (Positionals == 0) {
      if (!parseWhole(Arg, N) || N < 1 || N > INT_MAX) {
        std::fprintf(stderr, "iterations expects a positive integer\n");
        return 1;
      }
      Iterations = static_cast<unsigned>(N);
      ++Positionals;
    } else if (Positionals == 1) {
      if (!parseWhole(Arg, N) || N < 1) {
        std::fprintf(stderr, "node_limit expects a positive integer\n");
        return 1;
      }
      NodeLimit = static_cast<size_t>(N);
      ++Positionals;
    } else {
      std::fprintf(stderr, "unexpected argument %s\n", Arg);
      return 1;
    }
  }

  std::printf("=== Fig. 7: math micro-benchmark (egg math suite, "
              "BackOff scheduler, %u iterations) ===\n",
              Iterations);

  Series Egg = runEgg(Iterations, NodeLimit);
  Series NI = runEgglog(/*SemiNaive=*/false, Iterations, NodeLimit);
  Series Full = runEgglog(/*SemiNaive=*/true, Iterations, NodeLimit);

  std::printf("%-5s  %12s %12s  %12s %12s  %12s %12s\n", "iter", "egg-nodes",
              "egg-time", "NI-nodes", "NI-time", "egglog-nodes",
              "egglog-time");
  size_t Rows =
      std::max(Egg.ENodes.size(),
               std::max(NI.ENodes.size(), Full.ENodes.size()));
  for (size_t I = 0; I < Rows; ++I) {
    auto Cell = [&](const Series &S, bool Time) -> std::string {
      if (I >= S.ENodes.size())
        return "-";
      char Buffer[64];
      if (Time)
        std::snprintf(Buffer, sizeof(Buffer), "%.4f",
                      S.CumulativeSeconds[I]);
      else
        std::snprintf(Buffer, sizeof(Buffer), "%zu", S.ENodes[I]);
      return Buffer;
    };
    std::printf("%-5zu  %12s %12s  %12s %12s  %12s %12s\n", I + 1,
                Cell(Egg, false).c_str(), Cell(Egg, true).c_str(),
                Cell(NI, false).c_str(), Cell(NI, true).c_str(),
                Cell(Full, false).c_str(), Cell(Full, true).c_str());
  }

  // §5.3 headline numbers: time ratios at the last common iteration.
  size_t Last = std::min(
      {Egg.ENodes.size(), NI.ENodes.size(), Full.ENodes.size()});
  if (Last > 0) {
    double EggT = Egg.CumulativeSeconds[Last - 1];
    double NIT = NI.CumulativeSeconds[Last - 1];
    double FullT = Full.CumulativeSeconds[Last - 1];
    std::printf("\nSummary at iteration %zu (paper: egglogNI 3.34x, egglog "
                "9.27x over egg):\n",
                Last);
    std::printf("  egg     %8.4fs  %8zu e-nodes\n", EggT,
                Egg.ENodes[Last - 1]);
    std::printf("  egglogNI%8.4fs  %8zu e-nodes  speedup %.2fx\n", NIT,
                NI.ENodes[Last - 1], EggT / NIT);
    std::printf("  egglog  %8.4fs  %8zu e-nodes  speedup %.2fx\n", FullT,
                Full.ENodes[Last - 1], EggT / FullT);
  }

  // Machine-readable trajectory records (one JSON object per line).
  // rebuild_tail_s sums the last 10 iterations — the merge-heavy stretch
  // where worklist-driven rebuilding should beat the full sweep.
  auto EmitJson = [](const char *Bench, const char *System, const Series &S,
                     unsigned Threads) {
    if (S.ENodes.empty())
      return;
    double RebuildTail = 0;
    size_t Tail = S.RebuildPerIteration.size() > 10
                      ? S.RebuildPerIteration.size() - 10
                      : 0;
    for (size_t I = Tail; I < S.RebuildPerIteration.size(); ++I)
      RebuildTail += S.RebuildPerIteration[I];
    std::printf("{\"bench\": \"%s\", \"system\": \"%s\", \"iterations\": "
                "%zu, \"enodes\": %zu, \"threads\": %u, \"match_s\": %.6f, "
                "\"apply_s\": %.6f, \"rebuild_s\": %.6f, "
                "\"rebuild_tail_s\": %.6f, \"total_s\": %.6f}\n",
                Bench, System, S.ENodes.size(), S.ENodes.back(), Threads,
                S.SearchSeconds, S.ApplySeconds, S.RebuildSeconds,
                RebuildTail, S.CumulativeSeconds.back());
  };
  // The egg baseline is always serial; only the egglog systems honor
  // --threads, and their records must say so or the trajectory would
  // attribute thread counts to runs that never used them.
  EmitJson("math", "egg", Egg, 1);
  EmitJson("math", "egglogNI", NI, ThreadsFlag);
  EmitJson("math", "egglog", Full, ThreadsFlag);
  return 0;
}
