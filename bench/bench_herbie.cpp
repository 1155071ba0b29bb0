//===- bench/bench_herbie.cpp - Figs. 11 & 12: mini-Herbie --------------------===//
//
// Part of egglog-cpp. Regenerates Figs. 11 and 12 of the paper: run
// mini-Herbie over the benchmark suite twice — once with egglog's sound
// analyses and once with the historical unsound ruleset — then print
//   Fig. 11: a histogram of (unsound - sound) bits of error, and
//   Fig. 12: a histogram of (unsound - sound) runtime,
// plus the paper's headline totals (sound was faster overall: 73.91 min
// vs 81.91 min; sound more accurate on 104 benchmarks, unsound on 135,
// with a far-left outlier only the sound analysis solves).
//
// Usage: bench_herbie [iterations] [samples]
//   Every value is a positive integer; anything else (garbage, trailing
//   characters, a negative count) exits 1 with a message naming it.
//
//===----------------------------------------------------------------------===//

#include "herbie/Herbie.h"
#include "support/NumberFormat.h"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace egglog::herbie;
using egglog::parseWhole;

namespace {

void printHistogram(const char *Title, const std::vector<double> &Diffs,
                    double BucketWidth, const char *Unit) {
  std::printf("\n%s\n", Title);
  if (Diffs.empty())
    return;
  double Lo = Diffs[0], Hi = Diffs[0];
  for (double D : Diffs) {
    Lo = std::min(Lo, D);
    Hi = std::max(Hi, D);
  }
  int FirstBucket = static_cast<int>(std::floor(Lo / BucketWidth));
  int LastBucket = static_cast<int>(std::floor(Hi / BucketWidth));
  for (int B = FirstBucket; B <= LastBucket; ++B) {
    double From = B * BucketWidth, To = From + BucketWidth;
    size_t Count = 0;
    for (double D : Diffs)
      if (D >= From && D < To)
        ++Count;
    if (Count == 0)
      continue;
    std::printf("  [%+7.2f, %+7.2f) %s: %3zu  ", From, To, Unit, Count);
    for (size_t I = 0; I < Count; ++I)
      std::printf("#");
    std::printf("\n");
  }
}

} // namespace

int main(int argc, char **argv) {
  HerbieOptions Base;
  Base.Iterations = 12;
  Base.Samples = 150;
  const char *Names[] = {"iterations", "samples"};
  unsigned *Values[] = {&Base.Iterations, &Base.Samples};
  for (int I = 1; I < argc; ++I) {
    if (I > 2) {
      std::fprintf(stderr, "unexpected argument %s\n", argv[I]);
      return 1;
    }
    long long N = 0;
    if (!parseWhole(argv[I], N) || N < 1 || N > INT_MAX) {
      std::fprintf(stderr, "%s expects a positive integer\n", Names[I - 1]);
      return 1;
    }
    *Values[I - 1] = static_cast<unsigned>(N);
  }

  const std::vector<Benchmark> &Suite = herbieSuite();
  std::printf("=== Figs. 11/12: mini-Herbie, %zu benchmarks, %u EqSat "
              "iterations, %u samples ===\n",
              Suite.size(), Base.Iterations, Base.Samples);
  std::printf("%-24s %9s %9s %9s %9s %9s\n", "benchmark", "init", "sound",
              "unsound", "t-sound", "t-unsnd");

  std::vector<double> ErrorDiffs, TimeDiffs;
  double SoundTotal = 0, UnsoundTotal = 0;
  double ExtractTotal = 0;
  uint64_t ExtractRows = 0;
  size_t Improved = 0, Completed = 0;
  size_t SoundWins = 0, UnsoundWins = 0, Ties = 0;

  for (const Benchmark &Bench : Suite) {
    HerbieOptions SoundOpts = Base;
    SoundOpts.Sound = true;
    HerbieResult Sound = improveExpression(Bench, SoundOpts);

    HerbieOptions UnsoundOpts = Base;
    UnsoundOpts.Sound = false;
    HerbieResult Unsound = improveExpression(Bench, UnsoundOpts);

    if (!Sound.Ok || !Unsound.Ok) {
      std::printf("%-24s  skipped (%s)\n", Bench.Name.c_str(),
                  (Sound.Ok ? Unsound.FailureReason : Sound.FailureReason)
                      .c_str());
      continue;
    }
    std::printf("%-24s %9.2f %9.2f %9.2f %8.2fs %8.2fs\n",
                Bench.Name.c_str(), Sound.InitialErrorBits,
                Sound.FinalErrorBits, Unsound.FinalErrorBits, Sound.Seconds,
                Unsound.Seconds);
    std::fflush(stdout);

    double ErrorDiff = Unsound.FinalErrorBits - Sound.FinalErrorBits;
    ErrorDiffs.push_back(ErrorDiff);
    TimeDiffs.push_back(Unsound.Seconds - Sound.Seconds);
    SoundTotal += Sound.Seconds;
    UnsoundTotal += Unsound.Seconds;
    ExtractTotal += Sound.ExtractSeconds + Unsound.ExtractSeconds;
    ExtractRows += Sound.ExtractRowsConsidered + Unsound.ExtractRowsConsidered;
    ++Completed;
    if (Sound.FinalErrorBits < Sound.InitialErrorBits ||
        Unsound.FinalErrorBits < Unsound.InitialErrorBits)
      ++Improved;
    if (ErrorDiff > 0.1)
      ++SoundWins;
    else if (ErrorDiff < -0.1)
      ++UnsoundWins;
    else
      ++Ties;
  }

  printHistogram("Fig. 11: histogram of (unsound - sound) average bits of "
                 "error (positive = sound more accurate)",
                 ErrorDiffs, 4.0, "bits");
  printHistogram("Fig. 12: histogram of (unsound - sound) runtime "
                 "(positive = sound faster)",
                 TimeDiffs, 0.25, "sec");

  std::printf("\nSummary (paper: sound better on 104, unsound on 135; "
              "sound pipeline faster overall, 73.91 vs 81.91 minutes):\n");
  std::printf("  sound more accurate on %zu, unsound on %zu, ties %zu\n",
              SoundWins, UnsoundWins, Ties);
  std::printf("  total time: sound %.1fs, unsound %.1fs (candidate "
              "selection %.2fs, %llu cost-fixpoint row visits)\n",
              SoundTotal, UnsoundTotal, ExtractTotal,
              static_cast<unsigned long long>(ExtractRows));

  // Machine-readable trajectory record (one JSON object per line).
  std::printf("{\"bench\": \"herbie\", \"benchmarks\": %zu, \"improved\": "
              "%zu, \"sound_s\": %.3f, \"unsound_s\": %.3f, \"extract_s\": "
              "%.4f, \"extract_rows\": %llu}\n",
              Completed, Improved, SoundTotal, UnsoundTotal, ExtractTotal,
              static_cast<unsigned long long>(ExtractRows));
  return 0;
}
