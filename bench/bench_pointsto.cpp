//===- bench/bench_pointsto.cpp - Fig. 8: Steensgaard benchmark ---------------===//
//
// Part of egglog-cpp. Regenerates Fig. 8 of the paper: run the five
// Steensgaard points-to systems over the 30-program suite (named after the
// postgresql-9.5.2 binaries) with a timeout, and report per-program
// runtimes plus the §6.1 headline speedups (egglog vs patched, cclyzer++,
// and egglogNI).
//
// Usage: bench_pointsto [--scale S] [--timeout T] [--threads N]
//   --scale    multiplies every program's instruction count (default 0.15
//              so the whole figure regenerates in minutes; 1.0 is the
//              paper-sized suite; larger values probe the columnar
//              engine's scaling headroom)
//   --timeout  per-system run timeout in seconds (default 10; 0 = none)
//   --threads  match-phase concurrency for the egglog systems (default 1;
//              the JSON record carries it so the perf trajectory can
//              attribute wins per phase and per thread count)
//
// The JSON record also reports max_rss_mb (peak resident set of the whole
// process) and content_hash (XOR of the egglog system's per-program
// liveContentHash), so bench artifacts from different commits can certify
// both the memory claim and that they computed the same fixpoints.
//
//===----------------------------------------------------------------------===//

#include "pointsto/Analyses.h"
#include "support/NumberFormat.h"

#include <cinttypes>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

using namespace egglog::pointsto;
using egglog::parseWhole;

namespace {

/// Peak resident set size of this process in megabytes, or 0 where
/// getrusage is unavailable.
double maxRssMb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage Usage;
  if (getrusage(RUSAGE_SELF, &Usage) != 0)
    return 0;
#if defined(__APPLE__)
  return static_cast<double>(Usage.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // Linux: KiB
#endif
#else
  return 0;
#endif
}

} // namespace

int main(int argc, char **argv) {
  double Scale = 0.15, Timeout = 10.0;
  unsigned Threads = 1;
  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    if (std::strcmp(Arg, "--scale") == 0) {
      if (I + 1 >= argc || !parseWhole(argv[++I], Scale) ||
          !(Scale > 0) || !std::isfinite(Scale)) {
        std::fprintf(stderr, "--scale expects a positive number\n");
        return 1;
      }
    } else if (std::strcmp(Arg, "--timeout") == 0) {
      if (I + 1 >= argc || !parseWhole(argv[++I], Timeout) ||
          !(Timeout >= 0)) {
        std::fprintf(stderr, "--timeout expects a non-negative number of "
                             "seconds\n");
        return 1;
      }
    } else if (std::strcmp(Arg, "--threads") == 0) {
      long long N = 0;
      if (I + 1 >= argc || !parseWhole(argv[++I], N) || N < 1 ||
          N > INT_MAX) {
        std::fprintf(stderr, "--threads expects a positive integer\n");
        return 1;
      }
      Threads = static_cast<unsigned>(N);
    } else {
      std::fprintf(stderr, "unexpected argument %s\n", Arg);
      return 1;
    }
  }

  std::vector<Program> Suite = postgresSuite(Scale);
  const System Systems[] = {System::EqRelEncoding, System::Patched,
                            System::CClyzer, System::EgglogNI,
                            System::Egglog};

  std::printf("=== Fig. 8: Steensgaard points-to (scale %.2f, timeout "
              "%.0fs, %u thread%s) ===\n",
              Scale, Timeout, Threads, Threads == 1 ? "" : "s");
  std::printf("%-22s %8s  %10s %10s %10s %10s %10s\n", "program", "insns",
              "eqrel", "patched", "cclyzer++", "egglogNI", "egglog");

  // Accumulators for the speedup summary (only programs every compared
  // system finished).
  double SumPatched = 0, SumCClyzer = 0, SumNI = 0, SumEgglog = 0;
  size_t ComparablePrograms = 0;
  size_t Timeouts[5] = {0, 0, 0, 0, 0};
  // Totals over every program (timeouts included at their measured cost),
  // for the machine-readable trajectory record.
  double EgglogTotal = 0, EgglogSearch = 0, EgglogApply = 0,
         EgglogRebuild = 0;
  uint64_t ContentHash = 0;

  for (const Program &P : Suite) {
    std::printf("%-22s %8zu", P.Name.c_str(), P.numInstructions());
    double Times[5];
    bool TimedOut[5];
    for (int S = 0; S < 5; ++S) {
      AnalysisResult Result = runPointsTo(P, Systems[S], Timeout, Threads);
      Times[S] = Result.Seconds;
      TimedOut[S] = Result.TimedOut;
      if (Systems[S] == System::Egglog) {
        EgglogTotal += Result.Seconds;
        EgglogSearch += Result.SearchSeconds;
        EgglogApply += Result.ApplySeconds;
        EgglogRebuild += Result.RebuildSeconds;
        ContentHash ^= Result.ContentHash;
      }
      if (Result.TimedOut) {
        ++Timeouts[S];
        std::printf(" %10s", "TIMEOUT");
      } else {
        std::printf(" %9.3fs", Result.Seconds);
      }
      std::fflush(stdout);
    }
    std::printf("\n");
    if (!TimedOut[1] && !TimedOut[2] && !TimedOut[3] && !TimedOut[4]) {
      ++ComparablePrograms;
      SumPatched += Times[1];
      SumCClyzer += Times[2];
      SumNI += Times[3];
      SumEgglog += Times[4];
    }
  }

  std::printf("\nTimeouts: eqrel %zu/30, patched %zu/30, cclyzer++ %zu/30, "
              "egglogNI %zu/30, egglog %zu/30\n",
              Timeouts[0], Timeouts[1], Timeouts[2], Timeouts[3],
              Timeouts[4]);
  std::printf("(paper: eqrel times out on all but one; cclyzer++ on the "
              "three largest)\n");
  if (ComparablePrograms > 0 && SumEgglog > 0) {
    std::printf("\nSummary over %zu programs all four finished (paper: "
                "egglog 4.96x over patched, 1.94x over cclyzer++, 1.59x "
                "over egglogNI):\n",
                ComparablePrograms);
    std::printf("  egglog vs patched   %.2fx\n", SumPatched / SumEgglog);
    std::printf("  egglog vs cclyzer++ %.2fx\n", SumCClyzer / SumEgglog);
    std::printf("  egglog vs egglogNI  %.2fx\n", SumNI / SumEgglog);
  }

  // Machine-readable trajectory record (one JSON object per line): the
  // full egglog system summed over every program in the suite, with the
  // match/apply/rebuild phase split; threads records the match
  // concurrency the record was taken at. max_rss_mb is the process peak
  // RSS (dominated by the largest program's tables at the largest scale),
  // and content_hash folds every program's post-run liveContentHash so
  // records at the same (scale, suite) are directly comparable across
  // engine versions.
  std::printf("{\"bench\": \"pointsto\", \"system\": \"egglog\", "
              "\"programs\": %zu, \"timeouts\": %zu, \"threads\": %u, "
              "\"scale\": %.3f, "
              "\"match_s\": %.6f, \"apply_s\": %.6f, "
              "\"rebuild_s\": %.6f, \"total_s\": %.6f, "
              "\"max_rss_mb\": %.1f, \"content_hash\": \"%" PRIx64 "\"}\n",
              Suite.size(), Timeouts[4], Threads, Scale, EgglogSearch,
              EgglogApply, EgglogRebuild, EgglogTotal, maxRssMb(),
              ContentHash);
  return 0;
}
