//===- perfbench/src/Support.cpp - Tracer, host probes, helpers ----------===//
//
// Part of egglog-cpp's benchmark. See Bench.h for an overview.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/Extract.h"
#include "support/SExpr.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <unistd.h>

#include <sys/resource.h>

using namespace egglog;

namespace pb {

//===----------------------------------------------------------------------===
// Tracer
//===----------------------------------------------------------------------===

int Tracer::begin(const char *Name) {
  SpanRecord S;
  S.Name = Name;
  S.Parent = Open;
  S.RunId = CurrentRun;
  Spans.push_back(std::move(S));
  Open = static_cast<int>(Spans.size()) - 1;
  // Stamp last so the bookkeeping above is not charged to the span.
  Spans.back().Start = secondsSince(Origin);
  return Open;
}

void Tracer::end(int Id) {
  Spans[Id].End = secondsSince(Origin);
  Open = Spans[Id].Parent;
}

void Tracer::count(int Id, const char *Name, double Value) {
  Spans[Id].Counts.emplace_back(Name, Value);
}

double Tracer::total(const std::string &Name, int RunId) const {
  double Sum = 0;
  for (const SpanRecord &S : Spans)
    if (S.RunId == RunId && S.Name == Name)
      Sum += S.End - S.Start;
  return Sum;
}

void Tracer::printSelfTimes(int RunId) const {
  struct Row {
    size_t Calls = 0;
    double Total = 0, Self = 0;
  };
  std::map<std::string, Row> Rows;
  // Spans nest strictly (one thread), so a span's self time is its
  // duration minus its direct children's durations.
  std::vector<double> ChildTime(Spans.size(), 0.0);
  for (const SpanRecord &S : Spans)
    if (S.RunId == RunId && S.Parent >= 0)
      ChildTime[S.Parent] += S.End - S.Start;
  double Top = 0;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    if (S.RunId != RunId)
      continue;
    Row &R = Rows[S.Name];
    ++R.Calls;
    R.Total += S.End - S.Start;
    R.Self += S.End - S.Start - ChildTime[I];
    if (S.Parent < 0)
      Top += S.End - S.Start;
  }
  std::vector<std::pair<std::string, Row>> Sorted(Rows.begin(), Rows.end());
  std::sort(Sorted.begin(), Sorted.end(), [](const auto &A, const auto &B) {
    return A.second.Self > B.second.Self;
  });
  std::printf("self-time by layer (traced repetition %d, %.4f s traced)\n",
              RunId, Top);
  std::printf("  %-22s %8s %12s %12s %7s\n", "span", "calls", "total_s",
              "self_s", "self%");
  for (const auto &[Name, R] : Sorted)
    std::printf("  %-22s %8zu %12.6f %12.6f %6.2f%%\n", Name.c_str(), R.Calls,
                R.Total, R.Self, Top > 0 ? 100.0 * R.Self / Top : 0.0);
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    std::fprintf(Out,
                 "{\"id\": %zu, \"name\": \"%s\", \"run\": %d, \"parent\": "
                 "%d, \"start_s\": %.9f, \"end_s\": %.9f, \"counts\": {",
                 I, S.Name.c_str(), S.RunId, S.Parent, S.Start, S.End);
    for (size_t C = 0; C < S.Counts.size(); ++C)
      std::fprintf(Out, "%s\"%s\": %.17g", C ? ", " : "",
                   S.Counts[C].first.c_str(), S.Counts[C].second);
    std::fprintf(Out, "}}\n");
  }
  return std::fclose(Out) == 0;
}

//===----------------------------------------------------------------------===
// Host and process probes
//===----------------------------------------------------------------------===

double processCpuSeconds() {
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0;
  return U.ru_utime.tv_sec + U.ru_utime.tv_usec * 1e-6 + U.ru_stime.tv_sec +
         U.ru_stime.tv_usec * 1e-6;
}

double hostStealSeconds() {
  std::ifstream Stat("/proc/stat");
  std::string Label;
  // cpu  user nice system idle iowait irq softirq steal ...
  unsigned long long Fields[8] = {};
  if (!(Stat >> Label) || Label != "cpu")
    return 0;
  for (unsigned long long &F : Fields)
    if (!(Stat >> F))
      return 0;
  long Hz = sysconf(_SC_CLK_TCK);
  return Hz > 0 ? static_cast<double>(Fields[7]) / Hz : 0;
}

double peakRssMb() {
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0;
  return static_cast<double>(U.ru_maxrss) / 1024.0; // Linux reports KiB.
}

/// Keeps the reference kernel's result observable so it is not optimized
/// away.
volatile uint64_t ReferenceSink = 0;

double referenceKernelSeconds() {
  // Fixed work: fill 2^18 words from a SplitMix stream, sort them, and
  // fold the result (about 20 ms on a 2020s server core).
  static std::vector<uint64_t> Buffer(1u << 18);
  Clock::time_point Start = Clock::now();
  uint64_t State = 0x243F6A8885A308D3ull;
  for (uint64_t &Word : Buffer) {
    State += 0x9E3779B97F4A7C15ull;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    Word = Z ^ (Z >> 31);
  }
  std::sort(Buffer.begin(), Buffer.end());
  uint64_t Fold = 0;
  for (uint64_t Word : Buffer)
    Fold = Fold * 31 + Word;
  double Seconds = secondsSince(Start);
  ReferenceSink = Fold;
  return Seconds;
}

//===----------------------------------------------------------------------===
// Frontend and engine helpers
//===----------------------------------------------------------------------===

uint32_t mixSeed(uint32_t Seed, uint64_t Index) {
  uint64_t Z = (static_cast<uint64_t>(Seed) << 32 | Index) +
               0x9E3779B97F4A7C15ull;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return static_cast<uint32_t>(Z ^ (Z >> 31));
}

bool execForm(Frontend &F, const SExpr &Form, Rep &R, Tracer *T,
              const char *SpanName) {
  Span S(T, SpanName);
  ++R.Attempted;
  R.add("frontend.forms", 1);
  if (F.executeForm(Form))
    return true;
  ++R.Failed;
  R.add("frontend.failed_forms", 1);
  R.error("form failed: " + F.error());
  return false;
}

bool execText(Frontend &F, std::string_view Source, Tracer *T, Rep &R) {
  ParseResult Parsed;
  {
    Span S(T, "frontend.parse");
    Parsed = parseSExprs(Source);
  }
  ++R.Attempted;
  if (!Parsed.Ok) {
    ++R.Failed;
    R.error("parse error: " + Parsed.Error);
    return false;
  }
  Span S(T, "frontend.exec");
  S.count("forms", static_cast<double>(Parsed.Forms.size()));
  for (const SExpr &Form : Parsed.Forms)
    if (!execForm(F, Form, R))
      return false;
  return true;
}

void addRunReport(Rep &R, const RunReport &Report, size_t TuplesBefore,
                  size_t UnionsBefore, EGraph &G) {
  for (const IterationStats &It : Report.Iterations) {
    R.add("engine.match_s", It.SearchSeconds);
    R.add("engine.apply_s", It.ApplySeconds);
    R.add("engine.apply_stage_s", It.ApplyStageSeconds);
    R.add("engine.rebuild_s", It.RebuildSeconds);
    R.add("engine.warm_s", It.WarmSeconds);
    R.add("engine.rebuild_passes", It.RebuildPasses);
    R.add("engine.matches", static_cast<double>(It.Matches));
  }
  R.add("engine.iterations", static_cast<double>(Report.Iterations.size()));
  size_t After = G.liveTupleCount();
  R.add("_engine.new_tuples",
        After > TuplesBefore ? static_cast<double>(After - TuplesBefore) : 0);
  R.add("graph.unions",
        static_cast<double>(G.unionFind().unionCount() - UnionsBefore));
  if (Report.TimedOut) {
    ++R.Failed;
    R.error("engine run timed out");
  }
}

void addIndexDelta(Rep &R, const IndexCache::Stats &Before,
                   const IndexCache::Stats &After) {
  R.add("index.builds", static_cast<double>(After.Builds - Before.Builds));
  R.add("index.refreshes",
        static_cast<double>(After.Refreshes - Before.Refreshes));
  R.add("index.hits", static_cast<double>(After.Hits - Before.Hits));
  R.add("index.derivations",
        static_cast<double>(After.Derivations - Before.Derivations));
}

ExtractCounters extractCounters(const EGraph &G) {
  ExtractCounters C;
  if (const ExtractIndex *X = G.extractIndexIfBuilt()) {
    const ExtractIndex::Stats &S = X->stats();
    C.FullRebuilds = static_cast<double>(S.FullRebuilds);
    C.Incrementals = static_cast<double>(S.Incrementals);
    C.WarmHits = static_cast<double>(S.WarmHits);
    C.Rows = static_cast<double>(S.RowsConsidered);
  }
  return C;
}

void addExtractDelta(Rep &R, const ExtractCounters &Before,
                     const ExtractCounters &After) {
  R.add("extract.full_rebuilds", After.FullRebuilds - Before.FullRebuilds);
  R.add("extract.incrementals", After.Incrementals - Before.Incrementals);
  R.add("extract.warm_hits", After.WarmHits - Before.WarmHits);
  R.add("extract.rows_considered", After.Rows - Before.Rows);
}

std::string hex64(uint64_t V) {
  char Buffer[24];
  std::snprintf(Buffer, sizeof(Buffer), "%016" PRIx64, V);
  return Buffer;
}

} // namespace pb
