//===- perfbench/src/Bench.h - Shared benchmark driver types ---*- C++ -*-===//
//
// Part of egglog-cpp's benchmark (see perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: the per-repetition record, the span
/// tracer that brackets each call into a library layer, host probes, and
/// helpers that drive the Frontend form by form so parse and execution
/// time can be told apart. Spans and timers live here, in the benchmark;
/// nothing is added inside src/.
///
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_PERFBENCH_BENCH_H
#define EGGLOG_PERFBENCH_BENCH_H

#include "core/Engine.h"
#include "core/Frontend.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

//===----------------------------------------------------------------------===
// Tracing
//===----------------------------------------------------------------------===

/// One recorded span: a layer call bracketed by the benchmark.
struct SpanRecord {
  std::string Name;
  double Start = 0; ///< Seconds since the tracer was created.
  double End = 0;
  int Parent = -1;  ///< Index of the enclosing span, -1 at top level.
  int RunId = 0;    ///< The repetition the span belongs to.
  /// Counts taken at the span's closing boundary.
  std::vector<std::pair<std::string, double>> Counts;
};

/// Keeps spans in memory for the whole run; written out at the end.
class Tracer {
public:
  Tracer() : Origin(Clock::now()) {}

  int begin(const char *Name);
  void end(int Id);
  void count(int Id, const char *Name, double Value);

  void setRun(int RunId) { CurrentRun = RunId; }
  const std::vector<SpanRecord> &spans() const { return Spans; }

  /// Summed duration of every span called \p Name in run \p RunId.
  double total(const std::string &Name, int RunId) const;

  /// Prints the per-layer count / total / self-time table for \p RunId.
  void printSelfTimes(int RunId) const;

  /// Writes every span as one JSON object per line.
  bool write(const std::string &Path) const;

private:
  Clock::time_point Origin;
  std::vector<SpanRecord> Spans;
  int Open = -1;
  int CurrentRun = 0;
};

/// RAII span; a null tracer makes it a no-op, which is the untraced mode.
class Span {
public:
  Span(Tracer *T, const char *Name) : T(T), Id(T ? T->begin(Name) : -1) {}
  ~Span() {
    if (T)
      T->end(Id);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  void count(const char *Name, double Value) {
    if (T)
      T->count(Id, Name, Value);
  }

private:
  Tracer *T;
  int Id;
};

//===----------------------------------------------------------------------===
// One repetition of a workload
//===----------------------------------------------------------------------===

/// Everything one repetition measured and checked.
struct Rep {
  double SetupS = 0;
  double SolveS = 0;
  double AnswerS = 0;
  double TotalS = 0;
  /// Per-layer values read from the layers' own counters (the driver
  /// adds span times and host probes on top). Keys starting with '_' are
  /// denominators of the ratio metrics and are not reported.
  std::map<std::string, double> Layer;
  /// Outputs that must repeat exactly in every repetition of a seed and
  /// are compared against the recorded table.
  std::map<std::string, std::string> Outputs;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Check failures, one line each; empty means the outputs are correct.
  std::vector<std::string> Errors;

  void add(const std::string &Key, double Value) { Layer[Key] += Value; }
  void error(std::string Message) { Errors.push_back(std::move(Message)); }
};

/// A workload: inputs made once from the seed, then timed repetitions.
class Workload {
public:
  virtual ~Workload() = default;
  /// Builds the inputs (untimed). \p WorkDir is a scratch directory.
  virtual bool prepare(uint32_t Seed, const std::string &WorkDir) = 0;
  /// Runs one repetition at \p Threads engine threads, with spans
  /// recorded into \p T when it is non-null.
  virtual Rep run(Tracer *T, unsigned Threads) = 0;
};

std::unique_ptr<Workload> makePointsTo();
std::unique_ptr<Workload> makeEqsatMath();
std::unique_ptr<Workload> makeHerbie();
std::unique_ptr<Workload> makeSession();

/// Checks the points-to oracle against the egglog encoding and the
/// repo's Datalog encoding at small scales; returns the exit code.
int pointsToSelfTest();

//===----------------------------------------------------------------------===
// Host and process probes
//===----------------------------------------------------------------------===

/// User plus system CPU seconds of this process.
double processCpuSeconds();
/// Machine-wide steal time from /proc/stat (0 where unavailable).
double hostStealSeconds();
/// Peak resident set of this process in MiB.
double peakRssMb();
/// Time of a fixed CPU kernel that never calls into egglog: a yardstick
/// for host speed, so drift in one direction can be told from the code.
double referenceKernelSeconds();

//===----------------------------------------------------------------------===
// Frontend and engine helpers
//===----------------------------------------------------------------------===

/// Mixes a workload seed with an index into a 32-bit generator seed.
uint32_t mixSeed(uint32_t Seed, uint64_t Index);

/// Parses \p Source (span frontend.parse) and executes its forms one by
/// one (span frontend.exec), counting attempted and failed forms in \p R.
/// Returns false if parsing or any form failed.
bool execText(egglog::Frontend &F, std::string_view Source, Tracer *T,
              Rep &R);

/// Executes one already-parsed form, under span \p SpanName when \p T
/// is non-null, counting it in \p R.
bool execForm(egglog::Frontend &F, const egglog::SExpr &Form, Rep &R,
              Tracer *T = nullptr, const char *SpanName = nullptr);

/// Folds a run report into the engine.* counters of \p R. \p TuplesBefore
/// is the live tuple count before the run (for new tuples per match).
void addRunReport(Rep &R, const egglog::RunReport &Report,
                  size_t TuplesBefore, size_t UnionsBefore,
                  egglog::EGraph &G);

/// Index-cache counters, for before/after deltas.
void addIndexDelta(Rep &R, const egglog::IndexCache::Stats &Before,
                   const egglog::IndexCache::Stats &After);

/// ExtractIndex counters read without building the index (zeros when it
/// was never built).
struct ExtractCounters {
  double FullRebuilds = 0, Incrementals = 0, WarmHits = 0, Rows = 0;
};
ExtractCounters extractCounters(const egglog::EGraph &G);
void addExtractDelta(Rep &R, const ExtractCounters &Before,
                     const ExtractCounters &After);

std::string hex64(uint64_t V);

} // namespace pb

#endif // EGGLOG_PERFBENCH_BENCH_H
