//===- perfbench/src/Main.cpp - Benchmark driver entry point -------------===//
//
// Part of egglog-cpp's benchmark (see perfbench/README.md).
//
// Usage: egglog_perfbench --workload W --seed N --seconds S --trace 0|1
//                         --workdir DIR
//        egglog_perfbench --selftest
//
// Runs one workload in this process at one engine thread: inputs are made
// from the seed (untimed), then repetitions run until the time budget is
// spent. Untraced (--trace 0) prints the upper quartiles of the end-to-end
// metrics; traced (--trace 1) alternates untraced and traced repetitions,
// prints a self-time table, writes the spans to DIR, and reports the
// per-layer metrics plus the tracing overhead. The last stdout line is
// one JSON object: correct, attempted, failed, metrics.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace pb;

namespace {

/// The per-layer metrics, in BENCHMARK.json order, with their units.
const std::pair<const char *, const char *> LayerMetrics[] = {
    {"frontend.parse_s", "s"},
    {"frontend.exec_s", "s"},
    {"frontend.forms", "count"},
    {"frontend.failed_forms", "count"},
    {"engine.match_s", "s"},
    {"engine.apply_s", "s"},
    {"engine.rebuild_s", "s"},
    {"engine.rebuild_passes", "count"},
    {"engine.iterations", "count"},
    {"engine.matches", "count"},
    {"engine.new_tuples_per_match", "ratio"},
    {"index.builds", "count"},
    {"index.refreshes", "count"},
    {"index.hits", "count"},
    {"index.derivations", "count"},
    {"index.hit_ratio", "ratio"},
    {"graph.live_tuples", "count"},
    {"graph.approx_mb", "MiB"},
    {"graph.unions", "count"},
    {"extract.refresh_s", "s"},
    {"extract.render_s", "s"},
    {"extract.full_rebuilds", "count"},
    {"extract.incrementals", "count"},
    {"extract.warm_hits", "count"},
    {"extract.rows_considered", "count"},
    {"extract.rows_per_tuple", "ratio"},
    {"snapshot.load_s", "s"},
    {"snapshot.save_s", "s"},
    {"snapshot.mb", "MiB"},
    {"context.push_s", "s"},
    {"context.pop_s", "s"},
    {"herbie.sample_s", "s"},
    {"herbie.eval_s", "s"},
    {"herbie.candidates", "count"},
    {"herbie.error_bits", "bits"},
    {"pointsto.query_s", "s"},
    {"pointsto.readout_s", "s"},
    {"proc.cpu_s", "s"},
    {"host.steal_s", "s"},
    {"host.ref_s", "s"},
    {"trace.overhead_s", "s"},
    {"engine.t4.match_s", "s"},
    {"engine.t4.apply_s", "s"},
    {"engine.t4.apply_stage_s", "s"},
    {"engine.t4.rebuild_s", "s"},
    {"engine.t4.warm_s", "s"},
    {"engine.t4.total_s", "s"},
};

/// Span names whose summed duration is a per-layer time.
const std::pair<const char *, const char *> SpanMetrics[] = {
    {"frontend.parse", "frontend.parse_s"},
    {"frontend.exec", "frontend.exec_s"},
    {"extract.refresh", "extract.refresh_s"},
    {"extract.render", "extract.render_s"},
    {"snapshot.load", "snapshot.load_s"},
    {"context.push", "context.push_s"},
    {"context.pop", "context.pop_s"},
    {"herbie.sample", "herbie.sample_s"},
    {"herbie.eval", "herbie.eval_s"},
    {"pointsto.query", "pointsto.query_s"},
    {"pointsto.readout", "pointsto.readout_s"},
};

/// Linear-interpolated quantile \p Q of \p Values (0.5 is the median).
double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  double Pos = Q * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// Derives the ratio metrics from the summed counters of one repetition.
void addRatios(std::map<std::string, double> &L) {
  L["index.hit_ratio"] =
      ratio(L["index.hits"], L["index.hits"] + L["index.builds"] +
                                 L["index.refreshes"] +
                                 L["index.derivations"]);
  L["engine.new_tuples_per_match"] =
      ratio(L["_engine.new_tuples"], L["engine.matches"]);
  L["extract.rows_per_tuple"] =
      ratio(L["extract.rows_considered"], L["_extract.refreshed_tuples"]);
}

std::unique_ptr<Workload> makeWorkload(const std::string &Name) {
  if (Name == "pointsto")
    return makePointsTo();
  if (Name == "eqsat-math")
    return makeEqsatMath();
  if (Name == "herbie")
    return makeHerbie();
  if (Name == "session")
    return makeSession();
  return nullptr;
}

struct Args {
  std::string Workload, WorkDir = ".";
  uint32_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return false;
    const char *Value = Argv[++I];
    if (Flag == "--workload")
      A.Workload = Value;
    else if (Flag == "--seed")
      A.Seed = static_cast<uint32_t>(std::strtoul(Value, nullptr, 10));
    else if (Flag == "--seconds")
      A.Seconds = std::atof(Value);
    else if (Flag == "--trace")
      A.Trace = std::atoi(Value) != 0;
    else if (Flag == "--workdir")
      A.WorkDir = Value;
    else
      return false;
  }
  return !A.Workload.empty() && A.Seconds > 0;
}

std::string jsonObject(const std::map<std::string, std::string> &Fields) {
  std::string Out = "{";
  for (const auto &[Key, Value] : Fields)
    Out += (Out.size() > 1 ? ", \"" : "\"") + Key + "\": " + Value;
  return Out + "}";
}

std::string quoted(const std::string &S) { return "\"" + S + "\""; }

std::string number(double V) {
  char Buffer[40];
  std::snprintf(Buffer, sizeof(Buffer), "%.17g", V);
  return Buffer;
}

#ifdef EGGLOG_FAILPOINTS_ENABLED
constexpr bool FailpointsCompiled = true;
#else
constexpr bool FailpointsCompiled = false;
#endif

} // namespace

int main(int Argc, char **Argv) {
  if (Argc == 2 && std::strcmp(Argv[1], "--selftest") == 0)
    return pointsToSelfTest();
  Args A;
  std::unique_ptr<Workload> W;
  if (!parseArgs(Argc, Argv, A) || !(W = makeWorkload(A.Workload))) {
    std::fprintf(stderr,
                 "usage: egglog_perfbench --workload "
                 "pointsto|eqsat-math|herbie|session --seed N --seconds S "
                 "--trace 0|1 [--workdir DIR]\n"
                 "       egglog_perfbench --selftest\n");
    return 2;
  }
  const unsigned Threads = 1;
  unsigned Cores = std::max(1u, std::thread::hardware_concurrency());

  Clock::time_point PrepStart = Clock::now();
  if (!W->prepare(A.Seed, A.WorkDir)) {
    std::fprintf(stderr, "egglog_perfbench: could not prepare %s\n",
                 A.Workload.c_str());
    return 1;
  }
  double PrepSeconds = secondsSince(PrepStart);

  // The measured loop. In traced mode, untraced and traced repetitions
  // alternate so both see the same host conditions.
  Tracer T;
  std::vector<Rep> Plain, Traced;
  std::vector<int> TracedIds;
  std::vector<double> RefSeconds, PlainCpu, TracedCpu;
  std::vector<std::string> Problems;
  std::map<std::string, std::string> Outputs;
  uint64_t Attempted = 0, Failed = 0;
  auto Absorb = [&](const Rep &R) {
    Attempted += R.Attempted;
    Failed += R.Failed;
    for (const std::string &E : R.Errors)
      Problems.push_back(E);
    if (Outputs.empty())
      Outputs = R.Outputs;
    else if (Outputs != R.Outputs)
      Problems.push_back("outputs differ between repetitions");
  };

  double StealStart = hostStealSeconds();
  Clock::time_point LoopStart = Clock::now();
  double Slowest = 0, PeakRss = 0;
  const size_t MinReps = A.Trace ? 2 : 3;
  for (int Index = 0;; ++Index) {
    size_t Done = Plain.size() + Traced.size();
    bool HaveBoth = !A.Trace || (!Plain.empty() && !Traced.empty());
    if (Done >= MinReps && HaveBoth &&
        secondsSince(LoopStart) + Slowest > A.Seconds)
      break;
    RefSeconds.push_back(referenceKernelSeconds());
    bool TraceThis = A.Trace && Index % 2 == 1;
    T.setRun(Index);
    double Cpu = processCpuSeconds();
    Clock::time_point RepStart = Clock::now();
    Rep R = W->run(TraceThis ? &T : nullptr, Threads);
    Slowest = std::max(Slowest, secondsSince(RepStart));
    // Peak RSS as of the first repetition. Later repetitions repeat the
    // same work and only add allocator history; the process-lifetime
    // peak ranged 268-290 MiB over eqsat-math seeds whose graphs are
    // isomorphic.
    if (Index == 0)
      PeakRss = peakRssMb();
    Cpu = processCpuSeconds() - Cpu;
    std::fprintf(stderr,
                 "repetition %d%s: setup %.4f solve %.4f answer %.4f total "
                 "%.4f cpu %.4f ref %.4f\n",
                 Index, TraceThis ? " (traced)" : "", R.SetupS, R.SolveS,
                 R.AnswerS, R.TotalS, Cpu, RefSeconds.back());
    Absorb(R);
    if (TraceThis) {
      Traced.push_back(std::move(R));
      TracedIds.push_back(Index);
      TracedCpu.push_back(Cpu);
    } else {
      Plain.push_back(std::move(R));
      PlainCpu.push_back(Cpu);
    }
    if (!Problems.empty())
      break; // A wrong answer is not worth timing further.
  }
  double Steal = hostStealSeconds() - StealStart;

  std::map<std::string, double> Metrics;
  std::map<std::string, const char *> Units;
  auto QuantileOf = [](const std::vector<Rep> &Reps, double Rep::*Field,
                       double Q) {
    std::vector<double> V;
    for (const Rep &R : Reps)
      V.push_back(R.*Field);
    return quantile(V, Q);
  };
  auto MedianOf = [&](const std::vector<Rep> &Reps, double Rep::*Field) {
    return QuantileOf(Reps, Field, 0.5);
  };

  if (!A.Trace) {
    // setup_s is the median over the repetitions (the gate on it compares
    // medians between commits only). The other times are the upper
    // quartile: the host this was tuned on alternates between a dominant
    // slow state and bursts ~25% faster lasting 10-30 s, so a run's
    // median depends on how much of it fell in a burst, while its upper
    // quartile tracks the dominant state (spread across 33 s windows of a
    // fixed CPU loop: 0.14 for the median, 0.06 for the upper quartile).
    // A slower code path moves every repetition, and so the quartile, the
    // same way.
    Metrics["setup_s"] = MedianOf(Plain, &Rep::SetupS);
    Metrics["solve_s"] = QuantileOf(Plain, &Rep::SolveS, 0.75);
    Metrics["answer_s"] = QuantileOf(Plain, &Rep::AnswerS, 0.75);
    Metrics["total_s"] = QuantileOf(Plain, &Rep::TotalS, 0.75);
    Metrics["peak_rss_mb"] = PeakRss;
    Units = {{"setup_s", "s"},
             {"solve_s", "s"},
             {"answer_s", "s"},
             {"total_s", "s"},
             {"peak_rss_mb", "MiB"}};
  } else {
    // Per-layer values: medians over the traced repetitions of the layers'
    // counters and of the spans' summed durations.
    std::map<std::string, std::vector<double>> Samples;
    for (size_t I = 0; I < Traced.size(); ++I) {
      std::map<std::string, double> L = Traced[I].Layer;
      for (const auto &[SpanName, Metric] : SpanMetrics)
        L[Metric] = T.total(SpanName, TracedIds[I]);
      addRatios(L);
      L["proc.cpu_s"] = TracedCpu[I];
      for (const auto &[Key, Value] : L)
        Samples[Key].push_back(Value);
    }
    for (const auto &[Name, Unit] : LayerMetrics) {
      Metrics[Name] = median(Samples[Name]);
      Units[Name] = Unit;
    }
    Metrics["host.steal_s"] = Steal;
    Metrics["host.ref_s"] = median(RefSeconds);
    Metrics["trace.overhead_s"] =
        MedianOf(Traced, &Rep::TotalS) - MedianOf(Plain, &Rep::TotalS);

    // ROADMAP item 2 evidence: the same points-to repetition with the
    // phase-separated pipeline at four threads (not gated).
    if (A.Workload == "pointsto" && Problems.empty()) {
      unsigned Wide = std::min(4u, Cores);
      Rep R = W->run(nullptr, Wide);
      Absorb(R);
      Metrics["engine.t4.match_s"] = R.Layer["engine.match_s"];
      Metrics["engine.t4.apply_s"] = R.Layer["engine.apply_s"];
      Metrics["engine.t4.apply_stage_s"] = R.Layer["engine.apply_stage_s"];
      Metrics["engine.t4.rebuild_s"] = R.Layer["engine.rebuild_s"];
      Metrics["engine.t4.warm_s"] = R.Layer["engine.warm_s"];
      Metrics["engine.t4.total_s"] = R.TotalS;
      std::printf("pointsto at %u threads: total %.4f s (1 thread: %.4f s)\n",
                  Wide, R.TotalS, MedianOf(Plain, &Rep::TotalS));
    }

    if (!TracedIds.empty())
      T.printSelfTimes(TracedIds.front());
    std::printf("tracing overhead: %+.4f s on total_s (traced %.4f s, "
                "untraced %.4f s, medians of %zu and %zu repetitions)\n",
                Metrics["trace.overhead_s"], MedianOf(Traced, &Rep::TotalS),
                MedianOf(Plain, &Rep::TotalS), Traced.size(), Plain.size());
    std::string TracePath = A.WorkDir + "/trace-" + A.Workload + "-seed" +
                            std::to_string(A.Seed) + ".jsonl";
    if (T.write(TracePath))
      std::printf("spans written to %s (%zu spans)\n", TracePath.c_str(),
                  T.spans().size());
  }

  // Run environment and host drift, recorded with every run.
  std::printf("env: %s\n", jsonObject({{"workload", quoted(A.Workload)},
                   {"seed", std::to_string(A.Seed)},
                   {"trace", A.Trace ? "1" : "0"},
                   {"compiler", quoted(PB_COMPILER)},
                   {"build_type", quoted(PB_BUILD_TYPE)},
                   {"failpoints", FailpointsCompiled ? "true" : "false"},
                   {"nproc", std::to_string(Cores)},
                   {"engine_threads", std::to_string(Threads)},
                   {"prepare_s", number(PrepSeconds)},
                   {"repetitions", std::to_string(Plain.size() +
                                                  Traced.size())},
                   {"proc.cpu_s", number(median(PlainCpu.empty()
                                                    ? TracedCpu
                                                    : PlainCpu))},
                   {"host.steal_s", number(Steal)},
                   {"host.ref_s", number(median(RefSeconds))}})
                               .c_str());
  std::map<std::string, std::string> OutputFields;
  for (const auto &[Key, Value] : Outputs)
    OutputFields[Key] = quoted(Value);
  std::printf("outputs: %s\n", jsonObject(OutputFields).c_str());

  for (const std::string &P : Problems)
    std::fprintf(stderr, "check failed: %s\n", P.c_str());
  bool Correct = Problems.empty() && Failed == 0;

  std::map<std::string, std::string> MetricFields;
  for (const auto &[Name, Value] : Metrics)
    MetricFields[Name] = "{\"value\": " + number(Value) +
                         ", \"unit\": " + quoted(Units[Name]) + "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed),
              jsonObject(MetricFields).c_str());
  return 0;
}
