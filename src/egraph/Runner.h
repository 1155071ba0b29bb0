//===- egraph/Runner.h - Classic EqSat runner ------------------*- C++ -*-===//
//
// Part of egglog-cpp. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The equality-saturation loop for the classic e-graph: search all
/// rewrites, apply the matches, rebuild; with egg's BackOff scheduler
/// (rules that over-match are banned for exponentially growing spans).
/// This is the `egg` baseline driver for Fig. 7.
///
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_EGRAPH_RUNNER_H
#define EGGLOG_EGRAPH_RUNNER_H

#include "egraph/Matcher.h"

#include <string>
#include <vector>

namespace egglog {
namespace classic {

/// A rewrite rule: lhs pattern => rhs pattern over shared variables.
struct Rewrite {
  std::string Name;
  Pattern Lhs;
  Pattern Rhs;
};

/// Scheduler and iteration knobs (mirroring egg's Runner / BackoffScheduler
/// defaults).
struct RunnerOptions {
  unsigned Iterations = 30;
  bool UseBackoff = true;
  uint64_t BackoffMatchLimit = 1000;
  uint64_t BackoffBanLength = 5;
  size_t NodeLimit = 0;
  double TimeoutSeconds = 0;
};

/// Per-iteration statistics for the growth curves of Fig. 7.
struct RunnerIteration {
  size_t Matches = 0;
  size_t ENodes = 0;
  size_t Classes = 0;
  double SearchSeconds = 0;
  double ApplySeconds = 0;
  double RebuildSeconds = 0;
};

/// Result of a run.
struct RunnerReport {
  std::vector<RunnerIteration> Iterations;
  bool Saturated = false;
  bool HitNodeLimit = false;
  bool TimedOut = false;
  double TotalSeconds = 0;
};

/// Drives equality saturation over a classic e-graph.
class Runner {
public:
  explicit Runner(EGraphClassic &Graph) : Graph(Graph) {}

  /// Adds a rewrite parsed from pattern strings, e.g.
  /// addRewrite("comm-add", "(+ ?a ?b)", "(+ ?b ?a)"). Returns false on a
  /// malformed pattern or unbound right-hand variable.
  bool addRewrite(const std::string &Name, const std::string &Lhs,
                  const std::string &Rhs);

  /// Runs until iteration/size/time limits or saturation.
  RunnerReport run(const RunnerOptions &Options);

  EGraphClassic &graph() { return Graph; }

private:
  struct RewriteState {
    uint64_t BannedUntil = 0;
    unsigned TimesBanned = 0;
  };

  EGraphClassic &Graph;
  std::vector<Rewrite> Rewrites;
  std::vector<RewriteState> States;
  uint64_t GlobalIteration = 0;
};

} // namespace classic
} // namespace egglog

#endif // EGGLOG_EGRAPH_RUNNER_H
