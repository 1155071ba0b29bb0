//===- core/Engine.h - Fixpoint rule engine --------------------*- C++ -*-===//
//
// Part of egglog-cpp. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fixpoint evaluation loop of §4.2/§4.3: each iteration applies the
/// (semi-naïve) immediate consequence operator — search all rules, then run
/// their actions — followed by rebuilding to a fixpoint. Includes the
/// BackOff rule scheduler used by the Fig. 7 micro-benchmark (mirroring
/// egg's default scheduler: rules that over-match are banned for
/// exponentially growing spans).
///
/// Rules are grouped into named *rulesets* (ruleset 0 is the default), and
/// runSchedule() interprets a Schedule tree (saturate / seq / repeat /
/// run-with-until) over them; its Run leaf is the only iteration loop, and
/// run() is a one-leaf schedule. Per-rule semi-naïve delta bounds and
/// BackOff bans live on the rule, not the run, so phased schedules
/// interleave rulesets without re-deriving or dropping work.
///
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_CORE_ENGINE_H
#define EGGLOG_CORE_ENGINE_H

#include "core/Ast.h"
#include "core/EGraph.h"
#include "core/Query.h"

#include <chrono>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace egglog {

class ThreadPool;

/// Knobs for one run of the engine.
struct RunOptions {
  /// Maximum number of iterations.
  unsigned Iterations = 1;
  /// The ruleset to run. Rules declared without a ruleset live in the
  /// default ruleset 0, so existing single-ruleset programs are unaffected.
  RulesetId Ruleset = 0;
  /// Use semi-naïve delta evaluation (§4.3); turning this off gives the
  /// egglogNI baseline of the paper's benchmarks.
  bool SemiNaive = true;
  /// Enable the BackOff scheduler (egg-compatible defaults below).
  bool UseBackoff = false;
  uint64_t BackoffMatchLimit = 1000;
  uint64_t BackoffBanLength = 5;
  /// Stop when total live tuples exceed this bound (0 = unlimited).
  size_t NodeLimit = 0;
  /// Stop after this many seconds (0 = unlimited): one deadline for the
  /// whole run or schedule, checked between match work items and after
  /// every iteration, never mid-apply.
  double TimeoutSeconds = 0;
};

/// Statistics for one engine iteration.
struct IterationStats {
  size_t Matches = 0;
  size_t TuplesAfter = 0;
  size_t UnionsAfter = 0;
  /// Whole match phase: prepare plus join. WarmSeconds below breaks out
  /// the prepare share.
  double SearchSeconds = 0;
  double ApplySeconds = 0;
  /// Always 0: apply runs serially. Kept so existing stats records keep
  /// their field.
  double ApplyStageSeconds = 0;
  double RebuildSeconds = 0;
  /// Serial prepare step of the match phase (partition counts, index
  /// builds and refreshes, constant canonicalization; see
  /// QueryExecutor::prepare), at every thread count. Named for the
  /// warm-up pass it replaced; the name stays because recorded stats and
  /// the benchmark read it.
  double WarmSeconds = 0;
  /// Worklist passes the rebuild took (0 = nothing was dirty).
  unsigned RebuildPasses = 0;
};

/// Result of a run.
struct RunReport {
  std::vector<IterationStats> Iterations;
  bool Saturated = false;
  bool HitNodeLimit = false;
  bool TimedOut = false;
  double TotalSeconds = 0;

  size_t totalMatches() const {
    size_t Total = 0;
    for (const IterationStats &Stats : Iterations)
      Total += Stats.Matches;
    return Total;
  }
};

/// Owns a rule set and drives iterations against an EGraph. Scheduler and
/// semi-naïve bookkeeping persist across runs so incremental programs
/// ((run 5) ... (run 5)) behave like one longer run.
class Engine {
public:
  // Out of line (with the destructor) so the ThreadPool member can stay a
  // forward declaration here.
  explicit Engine(EGraph &Graph);
  ~Engine();

  /// Sets the match-phase concurrency: with N > 1, each iteration's match
  /// work items are prepared serially and then joined over N workers
  /// (including the calling thread); apply and rebuild stay serial (see
  /// DESIGN.md "Parallel matching"). The resulting database is
  /// bit-identical for every N — matches are buffered per (rule, delta
  /// variant) and applied in declaration order.
  void setThreads(unsigned N);
  unsigned threads() const { return NumThreads; }

  /// Adds a rule (its Ruleset field selects the ruleset); returns its
  /// index.
  size_t addRule(Rule R);

  size_t numRules() const { return Rules.size(); }
  const Rule &rule(size_t Index) const { return Rules[Index]; }

  /// Declares a named ruleset; the name must be fresh and non-empty.
  RulesetId declareRuleset(const std::string &Name);

  /// Finds a ruleset by name (the empty name is the default ruleset).
  bool lookupRuleset(const std::string &Name, RulesetId &Out) const;

  size_t numRulesets() const { return RulesetNames.size(); }
  const std::string &rulesetName(RulesetId Id) const {
    return RulesetNames[Id];
  }

  /// Runs up to Options.Iterations iterations of Options.Ruleset: the
  /// one-leaf schedule (run ruleset n).
  RunReport run(const RunOptions &Options);

  /// Interprets a Schedule tree. A Run leaf iterates its ruleset up to
  /// Times times, checking its :until facts before every iteration, and
  /// stops once an iteration leaves the live content hash and union count
  /// unchanged with no BackOff bans pending (saturation); (saturate ...)
  /// loops its children until a whole pass makes no progress, and
  /// (repeat n ...) runs its children n times. Options.Ruleset is ignored
  /// (each leaf names its own); the other knobs apply to every leaf, with
  /// TimeoutSeconds one deadline for the whole schedule.
  RunReport runSchedule(const Schedule &S, const RunOptions &Options);

  EGraph &graph() { return Graph; }

  /// Per-rule scheduler and semi-naïve state (public only so Snapshot can
  /// carry it).
  struct RuleState {
    /// Rows stamped at or after this are this rule's pending delta.
    uint32_t DeltaStart = 0;
    /// BackOff: iteration (global counter) until which the rule is banned.
    uint64_t BannedUntil = 0;
    unsigned TimesBanned = 0;
  };

  /// A frozen copy of the engine-side state, paired with each EGraph
  /// transaction mark (per command and per (push) context): rules and
  /// rulesets declared since the snapshot are dropped on restore, and
  /// per-rule semi-naïve/BackOff state rolls back with the database.
  struct Snapshot {
    size_t NumRules = 0;
    size_t NumRulesets = 0;
    std::vector<RuleState> States;
    uint64_t GlobalIteration = 0;
  };

  Snapshot snapshot() const;
  void restore(const Snapshot &S);

private:
  EGraph &Graph;
  /// A deque, so adding or dropping rules never moves the surviving ones:
  /// each rule's executors reference its Query in place.
  std::deque<Rule> Rules;
  std::vector<RuleState> States;
  std::vector<std::string> RulesetNames;
  std::unordered_map<std::string, RulesetId> RulesetIds;
  /// Match-phase concurrency (see setThreads).
  unsigned NumThreads = 1;
  /// Worker pool for the match phase; created lazily by the first run and
  /// kept across runs (threads park between phases). A pool of one thread
  /// spawns none and runs every item inline.
  std::unique_ptr<ThreadPool> Pool;
  /// One semi-naïve delta variant of a rule: its per-atom filters and a
  /// persistent execution context, created on first use, so join scratch
  /// and atom shapes survive across iterations. Each variant has its own
  /// context because its prepared state must live until its join, and a
  /// rule's variants may join concurrently.
  struct Variant {
    std::vector<AtomFilter> Filters;
    std::unique_ptr<QueryExecutor> Exec;
  };
  /// What the engine derives from one rule. addRule builds it, and it
  /// lives exactly as long as the rule: restore() truncates it with Rules.
  struct RuleExecutors {
    /// One Variant per body atom; slot 0's context doubles as the full
    /// (non-incremental) search's.
    std::vector<Variant> Variants;
    /// True if every primitive in the rule's query is read-only (cannot
    /// intern values or canonicalize), so its joins may run on the pool;
    /// unsafe rules join serially before the pool's job.
    bool ParallelSafe = false;
  };
  /// Parallel to Rules.
  std::vector<RuleExecutors> Executors;

  /// Global iteration counter across runs (drives ban spans).
  uint64_t GlobalIteration = 0;

  /// Whether the schedule-wide RunOptions::TimeoutSeconds deadline, fixed
  /// when runSchedule starts, has passed.
  static bool expired(const Deadline &D) {
    return D && std::chrono::steady_clock::now() > *D;
  }

  /// One iteration of Options.Ruleset: match, apply, rebuild. Appends the
  /// iteration's stats to \p Report and sets \p AnyBanned if a rule of the
  /// ruleset was skipped or newly banned by BackOff (its matches are
  /// pending). Returns false if the iteration stopped early: on the
  /// deadline (setting Report.TimedOut), a governor trip, or a database
  /// failure.
  bool step(const RunOptions &Options, const Deadline &Due,
            RunReport &Report, bool &AnyBanned);

  /// BackOff fast-forward: when a leaf changed nothing because every
  /// matching rule of \p Ruleset is banned, advance the ruleset's bans to
  /// the earliest expiry instead of spinning empty iterations to tick them
  /// down one by one (as egg's BackoffScheduler does).
  void fastForwardBans(RulesetId Ruleset);

  /// Recursive schedule interpreter; returns true if the node updated the
  /// database (or left BackOff bans pending). Sets \p Stop on timeout,
  /// node limit, or database failure.
  bool runScheduleNode(const Schedule &S, const RunOptions &Base,
                       RunReport &Total, const Deadline &Due, bool &Stop);
};

} // namespace egglog

#endif // EGGLOG_CORE_ENGINE_H
