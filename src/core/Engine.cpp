//===- core/Engine.cpp - Fixpoint rule engine --------------------------------===//
//
// Part of egglog-cpp. See Engine.h for an overview.
//
//===----------------------------------------------------------------------===//

#include "core/Engine.h"

#include "core/Query.h"
#include "support/FailPoints.h"
#include "support/Governor.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <thread>

using namespace egglog;

// Out of line so Engine.h can hold ThreadPool behind a forward
// declaration.
Engine::Engine(EGraph &Graph) : Graph(Graph) {
  RulesetNames.push_back(""); // the default ruleset
}
Engine::~Engine() = default;

void Engine::setThreads(unsigned N) {
  // Clamp to a sane span: spawning threads far beyond the hardware only
  // adds scheduling overhead, and an absurd request (every entry point —
  // set-option, --threads flags, direct API — funnels through here) must
  // not make ThreadPool's constructor throw on resource exhaustion.
  unsigned Hardware = std::thread::hardware_concurrency();
  unsigned Cap = std::max(8u, 4 * Hardware); // hardware_concurrency may be 0
  NumThreads = std::clamp(N, 1u, std::min(Cap, 256u));
  // A differently-sized pool is recreated lazily by the next run.
  if (Pool && Pool->threads() != NumThreads)
    Pool.reset();
}

namespace {

/// True if every primitive computation in \p Q is read-only, so the
/// query's join may run concurrently with others. Classified
/// conservatively by signature: a primitive whose output is interned
/// (string / rational / set) mutates the interners, and one taking an id
/// or container argument may canonicalize (union-find path-compression
/// writes, set re-interning). Rules failing this join in the serial
/// prelude of the match phase.
bool queryIsParallelSafe(const EGraph &G, const Query &Q) {
  for (const PrimComputation &P : Q.Prims) {
    const Primitive &Prim = G.primitives().get(P.Prim);
    switch (G.sorts().kind(Prim.OutSort)) {
    case SortKind::Unit:
    case SortKind::Bool:
    case SortKind::I64:
    case SortKind::F64:
      break;
    default:
      return false;
    }
    for (SortId Arg : Prim.ArgSorts) {
      SortKind Kind = G.sorts().kind(Arg);
      if (Kind == SortKind::User || Kind == SortKind::Set)
        return false;
    }
  }
  return true;
}

/// The full (non-incremental) search's filters: every atom unrestricted.
const std::vector<AtomFilter> NoFilters;

} // namespace

size_t Engine::addRule(Rule R) {
  assert(R.Ruleset < RulesetNames.size() && "rule names an unknown ruleset");
  const Query &Body = Rules.emplace_back(std::move(R)).Body;
  States.push_back(RuleState{});
  // A rule always has slot 0, the full search's context.
  size_t NumAtoms = Body.Atoms.size();
  RuleExecutors &Exec = Executors.emplace_back();
  Exec.Variants.resize(std::max<size_t>(1, NumAtoms));
  for (size_t V = 0; V < NumAtoms; ++V)
    makeDeltaVariantFilters(Exec.Variants[V].Filters, V, NumAtoms);
  Exec.ParallelSafe = queryIsParallelSafe(Graph, Body);
  return Rules.size() - 1;
}

RulesetId Engine::declareRuleset(const std::string &Name) {
  assert(!Name.empty() && "the default ruleset has no name");
  assert(RulesetIds.find(Name) == RulesetIds.end() && "ruleset redeclared");
  RulesetId Id = static_cast<RulesetId>(RulesetNames.size());
  RulesetNames.push_back(Name);
  RulesetIds.emplace(Name, Id);
  return Id;
}

bool Engine::lookupRuleset(const std::string &Name, RulesetId &Out) const {
  if (Name.empty()) {
    Out = 0;
    return true;
  }
  auto It = RulesetIds.find(Name);
  if (It == RulesetIds.end())
    return false;
  Out = It->second;
  return true;
}

void Engine::fastForwardBans(RulesetId Ruleset) {
  uint64_t Earliest = UINT64_MAX;
  for (size_t R = 0; R < Rules.size(); ++R)
    if (Rules[R].Ruleset == Ruleset && GlobalIteration < States[R].BannedUntil)
      Earliest = std::min(Earliest, States[R].BannedUntil);
  if (Earliest == UINT64_MAX)
    return;
  // Shift this ruleset's bans earlier by the dead time instead of
  // advancing the shared iteration clock: other rulesets' bans must keep
  // suppressing their rules for the full span of *actual* iterations.
  // step() pre-increments GlobalIteration, so an expiry of
  // GlobalIteration + 1 makes the earliest-banned rule runnable in the
  // very next iteration; relative expiry order within the ruleset is
  // preserved.
  uint64_t Dead = Earliest - (GlobalIteration + 1);
  if (Dead == 0)
    return;
  for (size_t R = 0; R < Rules.size(); ++R)
    if (Rules[R].Ruleset == Ruleset && GlobalIteration < States[R].BannedUntil)
      States[R].BannedUntil -= Dead;
}

bool Engine::step(const RunOptions &Options, const Deadline &Due,
                  RunReport &Report, bool &AnyBanned) {
  ++GlobalIteration;
  IterationStats Stats;
  Timer Phase;
  EGGLOG_FAILPOINT("engine.iter");
  // Ends the iteration early (governor trip, timeout, database failure)
  // with its partial stats on record.
  auto StopHere = [&] {
    Report.Iterations.push_back(Stats);
    return false;
  };
  const ResourceGovernor &Gov = Graph.governor();

  auto RuleThreshold = [&](size_t R) {
    // BackOff threshold: collection aborts as soon as a rule exceeds it
    // (the matches would be dropped anyway, and collecting them all can
    // exhaust memory on explosive rule sets).
    return Options.UseBackoff
               ? (Options.BackoffMatchLimit << States[R].TimesBanned)
               : UINT64_MAX;
  };

  //=== Match phase: one work item per (rule, delta variant). ==============
  // Each item collects its matches into a flat arena (the Bits of NumVars
  // values per match; the rule's VarSorts give their sorts); the apply
  // phase drains the items in (rule declaration, variant, match) order,
  // so the database mutation order — and with it every fresh id and
  // liveContentHash — is independent of the thread count. Rules outside
  // the selected ruleset are skipped entirely; their DeltaStart stays put,
  // so when their ruleset next runs, the delta covers everything that
  // happened in between (phased schedules stay semi-naïve-correct).
  struct WorkItem {
    size_t Rule = 0;
    QueryExecutor *Exec = nullptr;
    /// Per-atom delta restriction; empty = unrestricted (the full,
    /// non-incremental search).
    const std::vector<AtomFilter> *Filters = &NoFilters;
    uint32_t Bound = 0;
    std::vector<uint64_t> Arena;
    size_t Count = 0;
    /// Share of Count already added to the rule's shared counter (for
    /// cross-variant BackOff cancellation).
    uint64_t Published = 0;
    /// Share of the arena's capacity, in bytes, already added to
    /// ArenaBytes (for the byte ceiling).
    size_t PublishedBytes = 0;
  };
  std::vector<WorkItem> Items; // (rule, variant) ascending
  Items.reserve(Rules.size());
  for (size_t R = 0; R < Rules.size(); ++R) {
    if (Rules[R].Ruleset != Options.Ruleset)
      continue;
    RuleState &State = States[R];
    if (Options.UseBackoff && GlobalIteration < State.BannedUntil) {
      AnyBanned = true;
      continue;
    }
    const Query &Body = Rules[R].Body;
    // One delta variant per atom (§4.3), or the single full search.
    bool Incremental =
        Options.SemiNaive && State.DeltaStart > 0 && !Body.Atoms.empty();
    size_t NumVariants = Incremental ? Body.Atoms.size() : 1;
    for (size_t V = 0; V < NumVariants; ++V) {
      WorkItem Item;
      Item.Rule = R;
      Variant &Var = Executors[R].Variants[V];
      if (!Var.Exec)
        Var.Exec = std::make_unique<QueryExecutor>(Graph, Body);
      Item.Exec = Var.Exec.get();
      if (Incremental) {
        Item.Bound = State.DeltaStart;
        Item.Filters = &Var.Filters;
      }
      Items.push_back(std::move(Item));
    }
  }

  // Per-rule match totals shared by the rule's variants. Publish adds an
  // item's not yet counted matches and returns the rule's total so far.
  auto RuleCounts = std::make_unique<std::atomic<uint64_t>[]>(Rules.size());
  auto Publish = [&](WorkItem &Item) {
    uint64_t Unpublished = Item.Count - Item.Published;
    Item.Published = Item.Count;
    return RuleCounts[Item.Rule].fetch_add(Unpublished,
                                           std::memory_order_relaxed) +
           Unpublished;
  };
  // The byte ceiling counts the match arenas on top of the graph. Joins
  // only read the graph, so its bytes are taken once, after prepare; each
  // item adds its arena's capacity growth to one shared counter. The
  // counter never falls during the phase, so a join the ceiling stopped is
  // still over it when governorTripped() looks after the join.
  const size_t MaxBytes = Gov.maxBytes();
  size_t GraphBytes = 0;
  std::atomic<size_t> ArenaBytes{0};
  auto PublishBytes = [&](WorkItem &Item) {
    size_t Growth = Item.Arena.capacity() * sizeof(uint64_t) -
                    Item.PublishedBytes;
    Item.PublishedBytes += Growth;
    return ArenaBytes.fetch_add(Growth) + Growth;
  };
  auto ItemCancelled = [&](WorkItem &Item) {
    EGGLOG_FAILPOINT("match.step");
    if (expired(Due) || Gov.pollQuick() != GovernorVerdict::Ok)
      return true;
    if (MaxBytes && GraphBytes + PublishBytes(Item) > MaxBytes)
      return true;
    // Sibling variants of an over-matching rule abort too. The ban
    // decision stays deterministic: an abort fires only once the
    // published total exceeds the threshold, and then the final total —
    // published counts only ever grow — exceeds it as well.
    uint64_t Threshold = RuleThreshold(Item.Rule);
    return Threshold != UINT64_MAX && Publish(Item) > Threshold;
  };
  auto RunItem = [&](WorkItem &Item) {
    uint64_t Threshold = RuleThreshold(Item.Rule);
    // Out of time, or a sibling variant already pushed the rule over its
    // BackOff threshold (its matches are dropped anyway): skip the item.
    if (expired(Due) ||
        RuleCounts[Item.Rule].load(std::memory_order_relaxed) > Threshold)
      return;
    // Two references: small enough for std::function's inline storage.
    std::function<bool()> Cancel = [&Item, &ItemCancelled] {
      return ItemCancelled(Item);
    };
    Item.Exec->join(Item.Arena, Item.Count, &Cancel);
    if (MaxBytes)
      PublishBytes(Item);
    // Publish the remainder, so a later sibling variant of an
    // over-matching rule is skipped outright; once the rule is over its
    // threshold its matches will be dropped, so free them now (Count
    // stays for the ban decision).
    if (Publish(Item) > Threshold)
      std::vector<uint64_t>().swap(Item.Arena);
  };

  // Prepare, on this thread and in item order: every lazy database-side
  // step of the match phase (partition counts, index builds and
  // refreshes, constant canonicalization). After this the tables and
  // their index caches stay untouched until apply, so the joins below
  // only read them.
  for (WorkItem &Item : Items)
    Item.Exec->prepare(*Item.Filters, Item.Bound);
  if (MaxBytes)
    GraphBytes = Graph.approxBytes();
  Stats.WarmSeconds = Phase.seconds();
  // Join. Rules whose query primitives may intern values or
  // canonicalize ids (see queryIsParallelSafe) write structures other
  // joins read, so they join first, here on this thread, in declaration
  // order — which also keeps their interning order deterministic. The
  // rest go to the pool, which at one thread runs them inline and in
  // order.
  std::vector<size_t> PoolItems;
  PoolItems.reserve(Items.size());
  for (size_t I = 0; I < Items.size(); ++I) {
    if (Executors[Items[I].Rule].ParallelSafe)
      PoolItems.push_back(I);
    else
      RunItem(Items[I]);
  }
  Pool->parallelFor(PoolItems.size(),
                    [&](size_t K) { RunItem(Items[PoolItems[K]]); });
  Stats.SearchSeconds = Phase.seconds();
  // Governor trips are hard stops (ErrKind::Limit, command rolls back),
  // unlike the RunOptions deadline below, a graceful partial-result stop
  // before any of this iteration's matches is applied. The byte ceiling
  // counts the arenas here too, so a join it stopped reports MemoryLimit.
  if (Graph.governorTripped(ArenaBytes.load()))
    return StopHere();
  if (expired(Due)) {
    Report.TimedOut = true;
    return StopHere();
  }

  //=== Apply phase: the only phase that mutates the database. =============
  // Items drain in (rule, variant, match) order whatever the thread
  // count, so mutation order cannot depend on it. Each rule's items are
  // one run: their total decides BackOff first. A rule over its threshold
  // has its matches dropped and is banned; its DeltaStart is left
  // untouched so the dropped work is re-derived after the ban.
  Phase.reset();
  uint32_t NextDeltaStart = Graph.timestamp() + 1;
  Graph.bumpTimestamp();
  std::vector<Value> Env;
  for (size_t First = 0, Last = 0; First < Items.size(); First = Last) {
    size_t R = Items[First].Rule;
    uint64_t Total = 0;
    for (Last = First; Last < Items.size() && Items[Last].Rule == R; ++Last)
      Total += Items[Last].Count;
    RuleState &State = States[R];
    if (Total > RuleThreshold(R)) {
      uint64_t BanSpan = Options.BackoffBanLength << State.TimesBanned;
      State.BannedUntil = GlobalIteration + BanSpan;
      ++State.TimesBanned;
      AnyBanned = true;
      for (size_t I = First; I < Last; ++I)
        std::vector<uint64_t>().swap(Items[I].Arena);
      continue;
    }
    State.DeltaStart = NextDeltaStart;
    Stats.Matches += Total;
    const Rule &TheRule = Rules[R];
    const std::vector<SortId> &VarSorts = TheRule.Body.VarSorts;
    size_t Stride = TheRule.Body.NumVars;
    for (size_t I = First; I < Last; ++I) {
      const WorkItem &Item = Items[I];
      for (size_t M = 0; M < Item.Count; ++M) {
        if (!Graph.governorCheckpoint("apply.match"))
          return StopHere();
        // The match's values, then default slots for the action lets.
        const uint64_t *Match = Item.Arena.data() + M * Stride;
        Env.assign(TheRule.NumSlots, Value());
        for (size_t V = 0; V < Stride; ++V)
          Env[V] = Value(VarSorts[V], Match[V]);
        if (!Graph.runActions(TheRule.Actions, Env)) {
          if (Graph.failed())
            return StopHere();
          // A failed action (e.g. primitive failure) only abandons this
          // match, mirroring guarded rewrites.
          Graph.clearError();
        }
      }
    }
  }
  Stats.ApplySeconds = Phase.seconds();

  //=== Rebuild phase: restore congruence and canonical form. ==============
  Phase.reset();
  Stats.RebuildPasses = Graph.rebuild();
  Stats.RebuildSeconds = Phase.seconds();
  if (Graph.failed())
    return StopHere();

  Stats.TuplesAfter = Graph.liveTupleCount();
  Stats.UnionsAfter = Graph.unionFind().unionCount();
  Report.Iterations.push_back(Stats);
  return true;
}

//===----------------------------------------------------------------------===
// Schedule interpretation
//===----------------------------------------------------------------------===

namespace {

/// Safety valve for (saturate ...) over schedules that never converge and
/// carry no timeout or node limit. Generous: real workloads either
/// saturate or trip a limit long before this.
constexpr size_t MaxSaturatePasses = 1 << 20;

} // namespace

bool Engine::runScheduleNode(const Schedule &S, const RunOptions &Base,
                             RunReport &Total, const Deadline &Due,
                             bool &Stop) {
  if (Stop)
    return false;

  switch (S.ScheduleKind) {
  case Schedule::Kind::Run: {
    RunOptions Opts = Base;
    Opts.Ruleset = S.Ruleset;
    // Top-level unions between runs leave the database non-canonical;
    // queries and :until facts require canonical form.
    if (Graph.needsRebuild())
      Graph.rebuild();
    // Progress is judged on the live content (the O(1) content hash the
    // tables maintain) plus the union count, never on row counts: dead-row
    // churn — a kill and re-append of identical content — is no progress,
    // while a merge that changes an output in place is.
    uint64_t LeafHash = Graph.liveContentHash();
    uint64_t LeafUnions = Graph.unionFind().unionCount();
    bool LeafSaturated = false;
    bool GoalMet = false;
    bool AnyBanned = false;
    for (unsigned Iter = 0; Iter < S.Times && !Graph.failed(); ++Iter) {
      if (!S.Until.empty() &&
          std::all_of(S.Until.begin(), S.Until.end(),
                      [&](const CheckFact &F) { return Graph.checkFact(F); })) {
        GoalMet = true;
        break;
      }
      uint64_t Hash = Graph.liveContentHash();
      uint64_t Unions = Graph.unionFind().unionCount();
      AnyBanned = false;
      if (!step(Opts, Due, Total, AnyBanned))
        break;
      if (!AnyBanned && Graph.liveContentHash() == Hash &&
          Graph.unionFind().unionCount() == Unions) {
        LeafSaturated = true;
        break;
      }
      if (Opts.NodeLimit && Graph.liveTupleCount() > Opts.NodeLimit) {
        Total.HitNodeLimit = true;
        break;
      }
      if (expired(Due)) {
        Total.TimedOut = true;
        break;
      }
    }
    if (Total.TimedOut || Total.HitNodeLimit || Graph.failed())
      Stop = true;
    // This leaf's fixpoint verdict stands when it is the whole schedule;
    // enclosing combinators overwrite it with their own.
    Total.Saturated = LeafSaturated;

    bool ContentChanged = Graph.liveContentHash() != LeafHash ||
                          Graph.unionFind().unionCount() != LeafUnions;
    // Pending BackOff bans count as progress so an enclosing saturate
    // keeps going (the dropped matches are pending) — except when the
    // :until goal is met, which ends this leaf's work regardless. When
    // only bans are pending, skip the dead time until the next expiry.
    bool BansPending = !GoalMet && AnyBanned;
    if (!ContentChanged && BansPending)
      fastForwardBans(S.Ruleset);
    return ContentChanged || BansPending;
  }

  case Schedule::Kind::Seq: {
    bool Updated = false;
    for (const Schedule &Child : S.Children) {
      Updated |= runScheduleNode(Child, Base, Total, Due, Stop);
      if (Stop)
        break;
    }
    // A multi-child sequence proves no whole-schedule fixpoint of its own
    // (a later leaf saturating says nothing about earlier ones);
    // runSchedule's !Updated check supplies the verdict for the provable
    // case. A single-child seq — e.g. the implicit (run-schedule ...)
    // wrapper — is transparent: its child's verdict stands.
    if (S.Children.size() != 1)
      Total.Saturated = false;
    return Updated;
  }

  case Schedule::Kind::Repeat:
  case Schedule::Kind::Saturate: {
    size_t Passes = S.ScheduleKind == Schedule::Kind::Repeat
                        ? S.Times
                        : MaxSaturatePasses;
    bool Updated = false;
    bool Converged = false;
    for (size_t Pass = 0; Pass < Passes && !Stop; ++Pass) {
      bool PassUpdated = false;
      for (const Schedule &Child : S.Children) {
        PassUpdated |= runScheduleNode(Child, Base, Total, Due, Stop);
        if (Stop)
          break;
      }
      Updated |= PassUpdated;
      if (!PassUpdated && !Stop) {
        // A whole pass without updates (and no bans pending) is a fixpoint
        // of the repeated body, so further passes cannot change anything;
        // a leaf's own verdict covers only its ruleset.
        Converged = true;
        break;
      }
    }
    Total.Saturated = Converged;
    return Updated;
  }
  }
  return false;
}

RunReport Engine::run(const RunOptions &Options) {
  return runSchedule(Schedule::makeRun(Options.Ruleset, Options.Iterations),
                     Options);
}

RunReport Engine::runSchedule(const Schedule &S, const RunOptions &Options) {
  Timer Clock;
  Deadline Due = deadlineAfter(Options.TimeoutSeconds);
  if (!Pool)
    Pool = std::make_unique<ThreadPool>(NumThreads);

  RunReport Total;
  bool Stop = false;
  bool Updated = runScheduleNode(S, Options, Total, Due, Stop);
  // A schedule that ran to completion without a final update has reached a
  // fixpoint of its body.
  if (!Stop && !Updated)
    Total.Saturated = true;
  Total.TotalSeconds = Clock.seconds();
  return Total;
}

//===----------------------------------------------------------------------===
// Push/pop contexts
//===----------------------------------------------------------------------===

Engine::Snapshot Engine::snapshot() const {
  Snapshot S;
  S.NumRules = Rules.size();
  S.NumRulesets = RulesetNames.size();
  S.States = States;
  S.GlobalIteration = GlobalIteration;
  return S;
}

void Engine::restore(const Snapshot &S) {
  assert(S.NumRules <= Rules.size() && S.NumRules == S.States.size() &&
         "snapshot is from a different engine");
  // The dropped rules' executors reference their Query objects: drop them
  // first. The surviving rules keep theirs, and no rule moves.
  Executors.resize(S.NumRules);
  Rules.resize(S.NumRules);
  States = S.States;
  for (size_t Id = RulesetNames.size(); Id > S.NumRulesets; --Id)
    RulesetIds.erase(RulesetNames[Id - 1]);
  RulesetNames.resize(S.NumRulesets);
  GlobalIteration = S.GlobalIteration;
}
