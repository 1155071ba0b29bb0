//===- core/Engine.cpp - Fixpoint rule engine --------------------------------===//
//
// Part of egglog-cpp. See Engine.h for an overview.
//
//===----------------------------------------------------------------------===//

#include "core/Engine.h"

#include "core/Query.h"
#include "support/FailPoints.h"
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

void Engine::ensureVariantExecutors() {
  if (VariantExecutors.size() == Rules.size())
    return;
  VariantExecutors.clear();
  VariantExecutors.reserve(Rules.size());
  RuleParallelSafe.clear();
  RuleParallelSafe.reserve(Rules.size());
  for (const Rule &R : Rules) {
    // A rule always has slot 0, the full search's context.
    size_t NumAtoms = R.Body.Atoms.size();
    std::vector<Variant> Variants(std::max<size_t>(1, NumAtoms));
    for (size_t V = 0; V < NumAtoms; ++V)
      makeDeltaVariantFilters(Variants[V].Filters, V, NumAtoms);
    VariantExecutors.push_back(std::move(Variants));
    RuleParallelSafe.push_back(queryIsParallelSafe(Graph, R.Body));
  }
}

size_t Engine::addRule(Rule R) {
  assert(R.Ruleset < RulesetNames.size() && "rule names an unknown ruleset");
  Rules.push_back(std::move(R));
  States.push_back(RuleState{});
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

uint64_t Engine::mutationStamp() const {
  uint64_t Stamp = Graph.unionFind().unionCount();
  for (size_t F = 0; F < Graph.numFunctions(); ++F)
    Stamp += Graph.function(F).Storage->version();
  return Stamp;
}

bool Engine::anyBanPending(RulesetId Ruleset) const {
  for (size_t R = 0; R < Rules.size(); ++R)
    if (Rules[R].Ruleset == Ruleset && GlobalIteration < States[R].BannedUntil)
      return true;
  return false;
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
  // run() pre-increments GlobalIteration, so an expiry of
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

uint64_t Engine::contentHashAt(uint64_t Stamp) {
  if (!CachedSigValid || CachedSigStamp != Stamp) {
    CachedSigHash = Graph.liveContentHash();
    CachedSigStamp = Stamp;
    CachedSigValid = true;
  }
  return CachedSigHash;
}

RunReport Engine::run(const RunOptions &Options) {
  RunReport Report;
  Timer Total;

  // (Re)create the execution contexts if rules were added since the last
  // run (Rules may have reallocated, invalidating the Query references
  // the executors hold; a size mismatch is the only way that happens —
  // restore() clears them outright).
  ensureVariantExecutors();
  if (!Pool)
    Pool = std::make_unique<ThreadPool>(NumThreads);

  // Top-level unions between runs leave the database non-canonical; queries
  // require canonical form.
  if (Graph.needsRebuild())
    Graph.rebuild();
  if (Graph.failed()) {
    Report.TotalSeconds = Total.seconds();
    return Report;
  }

  // Saturation detection compares the database's live content across an
  // iteration: live counts (not rowCount(), which includes dead rows) and,
  // only when the counts stall, an order-independent content hash.
  // Dead-row churn — a kill and re-append of identical live content —
  // cannot mask saturation, while a merge that changes an output (same
  // live count!) still registers as progress. The hash state persists on
  // the Engine, so it is recomputed only at candidate saturation points —
  // at worst one extra iteration runs before saturation is declared.
  size_t LiveBefore = Graph.liveTupleCount();
  uint64_t UnionsBefore = Graph.unionFind().unionCount();
  if (HasContentHash && mutationStamp() != LastMutationStamp)
    HasContentHash = false;

  const ResourceGovernor &Gov = Graph.governor();
  for (unsigned Iter = 0; Iter < Options.Iterations; ++Iter) {
    ++GlobalIteration;
    IterationStats Stats;
    Timer Phase;
    EGGLOG_FAILPOINT("engine.iter");
    // Ends the run mid-iteration (governor trip, timeout, database failure)
    // with this iteration's partial stats on record.
    auto StopHere = [&] {
      Report.Iterations.push_back(Stats);
      Report.TotalSeconds = Total.seconds();
      return Report;
    };

    auto TimedOutNow = [&] {
      return Options.TimeoutSeconds > 0 &&
             Total.seconds() > Options.TimeoutSeconds;
    };
    auto RuleThreshold = [&](size_t R) {
      // BackOff threshold: collection aborts as soon as a rule exceeds it
      // (the matches would be dropped anyway, and collecting them all can
      // exhaust memory on explosive rule sets).
      return Options.UseBackoff
                 ? (Options.BackoffMatchLimit << States[R].TimesBanned)
                 : UINT64_MAX;
    };

    //=== Match phase: one work item per (rule, delta variant). ============
    // Each item collects its matches into a flat arena (NumVars values per
    // match); the apply phase drains the items in (rule declaration,
    // variant, match) order, so the database mutation order — and with it
    // every fresh id and liveContentHash — is independent of the thread
    // count. Rules outside the selected ruleset are skipped entirely;
    // their DeltaStart stays put, so when their ruleset next runs, the
    // delta covers everything that happened in between (phased schedules
    // stay semi-naïve-correct).
    struct WorkItem {
      size_t Rule = 0;
      QueryExecutor *Exec = nullptr;
      /// Per-atom delta restriction; empty = unrestricted (the full,
      /// non-incremental search).
      const std::vector<AtomFilter> *Filters = &NoFilters;
      uint32_t Bound = 0;
      std::vector<Value> Arena;
      size_t Count = 0;
      /// Share of Count already added to the rule's shared counter (for
      /// cross-variant BackOff cancellation).
      uint64_t Published = 0;
    };
    std::vector<WorkItem> Items; // (rule, variant) ascending
    Items.reserve(Rules.size());
    bool AnyBanned = false;
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
        std::unique_ptr<QueryExecutor> &Exec = VariantExecutors[R][V].Exec;
        if (!Exec)
          Exec = std::make_unique<QueryExecutor>(Graph, Body);
        Item.Exec = Exec.get();
        if (Incremental) {
          Item.Bound = State.DeltaStart;
          Item.Filters = &VariantExecutors[R][V].Filters;
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
    auto ItemCancelled = [&](WorkItem &Item) {
      EGGLOG_FAILPOINT("match.step");
      if (TimedOutNow() || Gov.pollQuick() != GovernorVerdict::Ok)
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
      if (TimedOutNow() ||
          RuleCounts[Item.Rule].load(std::memory_order_relaxed) > Threshold)
        return;
      // Two references: small enough for std::function's inline storage.
      std::function<bool()> Cancel = [&Item, &ItemCancelled] {
        return ItemCancelled(Item);
      };
      Item.Exec->join(Item.Arena, Item.Count, &Cancel);
      // Publish the remainder, so a later sibling variant of an
      // over-matching rule is skipped outright; once the rule is over its
      // threshold its matches will be dropped, so free them now (Count
      // stays for the ban decision).
      if (Publish(Item) > Threshold)
        std::vector<Value>().swap(Item.Arena);
    };

    // Prepare, on this thread and in item order: every lazy database-side
    // step of the match phase (partition counts, index builds and
    // refreshes, constant canonicalization). After this the tables and
    // their index caches stay untouched until apply, so the joins below
    // only read them.
    for (WorkItem &Item : Items)
      Item.Exec->prepare(*Item.Filters, Item.Bound);
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
      if (RuleParallelSafe[Items[I].Rule])
        PoolItems.push_back(I);
      else
        RunItem(Items[I]);
    }
    Pool->parallelFor(PoolItems.size(),
                      [&](size_t K) { RunItem(Items[PoolItems[K]]); });
    Stats.SearchSeconds = Phase.seconds();
    // Governor trips are hard stops (ErrKind::Limit, command rolls back),
    // unlike the legacy RunOptions timeout below, which is a graceful
    // partial-result stop at iteration granularity.
    if (Graph.governorTripped())
      return StopHere();
    if (TimedOutNow()) {
      Report.TimedOut = true;
      return StopHere();
    }

    // Per-rule totals drive BackOff and the semi-naïve bookkeeping. A
    // rule over its threshold has its matches dropped and is banned; its
    // DeltaStart is left untouched so the dropped work is re-derived
    // after the ban.
    std::vector<uint64_t> RuleTotal(Rules.size(), 0);
    std::vector<char> RuleRan(Rules.size(), 0);
    for (const WorkItem &Item : Items) {
      RuleTotal[Item.Rule] += Item.Count;
      RuleRan[Item.Rule] = 1;
    }
    std::vector<char> RuleDropped(Rules.size(), 0);
    for (size_t R = 0; R < Rules.size(); ++R) {
      if (!RuleRan[R])
        continue;
      RuleState &State = States[R];
      if (RuleTotal[R] > RuleThreshold(R)) {
        uint64_t BanSpan = Options.BackoffBanLength << State.TimesBanned;
        State.BannedUntil = GlobalIteration + BanSpan;
        ++State.TimesBanned;
        AnyBanned = true;
        RuleDropped[R] = 1;
        continue;
      }
      State.DeltaStart = Graph.timestamp() + 1;
      Stats.Matches += RuleTotal[R];
    }
    for (WorkItem &Item : Items)
      if (RuleDropped[Item.Rule])
        std::vector<Value>().swap(Item.Arena);

    //=== Apply phase: the only phase that mutates the database. ===========
    // Items drain in (rule, variant, match) order whatever the thread
    // count, so mutation order cannot depend on it.
    Phase.reset();
    Graph.bumpTimestamp();
    std::vector<Value> Env;
    for (const WorkItem &Item : Items) {
      if (RuleDropped[Item.Rule])
        continue;
      const Rule &TheRule = Rules[Item.Rule];
      size_t Stride = TheRule.Body.NumVars;
      for (size_t M = 0; M < Item.Count; ++M) {
        if (!Graph.governorCheckpoint("apply.match"))
          return StopHere();
        const Value *Match = Item.Arena.data() + M * Stride;
        Env.assign(Match, Match + Stride);
        Env.resize(TheRule.NumSlots);
        if (!Graph.runActions(TheRule.Actions, Env)) {
          if (Graph.failed())
            return StopHere();
          // A failed action (e.g. primitive failure) only abandons this
          // match, mirroring guarded rewrites.
          Graph.clearError();
        }
      }
    }
    Stats.ApplySeconds = Phase.seconds();

    //=== Rebuild phase: restore congruence and canonical form. ============
    Phase.reset();
    Stats.RebuildPasses = Graph.rebuild();
    Stats.RebuildSeconds = Phase.seconds();
    if (Graph.failed())
      return StopHere();

    Stats.TuplesAfter = Graph.liveTupleCount();
    Stats.UnionsAfter = Graph.unionFind().unionCount();
    Report.Iterations.push_back(Stats);

    bool Changed = Stats.TuplesAfter != LiveBefore ||
                   Stats.UnionsAfter != UnionsBefore;
    if (!Changed && !AnyBanned) {
      // Only a potential saturation point (no banned rules pending) needs
      // the content-hash tiebreak. Matching a previously hashed state
      // means the engine revisited it — a fixpoint or a churn cycle —
      // so stopping is sound either way.
      uint64_t ContentAfter = Graph.liveContentHash();
      Changed = !HasContentHash || ContentAfter != LastContentHash;
      LastContentHash = ContentAfter;
      LastMutationStamp = mutationStamp();
      HasContentHash = true;
    }
    LiveBefore = Stats.TuplesAfter;
    UnionsBefore = Stats.UnionsAfter;

    if (!Changed && !AnyBanned) {
      Report.Saturated = true;
      break;
    }
    if (Options.NodeLimit && Stats.TuplesAfter > Options.NodeLimit) {
      Report.HitNodeLimit = true;
      break;
    }
    if (Options.TimeoutSeconds > 0 &&
        Total.seconds() > Options.TimeoutSeconds) {
      Report.TimedOut = true;
      break;
    }
  }

  Report.TotalSeconds = Total.seconds();
  return Report;
}

//===----------------------------------------------------------------------===
// Schedule interpretation
//===----------------------------------------------------------------------===

namespace {

/// Folds a leaf run's report into the schedule-wide report. Saturated is
/// NOT folded here: whether the whole schedule is at a fixpoint is a
/// per-node verdict (a later leaf saturating says nothing about an
/// earlier one), set by the node cases below.
void appendReport(RunReport &Total, const RunReport &Leaf) {
  Total.Iterations.insert(Total.Iterations.end(), Leaf.Iterations.begin(),
                          Leaf.Iterations.end());
  Total.HitNodeLimit |= Leaf.HitNodeLimit;
  Total.TimedOut |= Leaf.TimedOut;
}

/// Safety valve for (saturate ...) over schedules that never converge and
/// carry no timeout or node limit. Generous: real workloads either
/// saturate or trip a limit long before this.
constexpr size_t MaxSaturatePasses = 1 << 20;

} // namespace

bool Engine::runScheduleNode(const Schedule &S, const RunOptions &Base,
                             RunReport &Total, Timer &Clock, bool &Stop) {
  if (Stop)
    return false;

  switch (S.ScheduleKind) {
  case Schedule::Kind::Run: {
    RunOptions Opts = Base;
    Opts.Ruleset = S.Ruleset;
    // TimeoutSeconds budgets the whole schedule: hand each run() only what
    // remains on the clock, re-checked before every call.
    auto LeafTimeoutOk = [&] {
      if (Base.TimeoutSeconds <= 0)
        return true;
      double Remaining = Base.TimeoutSeconds - Clock.seconds();
      if (Remaining <= 0) {
        Total.TimedOut = true;
        Stop = true;
        return false;
      }
      Opts.TimeoutSeconds = Remaining;
      return true;
    };

    size_t LiveBefore = Graph.liveTupleCount();
    uint64_t UnionsBefore = Graph.unionFind().unionCount();
    uint64_t StampBefore = mutationStamp();
    uint64_t HashBefore = contentHashAt(StampBefore);

    bool LeafSaturated = false;
    bool GoalMet = false;
    if (S.Until.empty()) {
      if (!LeafTimeoutOk())
        return false;
      Opts.Iterations = S.Times;
      RunReport Leaf = run(Opts);
      LeafSaturated = Leaf.Saturated;
      appendReport(Total, Leaf);
    } else {
      // Run one iteration at a time so the :until facts are re-checked at
      // every step (including before the first, so an already-satisfied
      // goal runs nothing).
      Opts.Iterations = 1;
      for (unsigned Iter = 0; Iter < S.Times; ++Iter) {
        if (Graph.needsRebuild())
          Graph.rebuild();
        bool AllHold = true;
        for (const CheckFact &Fact : S.Until)
          AllHold &= Graph.checkFact(Fact);
        if (AllHold) {
          GoalMet = true;
          break;
        }
        if (!LeafTimeoutOk())
          return false;
        RunReport Leaf = run(Opts);
        LeafSaturated = Leaf.Saturated;
        appendReport(Total, Leaf);
        if (Leaf.Saturated || Leaf.TimedOut || Leaf.HitNodeLimit ||
            Graph.failed())
          break;
      }
    }
    if (Total.TimedOut || Total.HitNodeLimit || Graph.failed())
      Stop = true;
    // This leaf's fixpoint verdict stands when it is the whole schedule;
    // enclosing combinators overwrite it with their own.
    Total.Saturated = LeafSaturated;

    // Progress detection without re-hashing the database in the common
    // cases: an identical mutation stamp means nothing was touched at
    // all, and changed live/union counts are definite progress. Only the
    // ambiguous case — mutations with identical counts, e.g. lattice
    // merges or kill/re-append churn — pays for the content hash.
    bool ContentChanged;
    uint64_t StampAfter = mutationStamp();
    if (StampAfter == StampBefore)
      ContentChanged = false;
    else if (Graph.liveTupleCount() != LiveBefore ||
             Graph.unionFind().unionCount() != UnionsBefore)
      ContentChanged = true;
    else
      ContentChanged = contentHashAt(StampAfter) != HashBefore;

    // Pending BackOff bans count as progress so an enclosing saturate
    // keeps going (the dropped matches are pending) — except when the
    // :until goal is met, which ends this leaf's work regardless. When
    // only bans are pending, skip the dead time until the next expiry.
    bool BansPending =
        !GoalMet && Opts.UseBackoff && anyBanPending(S.Ruleset);
    if (!ContentChanged && BansPending)
      fastForwardBans(S.Ruleset);
    return ContentChanged || BansPending;
  }

  case Schedule::Kind::Seq: {
    bool Updated = false;
    for (const Schedule &Child : S.Children) {
      Updated |= runScheduleNode(Child, Base, Total, Clock, Stop);
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

  case Schedule::Kind::Repeat: {
    bool Updated = false;
    bool BodyAtFixpoint = false;
    for (unsigned Rep = 0; Rep < S.Times && !Stop; ++Rep) {
      bool PassUpdated = false;
      for (const Schedule &Child : S.Children) {
        PassUpdated |= runScheduleNode(Child, Base, Total, Clock, Stop);
        if (Stop)
          break;
      }
      Updated |= PassUpdated;
      // A whole pass without progress is a fixpoint of the repeated body;
      // further repetitions cannot change anything.
      if (!PassUpdated && !Stop) {
        BodyAtFixpoint = true;
        break;
      }
    }
    Total.Saturated = BodyAtFixpoint;
    return Updated;
  }

  case Schedule::Kind::Saturate: {
    bool Updated = false;
    bool Converged = false;
    for (size_t Pass = 0; Pass < MaxSaturatePasses && !Stop; ++Pass) {
      bool PassUpdated = false;
      for (const Schedule &Child : S.Children) {
        PassUpdated |= runScheduleNode(Child, Base, Total, Clock, Stop);
        if (Stop)
          break;
      }
      Updated |= PassUpdated;
      if (!PassUpdated && !Stop) {
        // A whole pass without updates (and no bans pending) IS the
        // saturation proof; the last leaf's own report cannot see it
        // because its single iteration only bootstraps the content hash.
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

RunReport Engine::runSchedule(const Schedule &S, const RunOptions &Options) {
  RunReport Total;
  Timer Clock;
  bool Stop = false;
  bool Updated = runScheduleNode(S, Options, Total, Clock, Stop);
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
  S.LastContentHash = LastContentHash;
  S.LastMutationStamp = LastMutationStamp;
  S.HasContentHash = HasContentHash;
  return S;
}

void Engine::restore(const Snapshot &S) {
  assert(S.NumRules <= Rules.size() && S.NumRules == S.States.size() &&
         "snapshot is from a different engine");
  // Executors reference Query objects inside Rules; drop them before the
  // rules so the next run() rebuilds fresh contexts.
  VariantExecutors.clear();
  RuleParallelSafe.clear();
  Rules.resize(S.NumRules);
  States = S.States;
  for (size_t Id = RulesetNames.size(); Id > S.NumRulesets; --Id)
    RulesetIds.erase(RulesetNames[Id - 1]);
  RulesetNames.resize(S.NumRulesets);
  GlobalIteration = S.GlobalIteration;
  LastContentHash = S.LastContentHash;
  LastMutationStamp = S.LastMutationStamp;
  HasContentHash = S.HasContentHash;
  // restore() resets the union counter, breaking the stamp monotonicity
  // the schedule hash cache relies on — a post-restore stamp can collide
  // with a pre-restore one over different content.
  CachedSigValid = false;
}
