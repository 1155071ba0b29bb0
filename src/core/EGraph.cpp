//===- core/EGraph.cpp - The egglog database -------------------------------===//
//
// Part of egglog-cpp. See EGraph.h for an overview.
//
//===----------------------------------------------------------------------===//

#include "core/EGraph.h"

#include "core/Extract.h"
#include "support/FailPoints.h"

#include <algorithm>
#include <bit>
#include <cassert>

using namespace egglog;

namespace {

/// Pops a scratch-stack frame on scope exit, whatever the return path.
struct ScratchFrame {
  std::vector<Value> &Stack;
  size_t Base;

  ScratchFrame(std::vector<Value> &Stack) : Stack(Stack), Base(Stack.size()) {}
  ~ScratchFrame() { Stack.resize(Base); }
  /// First value of the frame. Recomputed from the base index on each call
  /// because nested frames can reallocate the stack.
  Value *data() { return Stack.data() + Base; }
};

} // namespace

EGraph::EGraph() { registerBuiltinPrimitives(Prims); }

// Out of line: ExtractIndex is incomplete in the header.
EGraph::~EGraph() = default;

ExtractIndex &EGraph::extractIndex() {
  if (!ExtractIdx)
    ExtractIdx = std::make_unique<ExtractIndex>();
  return *ExtractIdx;
}

//===----------------------------------------------------------------------===
// Sorts and functions
//===----------------------------------------------------------------------===

SortId EGraph::declareSort(const std::string &Name) {
  return SortsTable.declareUserSort(Name);
}

SortId EGraph::declareSetSort(const std::string &Name, SortId Element) {
  SortId Id = SortsTable.declareSetSort(Name, Element);
  registerSetPrimitives(Id);
  return Id;
}

FunctionId EGraph::declareFunction(FunctionDecl Decl) {
  EGGLOG_FAILPOINT("egraph.declare");
  assert(FunctionNames.find(Decl.Name) == FunctionNames.end() &&
         "function redeclared");
  // Negative costs would make the extraction fixpoint non-monotone (and
  // defeat saturatingAdd's overflow guard); the frontend rejects them with
  // a diagnostic, this is the API-level backstop.
  assert(Decl.Cost >= 0 && "negative extraction cost");
  FunctionId Id = static_cast<FunctionId>(Functions.size());
  auto Info = std::make_unique<FunctionInfo>();
  Info->Storage = std::make_unique<Table>(Decl.columnSorts(), Id);
  Info->Decl = std::move(Decl);

  // Classify columns for the incremental rebuild: id-sort columns feed the
  // table's occurrence index; container columns that (transitively) reach
  // an id sort can hide merged ids from it and force the sweep fallback.
  // Columns of immutable base values need neither.
  Info->Storage->setIdColumns(
      Info->Decl.idColumns([&](SortId S) { return SortsTable.kind(S); }));
  for (SortId S : Info->Decl.columnSorts()) {
    if (SortsTable.kind(S) != SortKind::Set)
      continue;
    while (SortsTable.kind(S) == SortKind::Set)
      S = SortsTable.info(S).Element;
    Info->NeedsFullSweep |= SortsTable.isIdSort(S);
  }

  FunctionNames.emplace(Info->Decl.Name, Id);
  Functions.push_back(std::move(Info));
  return Id;
}

bool EGraph::lookupFunctionName(const std::string &Name,
                                FunctionId &Out) const {
  auto It = FunctionNames.find(Name);
  if (It == FunctionNames.end())
    return false;
  Out = It->second;
  return true;
}

//===----------------------------------------------------------------------===
// Value construction
//===----------------------------------------------------------------------===

Value EGraph::mkF64(double D) const {
  return Value(SortTable::F64Sort, std::bit_cast<uint64_t>(D));
}

double EGraph::valueToF64(Value V) const {
  return std::bit_cast<double>(V.Bits);
}

Value EGraph::mkString(const std::string &S) {
  return Value(SortTable::StringSort, Strings.intern(S));
}

const std::string &EGraph::valueToString(Value V) const {
  return Strings.lookup(static_cast<uint32_t>(V.Bits));
}

Value EGraph::mkRational(const Rational &R) {
  return Value(SortTable::RationalSort, Rationals.intern(R));
}

const Rational &EGraph::valueToRational(Value V) const {
  return Rationals.lookup(static_cast<uint32_t>(V.Bits));
}

Value EGraph::mkSet(SortId SetSort, std::vector<Value> Elements) {
  assert(SortsTable.kind(SetSort) == SortKind::Set && "not a set sort");
  for (Value &Element : Elements)
    Element = canonicalize(Element);
  std::sort(Elements.begin(), Elements.end());
  Elements.erase(std::unique(Elements.begin(), Elements.end()),
                 Elements.end());
  return Value(SetSort, Sets.intern(Elements));
}

uint32_t EGraph::internSetElements(std::vector<Value> Elements) {
  assert(std::is_sorted(Elements.begin(), Elements.end()) &&
         "raw set elements must be pre-sorted");
  return Sets.intern(Elements);
}

const std::vector<Value> &EGraph::valueToSet(Value V) const {
  return Sets.lookup(static_cast<uint32_t>(V.Bits));
}

Value EGraph::freshId(SortId Sort) {
  assert(SortsTable.isIdSort(Sort) && "fresh id of a non-id sort");
  return Value(Sort, UF.makeSet());
}

//===----------------------------------------------------------------------===
// Canonicalization
//===----------------------------------------------------------------------===

Value EGraph::canonicalize(Value V) {
  switch (SortsTable.kind(V.Sort)) {
  case SortKind::User:
    return Value(V.Sort, UF.find(V.Bits));
  case SortKind::Set: {
    const std::vector<Value> &Elements = valueToSet(V);
    bool Dirty = false;
    for (const Value &Element : Elements) {
      if (canonicalize(Element) != Element) {
        Dirty = true;
        break;
      }
    }
    if (!Dirty)
      return V;
    return mkSet(V.Sort, Elements);
  }
  default:
    return V;
  }
}

bool EGraph::canonicalizeRow(Value *Row, unsigned Width) {
  bool Changed = false;
  for (unsigned I = 0; I < Width; ++I) {
    Value Canonical = canonicalize(Row[I]);
    if (Canonical != Row[I]) {
      Row[I] = Canonical;
      Changed = true;
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===
// Database operations
//===----------------------------------------------------------------------===

std::optional<Value> EGraph::lookup(FunctionId Func, const Value *Args) {
  FunctionInfo &Info = *Functions[Func];
  unsigned NumKeys = Info.numKeys();
  ScratchFrame Canonical(KeyScratch);
  KeyScratch.insert(KeyScratch.end(), Args, Args + NumKeys);
  canonicalizeRow(Canonical.data(), NumKeys);
  return Info.Storage->lookup(Canonical.data());
}

bool EGraph::getOrCreate(FunctionId Func, const Value *Args, Value &Out) {
  FunctionInfo &Info = *Functions[Func];
  unsigned NumKeys = Info.numKeys();
  ScratchFrame Canonical(KeyScratch);
  KeyScratch.insert(KeyScratch.end(), Args, Args + NumKeys);
  canonicalizeRow(Canonical.data(), NumKeys);
  if (std::optional<Value> Existing = Info.Storage->lookup(Canonical.data())) {
    Out = *Existing;
    return true;
  }
  SortId OutSort = Info.Decl.OutSort;
  if (Info.Decl.DefaultExpr) {
    std::vector<Value> Env;
    if (!evalExpr(*Info.Decl.DefaultExpr, Env, Out, /*CreateTerms=*/true))
      return false;
    Out = canonicalize(Out);
  } else if (SortsTable.isIdSort(OutSort)) {
    Out = freshId(OutSort);
  } else if (SortsTable.kind(OutSort) == SortKind::Unit) {
    Out = mkUnit();
  } else {
    reportError("function '" + Info.Decl.Name +
                "' has no default for a missing entry");
    return false;
  }
  // Re-check: evaluating the default may have populated the entry (note
  // Canonical.data() is recomputed — nested frames may have reallocated).
  if (std::optional<Value> Existing = Info.Storage->lookup(Canonical.data())) {
    Out = *Existing;
    return true;
  }
  Info.Storage->insert(Canonical.data(), Out, Timestamp);
  return true;
}

bool EGraph::setValue(FunctionId Func, const Value *Args, Value Out) {
  FunctionInfo &Info = *Functions[Func];
  unsigned NumKeys = Info.numKeys();
  ScratchFrame Canonical(KeyScratch);
  KeyScratch.insert(KeyScratch.end(), Args, Args + NumKeys);
  canonicalizeRow(Canonical.data(), NumKeys);
  Out = canonicalize(Out);

  std::optional<Value> Existing = Info.Storage->lookup(Canonical.data());
  if (!Existing) {
    Info.Storage->insert(Canonical.data(), Out, Timestamp);
    return true;
  }
  Value Old = canonicalize(*Existing);
  if (Old == Out) {
    // Keep the stored copy canonical without creating a delta row.
    return true;
  }

  // Resolve the functional dependency violation via the merge semantics
  // (§3.2): a merge expression if declared, union for id sorts, and a hard
  // conflict otherwise.
  Value Merged;
  if (Info.Decl.MergeExpr) {
    MergeEnv.assign({Old, Out});
    if (!evalExpr(*Info.Decl.MergeExpr, MergeEnv, Merged,
                  /*CreateTerms=*/true))
      return false;
    Merged = canonicalize(Merged);
    // A merge expression over an id-sort output can reassign the key to a
    // different class without a union: the old association vanishes and a
    // class cost may rise, which the decrease-only extraction refresh
    // cannot track. (The default id merge below unions instead, which
    // rebuild hands to the index.)
    if (ExtractIdx && Merged != Old && SortsTable.isIdSort(Info.Decl.OutSort))
      ExtractIdx->invalidate();
  } else if (SortsTable.isIdSort(Info.Decl.OutSort)) {
    Merged = unionValues(Old, Out);
  } else if (SortsTable.kind(Info.Decl.OutSort) == SortKind::Unit) {
    return true;
  } else {
    reportError("merge conflict on function '" + Info.Decl.Name +
                "' without a :merge expression");
    return false;
  }
  if (Merged != Old)
    Info.Storage->insert(Canonical.data(), Merged, Timestamp);
  return true;
}

Value EGraph::unionValues(Value A, Value B) {
  assert(A.Sort == B.Sort && "union of values of different sorts");
  assert(SortsTable.isIdSort(A.Sort) && "union of non-id values");
  uint64_t RootA = UF.find(A.Bits), RootB = UF.find(B.Bits);
  if (RootA == RootB)
    return Value(A.Sort, RootA);
  return Value(A.Sort, UF.unite(RootA, RootB));
}

bool EGraph::rewriteRow(FunctionId Func, size_t Row,
                        std::vector<Value> &Buffer) {
  Table &T = *Functions[Func]->Storage;
  unsigned Width = T.rowWidth();
  Buffer.resize(Width);
  T.copyRow(Row, Buffer.data());
  if (!canonicalizeRow(Buffer.data(), Width))
    return true;
  // The row is stale: remove it and reinsert canonically (which may
  // trigger the merge expression on a collision).
  T.eraseRow(Row);
  return setValue(Func, Buffer.data(), Buffer[Width - 1]);
}

bool EGraph::rebuildTable(FunctionId Func, const std::vector<uint64_t> &Dirty,
                          std::vector<uint32_t> &Rows,
                          std::vector<Value> &Buffer) {
  FunctionInfo &Info = *Functions[Func];
  Table &T = *Info.Storage;
  if (!Info.NeedsFullSweep && !T.trackingOccurrences())
    return true; // rows hold only immutable values; unions cannot stale them
  // Bulk-sweep heuristic, two stages. First, the dirty set alone: a
  // merge storm touching a sizable fraction of the table is swept
  // without even bringing the occurrence index up to date (catch-up
  // itself costs a pass over the appended rows). Second, the precise
  // affected-row count (over-counted: chains may still hold dead
  // rows): per-id resolution wins only while the affected set is a
  // small fraction of the table. Either way a merge storm degrades to
  // one linear sweep of the table, never below it.
  bool Sweep = Info.NeedsFullSweep || Dirty.size() * 4 > T.liveCount();
  if (!Sweep) {
    size_t Affected = T.occurrenceCount(Dirty);
    if (Affected == 0)
      return true;
    Sweep = Affected * 4 > T.liveCount();
  }
  if (Sweep) {
    size_t Limit = T.rowCount();
    for (size_t Row = 0; Row < Limit; ++Row) {
      if (!T.isLive(Row))
        continue;
      if (!governorCheckpoint("rebuild.row") ||
          !rewriteRow(Func, Row, Buffer))
        return false;
    }
    return true;
  }
  // Each dirty id lost exactly once, in this pass, so its list is read
  // here and never again: later passes and extractVariants see only
  // canonical ids.
  for (uint64_t Id : Dirty) {
    Rows.clear();
    T.forEachOccurrence(Id, [&](uint32_t Row) {
      Rows.push_back(Row);
      return true;
    });
    for (uint32_t Row : Rows) {
      // A row can die mid-drain: another dirty id already rewrote it, or
      // a reinsertion collided with its key.
      if (!T.isLive(Row))
        continue;
      if (!governorCheckpoint("rebuild.row") ||
          !rewriteRow(Func, Row, Buffer))
        return false;
    }
  }
  return true;
}

unsigned EGraph::rebuild() {
  unsigned Passes = 0;
  std::vector<uint64_t> Dirty;
  std::vector<uint32_t> Rows;
  std::vector<Value> Buffer;
  // Fixpoint over the merge worklist: each pass drains the ids that lost
  // their canonical status, rewrites exactly the rows reaching them through
  // the occurrence indexes, and loops while those rewrites merge further
  // classes. Terminates because canonical ids only ever shrink (min-id
  // representatives). Each drained pass goes to the extraction index too,
  // which folds the losers on its next refresh.
  while (!Failed) {
    UF.takeDirty(Dirty);
    if (Dirty.empty())
      break;
    ++Passes;
    if (ExtractIdx)
      ExtractIdx->noteMerged(Dirty);
    for (size_t F = 0; F < Functions.size(); ++F)
      if (!rebuildTable(static_cast<FunctionId>(F), Dirty, Rows, Buffer))
        return Passes;
  }
  // Drop the stamp-partition index entries that rewrites staled. A table
  // whose version did not move keeps them (sweepStale is a no-op there);
  // otherwise this drops exactly what its next get() would, only sooner.
  // The All indexes stay for incremental refresh.
  for (const auto &Info : Functions)
    if (Info->Storage->hasIndexCache())
      Info->Storage->indexes().sweepStale();
  return Passes;
}

//===----------------------------------------------------------------------===
// Expression and action evaluation
//===----------------------------------------------------------------------===

bool EGraph::evalExpr(const TypedExpr &Expr, const std::vector<Value> &Env,
                      Value &Out, bool CreateTerms) {
  switch (Expr.ExprKind) {
  case TypedExpr::Kind::Var:
    assert(Expr.Index < Env.size() && "unbound variable slot");
    Out = Env[Expr.Index];
    return true;
  case TypedExpr::Kind::Lit:
    Out = Expr.Literal;
    return true;
  case TypedExpr::Kind::PrimCall: {
    // Arguments are evaluated into a frame of the shared scratch stack
    // (this runs inside every action and merge expression on the rebuild
    // hot path; a per-call std::vector was a measurable allocation cost).
    // Recursion pushes nested frames above this one, so cells are
    // re-addressed by index after every nested eval.
    ScratchFrame Args(EvalScratch);
    EvalScratch.resize(Args.Base + Expr.Args.size());
    for (size_t I = 0; I < Expr.Args.size(); ++I) {
      Value V;
      if (!evalExpr(Expr.Args[I], Env, V, CreateTerms))
        return false;
      EvalScratch[Args.Base + I] = V;
    }
    return Prims.get(Expr.Index).Apply(*this, Args.data(), Out);
  }
  case TypedExpr::Kind::FuncCall: {
    ScratchFrame Args(EvalScratch);
    EvalScratch.resize(Args.Base + Expr.Args.size());
    for (size_t I = 0; I < Expr.Args.size(); ++I) {
      Value V;
      if (!evalExpr(Expr.Args[I], Env, V, CreateTerms))
        return false;
      EvalScratch[Args.Base + I] = V;
    }
    if (CreateTerms)
      return getOrCreate(Expr.Index, Args.data(), Out);
    std::optional<Value> Existing = lookup(Expr.Index, Args.data());
    if (!Existing)
      return false;
    Out = canonicalize(*Existing);
    return true;
  }
  }
  return false;
}

bool EGraph::runActions(const std::vector<Action> &Actions,
                        std::vector<Value> &Env) {
  for (const Action &Act : Actions) {
    switch (Act.ActKind) {
    case Action::Kind::Let: {
      Value Result;
      if (!evalExpr(Act.Expr, Env, Result))
        return false;
      assert(Act.Var < Env.size() && "let target out of range");
      Env[Act.Var] = Result;
      break;
    }
    case Action::Kind::Set: {
      ScratchFrame Args(EvalScratch);
      EvalScratch.resize(Args.Base + Act.Args.size());
      for (size_t I = 0; I < Act.Args.size(); ++I) {
        Value V;
        if (!evalExpr(Act.Args[I], Env, V))
          return false;
        EvalScratch[Args.Base + I] = V;
      }
      Value Result;
      if (!evalExpr(Act.Expr, Env, Result))
        return false;
      if (!setValue(Act.Func, Args.data(), Result))
        return false;
      break;
    }
    case Action::Kind::Union: {
      Value Lhs, Rhs;
      if (!evalExpr(Act.Expr, Env, Lhs) || !evalExpr(Act.Expr2, Env, Rhs))
        return false;
      unionValues(Lhs, Rhs);
      break;
    }
    case Action::Kind::Panic:
      reportError("panic: " + Act.Message);
      return false;
    case Action::Kind::Eval: {
      Value Ignored;
      if (!evalExpr(Act.Expr, Env, Ignored))
        return false;
      break;
    }
    case Action::Kind::Delete: {
      ScratchFrame Args(EvalScratch);
      EvalScratch.resize(Args.Base + Act.Args.size());
      for (size_t I = 0; I < Act.Args.size(); ++I) {
        Value V;
        if (!evalExpr(Act.Args[I], Env, V))
          return false;
        EvalScratch[Args.Base + I] = V;
      }
      canonicalizeRow(Args.data(), Act.Args.size());
      Value Dummy;
      bool Erased = Functions[Act.Func]->Storage->erase(
          Act.Args.empty() ? &Dummy : Args.data());
      // Deleting a term entry can raise its class's extraction cost; the
      // decrease-only incremental refresh cannot model that. A no-op
      // delete (key already absent) changes nothing and stays warm.
      if (Erased && ExtractIdx &&
          SortsTable.isIdSort(Functions[Act.Func]->Decl.OutSort))
        ExtractIdx->invalidate();
      break;
    }
    }
  }
  return true;
}

bool EGraph::checkFact(const CheckFact &Fact) {
  std::vector<Value> Env;
  switch (Fact.FactKind) {
  case CheckFact::Kind::Present: {
    Value Ignored;
    return evalExpr(Fact.Lhs, Env, Ignored, /*CreateTerms=*/false);
  }
  case CheckFact::Kind::Equal: {
    Value Lhs, Rhs;
    if (!evalExpr(Fact.Lhs, Env, Lhs, /*CreateTerms=*/false) ||
        !evalExpr(Fact.Rhs, Env, Rhs, /*CreateTerms=*/false))
      return false;
    return valueEqual(Lhs, Rhs);
  }
  case CheckFact::Kind::NotEqual: {
    Value Lhs, Rhs;
    if (!evalExpr(Fact.Lhs, Env, Lhs, /*CreateTerms=*/false) ||
        !evalExpr(Fact.Rhs, Env, Rhs, /*CreateTerms=*/false))
      return false;
    return !valueEqual(Lhs, Rhs);
  }
  }
  return false;
}

size_t EGraph::liveTupleCount() const {
  size_t Total = 0;
  for (const auto &Info : Functions)
    Total += Info->Storage->liveCount();
  return Total;
}

uint64_t EGraph::liveContentHash() const {
  uint64_t Total = 0;
  for (const auto &Info : Functions)
    Total += Info->Storage->liveHash();
  return Total;
}

IndexCache::Stats EGraph::indexStats() const {
  IndexCache::Stats Total;
  for (const auto &Info : Functions) {
    const IndexCache::Stats &S = Info->Storage->indexes().stats();
    Total.Hits += S.Hits;
    Total.Builds += S.Builds;
    Total.Refreshes += S.Refreshes;
    Total.Derivations += S.Derivations;
  }
  return Total;
}

//===----------------------------------------------------------------------===
// Transactions
//===----------------------------------------------------------------------===

EGraph::TxnMark EGraph::txnBegin() {
  ++TxnDepth;
  TxnMark M;
  M.UF = UF.txnBegin();
  M.Tables.reserve(Functions.size());
  for (const auto &Info : Functions)
    M.Tables.push_back(Info->Storage->txnMark());
  M.NumSorts = SortsTable.size();
  M.NumFunctions = Functions.size();
  M.NumPrims = Prims.size();
  M.Timestamp = Timestamp;
  return M;
}

void EGraph::adoptContent(std::vector<std::unique_ptr<Table>> NewTables,
                          std::vector<uint64_t> UFParents,
                          std::vector<uint64_t> UFDirty, uint64_t UnionCount,
                          uint32_t NewTimestamp) noexcept {
  assert(NewTables.size() == Functions.size() &&
         "adoptContent needs one staged table per declared function");
  assert(TxnDepth <= 1 && "adoptContent under an open (push) context");
  for (size_t F = 0; F < Functions.size(); ++F)
    Functions[F]->Storage = std::move(NewTables[F]);
  UF.adopt(std::move(UFParents), std::move(UFDirty), UnionCount);
  Timestamp = NewTimestamp;
  // The staged tables carry none of the old tables' index or extraction
  // state; consumers rebuild from scratch against the adopted content.
  if (ExtractIdx)
    ExtractIdx->invalidate();
  clearError();
}

void EGraph::txnCommit() {
  assert(TxnDepth > 0 && "txnCommit without an open transaction");
  --TxnDepth;
  UF.txnCommit();
}

void EGraph::txnRollback(const TxnMark &M) {
  assert(TxnDepth > 0 && "txnRollback without an open transaction");
  --TxnDepth;
  // Drop declarations made since the mark (newest first).
  for (size_t F = Functions.size(); F > M.NumFunctions; --F) {
    FunctionNames.erase(Functions[F - 1]->Decl.Name);
    Functions.pop_back();
  }
  SortsTable.truncate(M.NumSorts);
  Prims.truncate(M.NumPrims);
  for (size_t F = 0; F < M.NumFunctions; ++F)
    Functions[F]->Storage->rollbackTo(M.Tables[F]);
  UF.txnRollback(M.UF);
  Timestamp = M.Timestamp;
  // An injected fault or bad_alloc can unwind past live scratch frames;
  // the frames' destructors resize the stacks on the way out, but clear
  // them anyway so a missed frame cannot leak into the next command.
  EvalScratch.clear();
  KeyScratch.clear();
  MergeEnv.clear();
  // Rollback resurrects killed rows and truncates appended ones; the
  // extraction cache's decrease-only refresh cannot model either.
  if (ExtractIdx)
    ExtractIdx->invalidate();
  clearError();
}

//===----------------------------------------------------------------------===
// Resource governance
//===----------------------------------------------------------------------===

size_t EGraph::approxBytes() const {
  size_t Total = UF.approxBytes();
  for (const auto &Info : Functions)
    Total += Info->Storage->approxBytes();
  if (ExtractIdx)
    Total += ExtractIdx->approxBytes();
  return Total;
}

bool EGraph::governorTripped(size_t TransientBytes) {
  if (Failed)
    return true;
  if (!Gov.anyLimitSet())
    return false;
  switch (Gov.poll(liveTupleCount(), approxBytes() + TransientBytes)) {
  case GovernorVerdict::Ok:
    return false;
  case GovernorVerdict::Timeout:
    reportError(ErrKind::Limit,
                "resource limit: wall-clock timeout of " +
                    std::to_string(Gov.timeout()) + "s exceeded");
    return true;
  case GovernorVerdict::NodeLimit:
    reportError(ErrKind::Limit,
                "resource limit: live tuple ceiling of " +
                    std::to_string(Gov.maxLive()) + " exceeded");
    return true;
  case GovernorVerdict::MemoryLimit: {
    // Whole MiB as set by :max-memory-mb; the exact bytes otherwise, so an
    // API ceiling under 1 MiB does not read as 0.
    size_t Max = Gov.maxBytes();
    reportError(ErrKind::Limit,
                "resource limit: memory ceiling of " +
                    (Max % (size_t(1) << 20) == 0
                         ? std::to_string(Max >> 20) + " MB"
                         : std::to_string(Max) + " bytes") +
                    " exceeded");
    return true;
  }
  case GovernorVerdict::Cancelled:
    reportError(ErrKind::Cancelled, "cancelled by request");
    return true;
  }
  return false;
}

bool EGraph::governorCheckpoint(const char *Site) {
  (void)Site; // only the failpoint macro consumes it in test builds
  if (Failed)
    return false;
  if (CheckpointBudget > 0) {
    --CheckpointBudget;
    return true;
  }
  CheckpointBudget = Gov.checkpointInterval() - 1;
  EGGLOG_FAILPOINT(Site);
  return !governorTripped();
}

//===----------------------------------------------------------------------===
// Set primitives
//===----------------------------------------------------------------------===

void EGraph::registerSetPrimitives(SortId SetSort) {
  SortId Element = SortsTable.info(SetSort).Element;
  auto SetOf = [SetSort](std::vector<Value> Elements, EGraph &G) {
    return G.mkSet(SetSort, std::move(Elements));
  };

  Prims.add(Primitive{"set-empty", {}, SetSort,
                      [SetOf](EGraph &G, const Value *, Value &Out) {
                        Out = SetOf({}, G);
                        return true;
                      }});
  Prims.add(Primitive{"set-singleton",
                      {Element},
                      SetSort,
                      [SetOf](EGraph &G, const Value *Args, Value &Out) {
                        Out = SetOf({Args[0]}, G);
                        return true;
                      }});
  Prims.add(Primitive{"set-insert",
                      {SetSort, Element},
                      SetSort,
                      [SetOf](EGraph &G, const Value *Args, Value &Out) {
                        std::vector<Value> Elements = G.valueToSet(Args[0]);
                        Elements.push_back(Args[1]);
                        Out = SetOf(std::move(Elements), G);
                        return true;
                      }});
  Prims.add(Primitive{"set-remove",
                      {SetSort, Element},
                      SetSort,
                      [SetOf](EGraph &G, const Value *Args, Value &Out) {
                        std::vector<Value> Elements;
                        Value Needle = G.canonicalize(Args[1]);
                        for (Value V : G.valueToSet(G.canonicalize(Args[0])))
                          if (G.canonicalize(V) != Needle)
                            Elements.push_back(V);
                        Out = SetOf(std::move(Elements), G);
                        return true;
                      }});
  Prims.add(Primitive{"set-union",
                      {SetSort, SetSort},
                      SetSort,
                      [SetOf](EGraph &G, const Value *Args, Value &Out) {
                        std::vector<Value> Elements = G.valueToSet(Args[0]);
                        const std::vector<Value> &Other = G.valueToSet(Args[1]);
                        Elements.insert(Elements.end(), Other.begin(),
                                        Other.end());
                        Out = SetOf(std::move(Elements), G);
                        return true;
                      }});
  Prims.add(Primitive{"set-intersect",
                      {SetSort, SetSort},
                      SetSort,
                      [SetOf](EGraph &G, const Value *Args, Value &Out) {
                        Value A = G.canonicalize(Args[0]);
                        Value B = G.canonicalize(Args[1]);
                        const std::vector<Value> &Bs = G.valueToSet(B);
                        std::vector<Value> Elements;
                        for (Value V : G.valueToSet(A))
                          if (std::binary_search(Bs.begin(), Bs.end(), V))
                            Elements.push_back(V);
                        Out = SetOf(std::move(Elements), G);
                        return true;
                      }});
  Prims.add(Primitive{"set-contains",
                      {SetSort, Element},
                      SortTable::BoolSort,
                      [](EGraph &G, const Value *Args, Value &Out) {
                        Value A = G.canonicalize(Args[0]);
                        Value Needle = G.canonicalize(Args[1]);
                        const std::vector<Value> &Elements = G.valueToSet(A);
                        bool Found = std::binary_search(Elements.begin(),
                                                        Elements.end(), Needle);
                        Out = G.mkBool(Found);
                        return true;
                      }});
  Prims.add(Primitive{"set-not-contains",
                      {SetSort, Element},
                      SortTable::BoolSort,
                      [](EGraph &G, const Value *Args, Value &Out) {
                        Value A = G.canonicalize(Args[0]);
                        Value Needle = G.canonicalize(Args[1]);
                        const std::vector<Value> &Elements = G.valueToSet(A);
                        bool Found = std::binary_search(Elements.begin(),
                                                        Elements.end(), Needle);
                        Out = G.mkBool(!Found);
                        return true;
                      }});
  Prims.add(Primitive{"set-length",
                      {SetSort},
                      SortTable::I64Sort,
                      [](EGraph &G, const Value *Args, Value &Out) {
                        Value A = G.canonicalize(Args[0]);
                        Out = G.mkI64(
                            static_cast<int64_t>(G.valueToSet(A).size()));
                        return true;
                      }});
}
