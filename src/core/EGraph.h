//===- core/EGraph.h - The egglog database ---------------------*- C++ -*-===//
//
// Part of egglog-cpp. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The egglog database: a collection of functional tables over values, a
/// global union-find over uninterpreted ids, interning pools for strings,
/// rationals and sets, and the rebuilding procedure of §5.1 that restores
/// functional dependencies after unions by invoking merge expressions.
///
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_CORE_EGRAPH_H
#define EGGLOG_CORE_EGRAPH_H

#include "core/Ast.h"
#include "core/Index.h"
#include "core/Primitives.h"
#include "core/Sorts.h"
#include "core/Table.h"
#include "core/UnionFind.h"
#include "support/Errors.h"
#include "support/Governor.h"
#include "support/Interner.h"
#include "support/Rational.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace egglog {

class ExtractIndex;

/// Declaration payload for a new egglog function.
struct FunctionDecl {
  std::string Name;
  std::vector<SortId> ArgSorts;
  SortId OutSort = 0;
  /// Merge expression over two slots: 0 = old, 1 = new. If absent, the
  /// default merge applies (union for id sorts, no-op for Unit, conflict
  /// error otherwise).
  std::optional<TypedExpr> MergeExpr;
  /// Default expression evaluated by get-or-default when the key is absent.
  /// If absent, id sorts default to a fresh id ("make-set") and other sorts
  /// make the lookup fail (matching §3.3: "for base types the default
  /// :default is to crash").
  std::optional<TypedExpr> DefaultExpr;
  /// Extraction cost of one application of this function.
  int64_t Cost = 1;
  /// Source span of the declaring form (1-based; 0 = declared from C++) and
  /// the source-unit label active at declaration, for analysis diagnostics.
  unsigned Line = 0;
  unsigned Col = 0;
  std::string Unit;

  /// The sorts of the function's table columns: the argument sorts, then
  /// the output sort.
  std::vector<SortId> columnSorts() const {
    std::vector<SortId> Sorts = ArgSorts;
    Sorts.push_back(OutSort);
    return Sorts;
  }

  /// The columns (key positions, then the output at NumKeys) that hold
  /// uninterpreted ids and so feed the table's occurrence index. \p KindOf
  /// gives a sort's kind; the snapshot loader passes its staged sorts,
  /// which are not yet declared when it builds tables.
  std::vector<unsigned>
  idColumns(const std::function<SortKind(SortId)> &KindOf) const {
    std::vector<unsigned> Cols;
    for (unsigned I = 0; I <= ArgSorts.size(); ++I)
      if (KindOf(I < ArgSorts.size() ? ArgSorts[I] : OutSort) ==
          SortKind::User)
        Cols.push_back(I);
    return Cols;
  }
};

/// Runtime record for a declared function.
struct FunctionInfo {
  FunctionDecl Decl;
  std::unique_ptr<Table> Storage;
  /// True if some column is a container (Set) whose elements reach an id
  /// sort. Unions can stale such rows without any id appearing directly in
  /// an id column, so the incremental rebuild must sweep this table in full
  /// whenever the dirty worklist is non-empty.
  bool NeedsFullSweep = false;

  unsigned numKeys() const { return Decl.ArgSorts.size(); }
};

/// Hash functor for interned sets.
struct ValueVecHash {
  size_t operator()(const std::vector<Value> &Values) const {
    size_t Hash = 0x12345;
    for (const Value &V : Values)
      Hash = hashCombine(Hash, V.hash());
    return Hash;
  }
};

/// std::hash-style adapter so Rational can be interned.
struct RationalStdHash {
  size_t operator()(const Rational &R) const { return R.hash(); }
};

/// The egglog database. All mutation goes through set/union/get-or-default
/// so the rebuild invariant (everything canonical, functional dependencies
/// hold) can be restored by rebuild().
class EGraph {
public:
  EGraph();
  ~EGraph();

  SortTable &sorts() { return SortsTable; }
  const SortTable &sorts() const { return SortsTable; }
  UnionFind &unionFind() { return UF; }
  const UnionFind &unionFind() const { return UF; }
  PrimitiveRegistry &primitives() { return Prims; }
  const PrimitiveRegistry &primitives() const { return Prims; }
  StringInterner &strings() { return Strings; }
  const StringInterner &strings() const { return Strings; }
  const ValueInterner<Rational, RationalStdHash> &rationals() const {
    return Rationals;
  }
  const ValueInterner<std::vector<Value>, ValueVecHash> &sets() const {
    return Sets;
  }

  //===--------------------------------------------------------------------===
  // Sorts and functions
  //===--------------------------------------------------------------------===

  /// Declares a user sort.
  SortId declareSort(const std::string &Name);

  /// Declares a set sort over \p Element and registers its primitives.
  SortId declareSetSort(const std::string &Name, SortId Element);

  /// Declares a function; the name must be fresh.
  FunctionId declareFunction(FunctionDecl Decl);

  /// Finds a function by name.
  bool lookupFunctionName(const std::string &Name, FunctionId &Out) const;

  const FunctionInfo &function(FunctionId Id) const { return *Functions[Id]; }
  size_t numFunctions() const { return Functions.size(); }

  //===--------------------------------------------------------------------===
  // Value construction
  //===--------------------------------------------------------------------===

  Value mkUnit() const { return Value(SortTable::UnitSort, 0); }
  Value mkBool(bool B) const { return Value(SortTable::BoolSort, B ? 1 : 0); }
  Value mkI64(int64_t I) const {
    return Value(SortTable::I64Sort, static_cast<uint64_t>(I));
  }
  Value mkF64(double D) const;
  Value mkString(const std::string &S);
  Value mkRational(const Rational &R);
  /// Interns a set value (elements are canonicalized, sorted, deduped).
  Value mkSet(SortId SetSort, std::vector<Value> Elements);

  /// Interns a set element vector that is already sorted and deduped,
  /// without canonicalizing it, and returns the interned id. The snapshot
  /// loader stages element vectors under the snapshot's own (possibly
  /// stale) equivalence relation and must intern them verbatim so staged
  /// cell ids stay meaningful; everything else should use mkSet.
  uint32_t internSetElements(std::vector<Value> Elements);

  int64_t valueToI64(Value V) const { return static_cast<int64_t>(V.Bits); }
  double valueToF64(Value V) const;
  const std::string &valueToString(Value V) const;
  const Rational &valueToRational(Value V) const;
  const std::vector<Value> &valueToSet(Value V) const;

  /// Creates a fresh uninterpreted id of the given user sort.
  Value freshId(SortId Sort);

  //===--------------------------------------------------------------------===
  // Canonicalization
  //===--------------------------------------------------------------------===

  /// Canonicalizes a value under the current equivalence relation. For user
  /// sorts this is union-find lookup; for sets it recanonicalizes elements.
  Value canonicalize(Value V);

  /// Returns true if two values are equal modulo the equivalence relation.
  bool valueEqual(Value A, Value B) { return canonicalize(A) == canonicalize(B); }

  //===--------------------------------------------------------------------===
  // Database operations
  //===--------------------------------------------------------------------===

  /// Looks up f(args); canonicalizes arguments first.
  std::optional<Value> lookup(FunctionId Func, const Value *Args);

  /// "get-or-default" (§3.3): looks up f(args); if absent, evaluates the
  /// default (or makes a fresh id for id sorts), stores it, and returns it.
  /// Returns false if the function has no viable default.
  bool getOrCreate(FunctionId Func, const Value *Args, Value &Out);

  /// (set (f args) out): inserts or merges with the existing output via the
  /// function's merge semantics. Returns false on a merge conflict error.
  bool setValue(FunctionId Func, const Value *Args, Value Out);

  /// Unions two values of the same user sort; returns the canonical result.
  Value unionValues(Value A, Value B);

  /// Restores all invariants: canonical values everywhere, no functional
  /// dependency violations (§5.1). Drains the union-find's dirty worklist
  /// and rewrites only the rows reached through the tables' occurrence
  /// indexes, falling back to a per-table sweep when the affected set is a
  /// large fraction of the table (or when container columns hide ids from
  /// the occurrence index). Each drained pass is also handed to the
  /// extraction index (ExtractIndex::noteMerged). Returns the number of
  /// worklist passes (0 when nothing was dirty).
  unsigned rebuild();

  /// True if unions have happened since the last rebuild: the union-find's
  /// worklist of losing roots is the one record of pending merges.
  bool needsRebuild() const { return !UF.dirty().empty(); }

  //===--------------------------------------------------------------------===
  // Expression and action evaluation
  //===--------------------------------------------------------------------===

  /// Evaluates a typed expression under the environment. If \p CreateTerms
  /// is true, function calls use get-or-default semantics (inserting new
  /// terms); otherwise missing entries make evaluation fail.
  bool evalExpr(const TypedExpr &Expr, const std::vector<Value> &Env,
                Value &Out, bool CreateTerms = true);

  /// Runs a list of actions under the environment (which must have
  /// capacity for all let-bound slots). Returns false on failure.
  bool runActions(const std::vector<Action> &Actions, std::vector<Value> &Env);

  /// Checks one ground fact (for the check command).
  bool checkFact(const CheckFact &Fact);

  //===--------------------------------------------------------------------===
  // Timestamps and statistics
  //===--------------------------------------------------------------------===

  uint32_t timestamp() const { return Timestamp; }
  void bumpTimestamp() { ++Timestamp; }

  /// Total live tuples across all functions (the paper's "e-node count"
  /// for Fig. 7 when restricted to constructor tables; we report all).
  size_t liveTupleCount() const;

  /// Live tuples in one function.
  size_t functionSize(FunctionId Func) const {
    return Functions[Func]->Storage->liveCount();
  }

  /// Order-independent hash of the live content of every table (function
  /// id, keys, output — timestamps excluded). Two databases with the same
  /// live rows hash equally no matter how they got there, so the engine
  /// can tell real progress from dead-row churn.
  uint64_t liveContentHash() const;

  /// Sums the index-cache counters of every table.
  IndexCache::Stats indexStats() const;

  //===--------------------------------------------------------------------===
  // Extraction index
  //===--------------------------------------------------------------------===

  /// The persistent extraction index (created lazily on first use). Costs
  /// and best rows are cached across extract calls and refreshed
  /// incrementally; see Extract.h.
  ExtractIndex &extractIndex();

  /// The extraction index if one was ever created, else null (stats
  /// probing without forcing an allocation).
  const ExtractIndex *extractIndexIfBuilt() const { return ExtractIdx.get(); }

  //===--------------------------------------------------------------------===
  // Transactions: per-command rollback and (push)/(pop) contexts
  //===--------------------------------------------------------------------===

  /// A rollback mark, O(#declarations): per-table row and kill-journal
  /// counts, a copy of the pending rebuild worklist, and a union-find write
  /// journal opened for the mark's lifetime. Marks nest LIFO: a (push)
  /// context holds one open until its (pop), and each command inside it
  /// opens and closes its own. txnCommit is O(1); txnRollback pays only
  /// for what happened since the mark, so tables it never touched keep
  /// their indexes warm. Interned strings, rationals and sets are
  /// append-only and deliberately NOT rolled back (values interned past an
  /// abandoned mark become unreachable, which is harmless).
  struct TxnMark {
    UnionFind::TxnMark UF;
    std::vector<Table::TxnMark> Tables;
    size_t NumSorts = 0;
    size_t NumFunctions = 0;
    size_t NumPrims = 0;
    uint32_t Timestamp = 0;
  };

  /// The snapshot loader's point of no return: wholesale-replaces every
  /// table's storage, the union-find relation, and the clock with fully
  /// staged, fully validated state. \p NewTables must have one entry per
  /// declared function. noexcept by construction (unique_ptr and vector
  /// moves only), so the loader can run it between its last fallible step
  /// and txnCommit with no failure window; the open transaction's
  /// union-find journal is poisoned (txnCommit never replays it), so no
  /// outer mark may be open. The extraction index is invalidated and any
  /// pending error cleared.
  void adoptContent(std::vector<std::unique_ptr<Table>> NewTables,
                    std::vector<uint64_t> UFParents,
                    std::vector<uint64_t> UFDirty, uint64_t UnionCount,
                    uint32_t NewTimestamp) noexcept;

  /// Opens a transaction mark inside any already open. Until the outermost
  /// mark closes, union-find parent writes are journaled.
  TxnMark txnBegin();
  /// Closes the innermost mark, keeping all mutations.
  void txnCommit();
  /// Closes the innermost mark \p M, undoing every mutation since it:
  /// appended rows, kills, unions, declarations, timestamp bumps. Also
  /// clears any pending error.
  void txnRollback(const TxnMark &M);

  //===--------------------------------------------------------------------===
  // Resource governance
  //===--------------------------------------------------------------------===

  ResourceGovernor &governor() { return Gov; }
  const ResourceGovernor &governor() const { return Gov; }

  /// Amortized checkpoint for serial inner loops (apply/rebuild/extract):
  /// decrements a budget and, every governor checkpoint interval, fires the
  /// named failpoint and runs a full resource poll. Returns false — after
  /// reporting a Limit/Cancelled error — when the command must stop.
  bool governorCheckpoint(const char *Site);

  /// Restarts the amortized countdown; called at each command boundary so
  /// a budget left over from the previous command (or a checkpoint-interval
  /// change between commands) cannot delay the next command's first poll.
  void resetCheckpointBudget() { CheckpointBudget = 0; }

  /// Immediate full poll (no amortization); reports the error on a trip.
  /// \p TransientBytes (the match phase's arenas) count toward the byte
  /// ceiling on top of approxBytes().
  bool governorTripped(size_t TransientBytes = 0);

  /// Approximate bytes held by tables, union-find and the extraction index
  /// (governor ceiling).
  size_t approxBytes() const;

  //===--------------------------------------------------------------------===
  // Error reporting
  //===--------------------------------------------------------------------===

  bool failed() const { return Failed; }
  const std::string &errorMessage() const { return ErrorMsg; }
  /// Taxonomy kind of the pending error (Runtime for legacy reportError
  /// callers; Limit/Cancelled when the governor tripped).
  ErrKind errorKind() const { return ErrKindValue; }
  void reportError(const std::string &Message) {
    reportError(ErrKind::Runtime, Message);
  }
  void reportError(ErrKind Kind, const std::string &Message) {
    if (Failed)
      return;
    Failed = true;
    ErrKindValue = Kind;
    ErrorMsg = Message;
  }
  void clearError() {
    Failed = false;
    ErrKindValue = ErrKind::None;
    ErrorMsg.clear();
  }

private:
  SortTable SortsTable;
  UnionFind UF;
  StringInterner Strings;
  ValueInterner<Rational, RationalStdHash> Rationals;
  ValueInterner<std::vector<Value>, ValueVecHash> Sets;
  PrimitiveRegistry Prims;
  std::vector<std::unique_ptr<FunctionInfo>> Functions;
  std::unordered_map<std::string, FunctionId> FunctionNames;
  uint32_t Timestamp = 0;
  bool Failed = false;
  ErrKind ErrKindValue = ErrKind::None;
  std::string ErrorMsg;
  ResourceGovernor Gov;
  /// Countdown to the next full governor poll (see governorCheckpoint).
  uint32_t CheckpointBudget = 0;
  /// Number of open transaction marks.
  unsigned TxnDepth = 0;
  /// Persistent extraction state (lazily created; incomplete type here, so
  /// the destructor is out of line). Invalidated by txnRollback() and by
  /// the mutations that can raise class costs (term deletion,
  /// merge-expression output replacement).
  std::unique_ptr<ExtractIndex> ExtractIdx;

  /// Reusable scratch stacks for the evaluation hot path (every action and
  /// merge expression, including the rebuild loop): evaluated argument
  /// tuples and canonicalized key tuples are pushed as stack frames here
  /// instead of allocating a fresh std::vector per call. Two separate
  /// stacks because a key frame is pushed while an argument frame is live
  /// (and vice versa); a single stack would alias the source pointer during
  /// the push. Frames nest with recursion and always pop on return.
  std::vector<Value> EvalScratch;
  std::vector<Value> KeyScratch;
  /// Two-slot {old, new} environment for merge expressions. setValue is
  /// never reentrant (merge expressions evaluate through getOrCreate, which
  /// inserts directly), so one buffer suffices.
  std::vector<Value> MergeEnv;

  /// Canonicalizes a row in place; returns true if anything changed.
  bool canonicalizeRow(Value *Row, unsigned Width);

  /// One table's share of a rebuild pass: the sweep heuristic, the per-id
  /// occurrence drain (or full sweep), and the row rewrites. Returns false
  /// when the pass must stop (governor checkpoint refused or merge
  /// failure).
  bool rebuildTable(FunctionId Func, const std::vector<uint64_t> &Dirty,
                    std::vector<uint32_t> &Rows, std::vector<Value> &Buffer);

  /// Re-canonicalizes one live row (erase + reinsert through the merge
  /// semantics) if it is stale; returns false on a merge conflict error.
  bool rewriteRow(FunctionId Func, size_t Row, std::vector<Value> &Buffer);

  void registerSetPrimitives(SortId SetSort);
};

} // namespace egglog

#endif // EGGLOG_CORE_EGRAPH_H
