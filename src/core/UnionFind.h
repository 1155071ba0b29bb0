//===- core/UnionFind.h - Canonicalizing union-find ------------*- C++ -*-===//
//
// Part of egglog-cpp. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The union-find (disjoint set) structure over uninterpreted ids (§3.3 of
/// the paper, after Tarjan 1975). The canonical representative of a class is
/// always the *smallest* id in the class, matching the paper's
/// canonicalization function "min over the equivalence class" (§4.2); this
/// keeps rebuilding deterministic. Path compression keeps finds cheap.
///
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_CORE_UNIONFIND_H
#define EGGLOG_CORE_UNIONFIND_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace egglog {

/// A union-find over dense uint64 ids with min-id canonical representatives.
class UnionFind {
public:
  /// Creates a fresh singleton class and returns its id ("make-set").
  uint64_t makeSet() {
    uint64_t Id = Parents.size();
    Parents.push_back(Id);
    return Id;
  }

  /// Number of ids ever created.
  size_t size() const { return Parents.size(); }

  /// Returns the canonical (smallest) id of the class containing \p Id.
  uint64_t find(uint64_t Id) const {
    assert(Id < Parents.size() && "find of unknown id");
    // Iterative path halving; Parents is mutable for amortized compression.
    // While a transaction journal is open, every *effective* parent write
    // (compression shortcuts included — an undo log of union links alone is
    // unsound, because compression can shortcut across a post-mark union)
    // records the old edge so rollback can replay it in reverse. No-op
    // halving steps are skipped so the journal stays proportional to real
    // compression work.
    while (Parents[Id] != Id) {
      uint64_t Parent = Parents[Id];
      uint64_t Grand = Parents[Parent];
      if (Parent != Grand) {
        if (Journaling)
          UndoLog.push_back({Id, Parent});
        Parents[Id] = Grand;
      }
      Id = Grand;
    }
    return Id;
  }

  /// Returns true if the two ids are currently equivalent.
  bool congruent(uint64_t A, uint64_t B) const { return find(A) == find(B); }

  /// Unions the classes of \p A and \p B; returns the canonical id of the
  /// merged class (the smaller of the two roots). Increments the union
  /// counter only if the classes were distinct.
  uint64_t unite(uint64_t A, uint64_t B) {
    uint64_t RootA = find(A), RootB = find(B);
    if (RootA == RootB)
      return RootA;
    if (RootB < RootA)
      std::swap(RootA, RootB);
    if (Journaling)
      UndoLog.push_back({RootB, RootB});
    Parents[RootB] = RootA;
    ++UnionCount;
    // The losing root is exactly the id that just stopped being canonical:
    // every database row that mentions it is now stale. Rebuilding drains
    // this list instead of sweeping every table (§5.1). An id can lose at
    // most once (a non-root is never passed to the link above), so the list
    // never holds duplicates.
    Dirty.push_back(RootB);
    // The merge log is the same sequence but never drained: incremental
    // consumers (the extraction index) remember an offset into it and fold
    // the suffix on their next refresh, long after rebuild() has consumed
    // the dirty list. Opt-in (8 bytes per union, forever), so union-heavy
    // workloads that never extract pay nothing.
    if (LogMerges)
      MergeLog.push_back(RootB);
    return RootA;
  }

  /// Total number of effective (class-merging) unions performed.
  uint64_t unionCount() const { return UnionCount; }

  /// True if some id lost its canonical status since the last takeDirty().
  bool hasDirty() const { return !Dirty.empty(); }

  /// Moves the accumulated losing roots into \p Out (clearing the internal
  /// list). Unions performed while the caller processes \p Out accumulate
  /// into a fresh list for the next drain.
  void takeDirty(std::vector<uint64_t> &Out) {
    Out.clear();
    Out.swap(Dirty);
  }

  /// Append-only log of every losing root in merge order (never drained;
  /// truncated only by restore). Incremental readers keep an offset.
  const std::vector<uint64_t> &mergeLog() const { return MergeLog; }

  /// Starts recording merges (idempotent). Called when the first consumer
  /// appears; consumers must treat only post-enable entries as complete,
  /// which the extraction index does by starting from a scratch rebuild.
  void enableMergeLog() { LogMerges = true; }

  /// A frozen copy of the equivalence relation, for push/pop contexts.
  /// Path compression makes an undo log unsound to replay (compressed
  /// parent edges can reference unions that are later undone), so the
  /// snapshot stores the parent array itself. The pending dirty list is
  /// part of the relation's rebuild state and travels with it: ids that
  /// were awaiting re-canonicalization at snapshot time must still be
  /// awaiting it after a pop.
  struct Snapshot {
    std::vector<uint64_t> Parents;
    std::vector<uint64_t> Dirty;
    uint64_t UnionCount = 0;
    /// The merge log is append-only, so the snapshot stores only its
    /// length; restore truncates back to it.
    size_t MergeLogSize = 0;
  };

  Snapshot snapshot() const {
    return Snapshot{Parents, Dirty, UnionCount, MergeLog.size()};
  }

  /// Restores the relation captured by \p S exactly: ids created since are
  /// forgotten and every union since is undone.
  void restore(const Snapshot &S) {
    Parents = S.Parents;
    Dirty = S.Dirty;
    UnionCount = S.UnionCount;
    MergeLog.resize(S.MergeLogSize);
    // A wholesale replace invalidates any open write journal: the journaled
    // old edges refer to an array that no longer exists. Barrier commands
    // (push/pop) run outside transactions so this only poisons the journal
    // defensively; txnRollback asserts it never sees the poison.
    if (Journaling) {
      UndoLog.clear();
      Poisoned = true;
    }
  }

  /// Wholesale-replaces the relation with externally staged state (the
  /// snapshot loader's point of no return). noexcept by construction —
  /// vector moves only — so a caller can sequence it after the last
  /// fallible step and before txnCommit with no failure window. The merge
  /// log is cleared (its consumers are invalidated alongside); an open
  /// write journal is poisoned exactly as restore() does, which is safe
  /// because txnCommit never replays the journal.
  void adopt(std::vector<uint64_t> NewParents, std::vector<uint64_t> NewDirty,
             uint64_t NewUnionCount) noexcept {
    Parents = std::move(NewParents);
    Dirty = std::move(NewDirty);
    UnionCount = NewUnionCount;
    MergeLog.clear();
    if (Journaling) {
      UndoLog.clear();
      Poisoned = true;
    }
  }

  /// Transactional mode: unlike Snapshot (a full Parents copy, paid per
  /// (push)), a transaction pays O(1) at begin and journals parent writes
  /// as they happen, so the no-error commit path costs nothing beyond the
  /// per-write branch. Rollback replays the journal in reverse.
  struct TxnMark {
    size_t NumIds = 0;
    size_t MergeLogSize = 0;
    uint64_t UnionCount = 0;
    std::vector<uint64_t> Dirty;
  };

  TxnMark txnBegin() {
    assert(!Journaling && "nested union-find transactions are not supported");
    Journaling = true;
    Poisoned = false;
    UndoLog.clear();
    return TxnMark{Parents.size(), MergeLog.size(), UnionCount, Dirty};
  }

  void txnCommit() {
    Journaling = false;
    UndoLog.clear();
  }

  /// Undoes every parent write since txnBegin (reverse replay), forgets ids
  /// created since, and restores the rebuild worklist.
  void txnRollback(const TxnMark &M) {
    assert(Journaling && "txnRollback without an open transaction");
    assert(!Poisoned && "union-find was wholesale-replaced mid-transaction");
    for (size_t I = UndoLog.size(); I-- > 0;)
      Parents[UndoLog[I].Id] = UndoLog[I].Old;
    Parents.resize(M.NumIds);
    Dirty = M.Dirty;
    UnionCount = M.UnionCount;
    MergeLog.resize(M.MergeLogSize);
    Journaling = false;
    UndoLog.clear();
  }

  bool inTransaction() const { return Journaling; }

  /// Approximate bytes held (for the resource governor's memory ceiling).
  size_t approxBytes() const {
    return Parents.capacity() * sizeof(uint64_t) +
           Dirty.capacity() * sizeof(uint64_t) +
           MergeLog.capacity() * sizeof(uint64_t) +
           UndoLog.capacity() * sizeof(UndoEntry);
  }

private:
  struct UndoEntry {
    uint64_t Id;
    uint64_t Old;
  };

  mutable std::vector<uint64_t> Parents;
  /// Roots that lost a unite() since the last takeDirty(), in merge order.
  std::vector<uint64_t> Dirty;
  /// Every losing root since enableMergeLog(), in merge order.
  std::vector<uint64_t> MergeLog;
  /// Old parent edges overwritten while Journaling, in write order.
  mutable std::vector<UndoEntry> UndoLog;
  bool LogMerges = false;
  bool Journaling = false;
  bool Poisoned = false;
  uint64_t UnionCount = 0;
};

} // namespace egglog

#endif // EGGLOG_CORE_UNIONFIND_H
