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
    // While a transaction mark is open, every *effective* parent write
    // (compression shortcuts included — an undo log of union links alone is
    // unsound, because compression can shortcut across a post-mark union)
    // records the old edge so rollback can replay it in reverse. No-op
    // halving steps are skipped so the journal stays proportional to real
    // compression work.
    while (Parents[Id] != Id) {
      uint64_t Parent = Parents[Id];
      uint64_t Grand = Parents[Parent];
      if (Parent != Grand) {
        if (OpenMarks > 0)
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
    if (OpenMarks > 0)
      UndoLog.push_back({RootB, RootB});
    Parents[RootB] = RootA;
    ++UnionCount;
    // The losing root is exactly the id that just stopped being canonical:
    // every database row that mentions it is now stale. Rebuilding drains
    // this list instead of sweeping every table (§5.1), and hands each
    // drained pass on to the extraction index. An id can lose at most once
    // (a non-root is never passed to the link above), so the list never
    // holds duplicates.
    Dirty.push_back(RootB);
    return RootA;
  }

  /// Total number of effective (class-merging) unions performed.
  uint64_t unionCount() const { return UnionCount; }

  /// Moves the accumulated losing roots into \p Out (clearing the internal
  /// list). Unions performed while the caller processes \p Out accumulate
  /// into a fresh list for the next drain.
  void takeDirty(std::vector<uint64_t> &Out) {
    Out.clear();
    Out.swap(Dirty);
  }

  /// The raw parent array (compression state included) and the pending
  /// dirty list, for the snapshot writer.
  const std::vector<uint64_t> &parents() const { return Parents; }
  const std::vector<uint64_t> &dirty() const { return Dirty; }

  /// Wholesale-replaces the relation with externally staged state (the
  /// snapshot loader's point of no return). noexcept by construction —
  /// vector moves only — so a caller can sequence it after the last
  /// fallible step and before txnCommit with no failure window. The open
  /// write journal now describes an array that no longer exists, so it is
  /// poisoned: safe for the commit the loader goes on to, and asserted
  /// against by a rollback.
  void adopt(std::vector<uint64_t> NewParents, std::vector<uint64_t> NewDirty,
             uint64_t NewUnionCount) noexcept {
    Parents = std::move(NewParents);
    Dirty = std::move(NewDirty);
    UnionCount = NewUnionCount;
    if (OpenMarks > 0) {
      UndoLog.clear();
      Poisoned = true;
    }
  }

  /// Transactional mode: a mark is O(1) plus a copy of the dirty list, and
  /// parent writes are journaled as they happen, so the commit path costs
  /// nothing beyond the per-write branch. Marks nest LIFO — a (push)
  /// context holds one open across many commands, each command its own
  /// inside it — and the journal records every write from the outermost
  /// mark until that mark closes. Rollback replays the journal suffix past
  /// its mark in reverse.
  struct TxnMark {
    size_t NumIds = 0;
    size_t UndoLogSize = 0;
    uint64_t UnionCount = 0;
    std::vector<uint64_t> Dirty;
  };

  TxnMark txnBegin() {
    if (OpenMarks++ == 0)
      Poisoned = false;
    return TxnMark{Parents.size(), UndoLog.size(), UnionCount, Dirty};
  }

  /// Closes the innermost mark, keeping every write. Its journal entries
  /// stay while an outer mark may still roll them back.
  void txnCommit() {
    assert(OpenMarks > 0 && "txnCommit without an open transaction");
    if (--OpenMarks == 0)
      UndoLog.clear();
  }

  /// Closes the innermost mark \p M, undoing every parent write since it
  /// (reverse replay), forgetting ids created since, and restoring the
  /// rebuild worklist.
  void txnRollback(const TxnMark &M) {
    assert(OpenMarks > 0 && "txnRollback without an open transaction");
    assert(!Poisoned && "union-find was wholesale-replaced mid-transaction");
    assert(M.UndoLogSize <= UndoLog.size() && M.NumIds <= Parents.size() &&
           "union-find marks must close innermost first");
    for (size_t I = UndoLog.size(); I-- > M.UndoLogSize;)
      Parents[UndoLog[I].Id] = UndoLog[I].Old;
    UndoLog.resize(M.UndoLogSize);
    Parents.resize(M.NumIds);
    Dirty = M.Dirty;
    UnionCount = M.UnionCount;
    --OpenMarks;
  }

  /// Approximate bytes held (for the resource governor's memory ceiling).
  size_t approxBytes() const {
    return Parents.capacity() * sizeof(uint64_t) +
           Dirty.capacity() * sizeof(uint64_t) +
           UndoLog.capacity() * sizeof(UndoEntry);
  }

private:
  struct UndoEntry {
    uint64_t Id;
    uint64_t Old;
  };

  mutable std::vector<uint64_t> Parents;
  /// Roots that lost a unite() since the last takeDirty(), in merge order:
  /// the only record of merges.
  std::vector<uint64_t> Dirty;
  /// Old parent edges overwritten while a mark is open, in write order.
  mutable std::vector<UndoEntry> UndoLog;
  /// Number of open transaction marks; the journal records while nonzero.
  unsigned OpenMarks = 0;
  bool Poisoned = false;
  uint64_t UnionCount = 0;
};

} // namespace egglog

#endif // EGGLOG_CORE_UNIONFIND_H
