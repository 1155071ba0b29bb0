//===- core/Table.h - Functional database tables ---------------*- C++ -*-===//
//
// Part of egglog-cpp. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The backing store of an egglog function (§3.2, §5.1). Unlike a Datalog
/// relation (a set), a function is a *map* from key tuples to one output,
/// with the functional dependency enforced at insertion time. Rows are
/// append-only: updating a key kills the old row and appends a fresh one
/// stamped with the current iteration, so the semi-naïve delta of iteration
/// i is exactly the live suffix of rows appended during iteration i
/// (Algorithm 1 of the paper).
///
/// Storage is column-major: one contiguous Value array per term position
/// (keys, then the output), like the source paper's reference
/// implementation. The generic join compares one column of many rows at a
/// time, so a column-major layout turns its inner loops into cache-linear
/// scans instead of strided row-major loads; see DESIGN.md "Columnar
/// storage and vectorized joins".
///
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_CORE_TABLE_H
#define EGGLOG_CORE_TABLE_H

#include "core/Value.h"

#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <vector>

namespace egglog {

class IndexCache;

/// A single function's storage: rows of (keys..., output), a liveness
/// bitmap, insertion timestamps, and an open-addressing index on keys.
class Table {
public:
  explicit Table(unsigned NumKeys);
  ~Table();
  Table(const Table &) = delete;
  Table &operator=(const Table &) = delete;

  unsigned numKeys() const { return NumKeys; }
  /// Number of values per row (keys plus output).
  unsigned rowWidth() const { return NumKeys + 1; }

  /// Number of live rows.
  size_t liveCount() const { return NumLive; }
  /// Number of row slots ever appended (including dead rows).
  size_t rowCount() const { return Stamps.size(); }

  /// Looks up the output for a key tuple; nullopt if absent.
  std::optional<Value> lookup(const Value *Keys) const;

  /// Returns the row index holding \p Keys, or -1.
  int64_t findRow(const Value *Keys) const;

  /// Inserts keys -> Out with the given timestamp. If the key was present,
  /// the old row is killed, the old output returned, and the new row
  /// appended (even if the output is unchanged the row is refreshed only
  /// when \p Out differs, to keep deltas small).
  ///
  /// \returns the previous output if the key existed with a different
  /// output; nullopt if this was a fresh key or the output was identical.
  std::optional<Value> insert(const Value *Keys, Value Out, uint32_t Stamp);

  /// Removes the row for a key tuple if present; returns true if removed.
  bool erase(const Value *Keys);

  bool isLive(size_t Row) const { return Live[Row]; }
  uint32_t stamp(size_t Row) const { return Stamps[Row]; }

  /// Monotonic mutation counter: bumped on every insert, erase, and clear.
  /// Cached query indexes compare it to decide whether they are stale.
  uint64_t version() const { return Version; }

  /// Number of rows ever killed (by update or erase). Lets an incremental
  /// index refresh skip the dead-row sweep when nothing died.
  uint64_t killCount() const { return Kills; }

  /// Number of restore()/clear() calls ever. Those are the mutations that
  /// break the append-only contract (truncation, resurrection), so
  /// consumers that scan the appended suffix (the extraction index)
  /// restart from scratch when this moves.
  uint64_t resets() const { return Resets; }

  /// Live rows with stamp >= \p Bound (the semi-naïve "new" partition).
  size_t liveCountAtLeast(uint32_t Bound) const;

  /// Forward iterator over the indices of live rows, skipping dead slots.
  class LiveRowIterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = size_t;
    using difference_type = ptrdiff_t;

    LiveRowIterator(const Table &T, size_t Row) : T(&T), Row(Row) { skip(); }

    size_t operator*() const { return Row; }
    LiveRowIterator &operator++() {
      ++Row;
      skip();
      return *this;
    }
    bool operator==(const LiveRowIterator &Other) const {
      return Row == Other.Row;
    }
    bool operator!=(const LiveRowIterator &Other) const {
      return Row != Other.Row;
    }

  private:
    void skip() {
      while (Row < T->rowCount() && !T->isLive(Row))
        ++Row;
    }
    const Table *T;
    size_t Row;
  };

  /// Packed view of the live rows: `for (size_t Row : T.liveRows())`.
  struct LiveRowRange {
    const Table *T;
    LiveRowIterator begin() const { return LiveRowIterator(*T, 0); }
    LiveRowIterator end() const { return LiveRowIterator(*T, T->rowCount()); }
  };
  LiveRowRange liveRows() const { return LiveRowRange{this}; }

  /// The table's cache of sorted column indexes (created on first use).
  /// Mutation invalidates it implicitly through version().
  IndexCache &indexes() const;

  /// True once indexes() has been called; lets callers skip invalidation
  /// work for tables that never built a cache.
  bool hasIndexCache() const { return Indexes != nullptr; }

  //===--------------------------------------------------------------------===
  // Reverse occurrence index (incremental rebuilding, §5.1)
  //===--------------------------------------------------------------------===
  //
  // Maps an uninterpreted id to the rows whose id-sort columns mention it,
  // so rebuild() can resolve exactly the rows containing a merged id
  // instead of sweeping rowCount(). Maintained lazily: inserts do nothing,
  // and catch-up scans only the rows appended since the last drain (rows
  // are append-only, and every cell was canonical when written). Lists may
  // contain dead rows — readers skip them — and are dropped wholesale once
  // their id stops being canonical (it can never be written again).

  /// Declares which row columns (key positions, plus NumKeys for the
  /// output) hold uninterpreted ids. Called once, at function declaration.
  void setIdColumns(std::vector<unsigned> Cols) { IdColumns = std::move(Cols); }

  /// True if this table has id-sort columns worth tracking.
  bool trackingOccurrences() const { return !IdColumns.empty(); }

  /// Upper bound on the rows mentioning any id in \p Ids (dead rows still
  /// in the lists are counted); used by the bulk-sweep heuristic.
  size_t occurrenceCount(const std::vector<uint64_t> &Ids);

  /// Appends the rows whose id columns mention \p IdBits to \p Out (dead
  /// rows are filtered out here) and drops the consumed list: once the
  /// caller re-canonicalizes those rows, \p IdBits can never be written
  /// into this table again.
  void takeOccurrences(uint64_t IdBits, std::vector<uint32_t> &Out);

  /// Drops the occurrence list of \p IdBits without reading it (used when
  /// a full sweep supersedes per-id resolution for this pass).
  void dropOccurrences(uint64_t IdBits) {
    if (IdBits < OccHead.size())
      OccHead[IdBits] = -1;
  }

  /// The value at (row, column). Columns are the NumKeys key positions
  /// then the output at index NumKeys.
  Value cell(size_t Row, unsigned Col) const { return Columns[Col][Row]; }
  Value output(size_t Row) const { return Columns[NumKeys][Row]; }

  /// Base pointer of one column's contiguous value array. Stable for as
  /// long as the table is not mutated (an append may reallocate).
  const Value *column(unsigned Col) const { return Columns[Col].data(); }

  /// Base pointer of the stamp column (parallel to every value column).
  const uint32_t *stampColumn() const { return Stamps.data(); }

  /// Gathers row \p Row into \p Out (rowWidth() values: keys then output).
  void copyRow(size_t Row, Value *Out) const {
    for (unsigned I = 0; I < rowWidth(); ++I)
      Out[I] = Columns[I][Row];
  }

  /// Kills a live row by index: same effect as erase() on its keys, but
  /// without re-probing the hash index by key tuple.
  void eraseRow(size_t Row);

  /// Clears all rows (used by `pop`-less resets in tests).
  void clear();

  /// A frozen view of the table for push/pop contexts. Rows are append-only
  /// and cells/stamps of existing rows never change, so the snapshot is the
  /// row count plus a copy of the liveness bitmap (rows live at the
  /// snapshot can only be killed afterwards, never edited).
  struct Snapshot {
    size_t Rows = 0;
    size_t NumLive = 0;
    uint64_t Kills = 0;
    bool StampsSorted = true;
    std::vector<bool> Live;
  };

  Snapshot snapshot() const;

  /// Restores the exact live content captured by \p S: rows appended since
  /// are truncated, rows killed since are resurrected, and the key index is
  /// rebuilt. Cached column indexes are invalidated (resurrection breaks
  /// their monotone-death refresh assumption).
  void restore(const Snapshot &S);

  /// Transactional mode. Unlike Snapshot, a mark is O(1) — no liveness
  /// bitmap copy. Rollback is possible without one because every kill since
  /// the mark is recorded in the (always-on) kill journal: rows are
  /// append-only, each row is killed at most once, so resurrecting the
  /// journaled suffix and truncating the appended rows restores the exact
  /// live content.
  struct TxnMark {
    size_t Rows = 0;
    size_t KillLogSize = 0;
    size_t NumLive = 0;
    uint64_t Kills = 0;
    uint64_t Resets = 0;
    bool StampsSorted = true;
  };

  TxnMark txnMark() const {
    return TxnMark{Stamps.size(), KillLog.size(), NumLive,
                   Kills,         Resets,         StampsSorted};
  }

  /// Rolls the table back to \p M. No-op (caches stay warm) when nothing
  /// was appended or killed since the mark. Must not be interleaved with
  /// restore()/clear() — those reset the kill journal (asserted via the
  /// Resets counter in the mark).
  void rollbackTo(const TxnMark &M);

  /// Approximate bytes held by this table (for the governor's ceiling).
  size_t approxBytes() const;

private:
  unsigned NumKeys;
  /// Column-major row storage: Columns[C][R] is the value of term position
  /// C in row R. rowWidth() arrays, allocated at construction.
  std::vector<std::vector<Value>> Columns;
  std::vector<uint32_t> Stamps;
  std::vector<bool> Live;
  size_t NumLive = 0;
  uint64_t Version = 0;
  uint64_t Kills = 0;
  uint64_t Resets = 0;
  /// True while Stamps is non-decreasing in append order (always the case
  /// under the engine's monotonic timestamp); enables a binary search in
  /// liveCountAtLeast.
  bool StampsSorted = true;
  /// Row indexes killed since the last restore()/clear(), in kill order.
  /// Always on (4 bytes per kill, reclaimed at the next reset) so command
  /// transactions can roll kills back without a per-command bitmap copy.
  std::vector<uint32_t> KillLog;
  mutable std::unique_ptr<IndexCache> Indexes;

  /// Row columns holding uninterpreted ids (key positions; NumKeys means
  /// the output column). Empty for tables without id sorts, which then
  /// skip occurrence tracking entirely.
  std::vector<unsigned> IdColumns;
  /// Occurrence index storage. Uninterpreted ids are dense union-find
  /// indexes, so the id -> rows map is a direct-indexed head array over a
  /// pooled singly-linked list — no per-id heap allocations, and catch-up
  /// is two stores per (row, id column). Chains may hold dead rows
  /// (skipped on read); consumed chains are detached by resetting the
  /// head, their nodes staying in the pool (8 bytes each, dwarfed by the
  /// row payload).
  struct OccNode {
    uint32_t Row;
    int32_t Next;
  };
  std::vector<int32_t> OccHead;
  std::vector<OccNode> OccPool;
  /// Rows [0, OccTracked) are reflected in the occurrence index.
  /// restore()/clear() reset it to 0 and wipe the index (truncation and
  /// resurrection both break the append-only contract the lazy catch-up
  /// relies on).
  size_t OccTracked = 0;

  /// Indexes the rows appended since the last catch-up.
  void catchUpOccurrences();

  /// Open-addressing hash index mapping key tuples to their live row.
  /// Slots hold row index + 1; 0 means empty. Dead rows are unlinked
  /// eagerly on kill.
  std::vector<uint64_t> Slots;
  size_t SlotMask = 0;

  uint64_t hashKeys(const Value *Keys) const;
  /// hashKeys over the stored key columns of \p Row.
  uint64_t hashRow(size_t Row) const;
  bool keysEqual(size_t Row, const Value *Keys) const;
  /// Appends (Keys..., Out) as a fresh live row and links it into the hash
  /// index; shared by both insert() arms.
  size_t appendRow(const Value *Keys, Value Out, uint32_t Stamp);
  /// Kill bookkeeping shared by erase()/eraseRow()/insert()'s update arm:
  /// flips liveness, journals the kill, and unlinks the hash-index slot
  /// (backward-shift deletion). Does not bump Version.
  void unlinkRow(size_t Row);
  /// Rebuilds the hash index from the live rows in [0, Rows).
  void rebuildSlots(size_t Rows);
  void growIndex();
  void indexInsert(size_t Row);
};

} // namespace egglog

#endif // EGGLOG_CORE_TABLE_H
