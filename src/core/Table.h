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
/// Storage is column-major: one contiguous array of 8-byte payloads per term
/// position (keys, then the output), like the source paper's reference
/// implementation. Every function has a fixed signature (§3.2), so a
/// column's sort is its declaration's: the table keeps it once per column,
/// fixed at construction, and cell() re-attaches it. The generic join
/// compares one column of many rows at a time, so a column-major layout
/// turns its inner loops into cache-linear scans instead of strided
/// row-major loads; see DESIGN.md "Columnar storage and vectorized joins".
///
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_CORE_TABLE_H
#define EGGLOG_CORE_TABLE_H

#include "core/Value.h"
#include "support/Hashing.h"

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
  /// \p ColumnSorts gives the sort of every term position, keys first,
  /// then the output; it fixes the table's width. \p Func is the function
  /// whose rows this table stores; it seeds every row's content hash so
  /// identical rows of different functions differ.
  explicit Table(std::vector<SortId> ColumnSorts, FunctionId Func = 0);
  ~Table();
  Table(const Table &) = delete;
  Table &operator=(const Table &) = delete;

  unsigned numKeys() const { return NumKeys; }
  /// Number of values per row (keys plus output).
  unsigned rowWidth() const { return NumKeys + 1; }

  /// Number of live rows: every kill is journaled and each row dies at
  /// most once, so the rows not in the kill journal.
  size_t liveCount() const { return rowCount() - KillLog.size(); }
  /// Number of row slots ever appended (including dead rows).
  size_t rowCount() const { return Stamps.size(); }

  /// Looks up the output for a key tuple; nullopt if absent.
  std::optional<Value> lookup(const Value *Keys) const;

  /// Returns the row index holding \p Keys, or -1. A key whose sort is not
  /// its column's matches no row.
  int64_t findRow(const Value *Keys) const;

  /// Inserts keys -> Out with the given timestamp, which must be no lower
  /// than the last row's: stamps never decrease in row order (the engine
  /// stamps with its clock, rollback truncates back to a restored clock,
  /// and the snapshot loader rejects a decreasing section). If the key was
  /// present, the old row is killed, the old output returned, and the new
  /// row appended (even if the output is unchanged the row is refreshed
  /// only when \p Out differs, to keep deltas small).
  ///
  /// \returns the previous output if the key existed with a different
  /// output; nullopt if this was a fresh key or the output was identical.
  std::optional<Value> insert(const Value *Keys, Value Out, uint32_t Stamp);

  /// Removes the row for a key tuple if present; returns true if removed.
  bool erase(const Value *Keys);

  bool isLive(size_t Row) const { return Live[Row]; }
  uint32_t stamp(size_t Row) const { return Stamps[Row]; }

  /// Monotonic mutation counter: bumped on every insert, erase, and
  /// rollback. Cached query indexes compare it to decide whether they are
  /// stale.
  uint64_t version() const { return Version; }

  /// Number of rows ever killed (by update or erase), i.e. the kill
  /// journal's length. Lets an incremental index refresh skip the dead-row
  /// sweep when nothing died.
  uint64_t killCount() const { return KillLog.size(); }

  /// Order-independent hash of the live content: the sum of rowHash over
  /// the live rows, kept up to date by every append, kill and rollback.
  uint64_t liveHash() const { return LiveHash; }

  /// Content hash of one row (keys then output) of function \p Func;
  /// \p Cell(I) yields the row's I-th value. Timestamps are excluded, so
  /// the same live rows hash equally however they were derived.
  template <typename CellFn>
  static uint64_t rowHash(FunctionId Func, unsigned Width, CellFn Cell) {
    uint64_t Hash = hashMix(Func + 0x9E3779B97F4A7C15ull);
    for (unsigned I = 0; I < Width; ++I)
      Hash = hashCombine(Hash, Cell(I).hash());
    return Hash;
  }

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
  // instead of sweeping rowCount(), and extraction can find the rows
  // producing into a class. Maintained lazily: inserts do nothing, and
  // catch-up scans only the rows appended since the last read (rows are
  // append-only, and every cell was canonical when written). The lists are
  // a function of the appended rows alone: readers never consume them, and
  // dead rows stay in them and are skipped on read. An id that stops being
  // canonical can never be written again, so its list simply goes unread.

  /// Declares which row columns (key positions, plus NumKeys for the
  /// output) hold uninterpreted ids. Called once, at function declaration.
  void setIdColumns(std::vector<unsigned> Cols) { IdColumns = std::move(Cols); }

  /// True if this table has id-sort columns worth tracking.
  bool trackingOccurrences() const { return !IdColumns.empty(); }

  /// Upper bound on the rows mentioning any id in \p Ids (dead rows still
  /// in the lists are counted); used by the bulk-sweep heuristic.
  size_t occurrenceCount(const std::vector<uint64_t> &Ids);

  /// Calls \p Visit(Row) for each live row whose id columns mention
  /// \p IdBits, leaving the list in place; stops early, returning false,
  /// when \p Visit returns false. The list is complete for every id: no
  /// reader consumes it, and rollback wipes the index for the catch-up to
  /// rebuild.
  template <typename VisitFn>
  bool forEachOccurrence(uint64_t IdBits, VisitFn &&Visit) {
    catchUpOccurrences();
    if (IdBits >= OccHead.size())
      return true;
    for (int32_t Node = OccHead[IdBits]; Node >= 0; Node = OccPool[Node].Next)
      if (Live[OccPool[Node].Row] && !Visit(OccPool[Node].Row))
        return false;
    return true;
  }

  /// The value at (row, column). Columns are the NumKeys key positions
  /// then the output at index NumKeys.
  Value cell(size_t Row, unsigned Col) const {
    return Value(ColumnSorts[Col], Columns[Col][Row]);
  }
  Value output(size_t Row) const { return cell(Row, NumKeys); }

  /// The sort of every cell of column \p Col (its declaration's).
  SortId columnSort(unsigned Col) const { return ColumnSorts[Col]; }

  /// Base pointer of one column's contiguous payload array (the Bits of
  /// each cell; the sort is columnSort()). Stable for as long as the table
  /// is not mutated (an append may reallocate).
  const uint64_t *column(unsigned Col) const { return Columns[Col].data(); }

  /// Base pointer of the stamp column (parallel to every value column).
  const uint32_t *stampColumn() const { return Stamps.data(); }

  /// Gathers row \p Row into \p Out (rowWidth() values: keys then output).
  void copyRow(size_t Row, Value *Out) const {
    for (unsigned I = 0; I < rowWidth(); ++I)
      Out[I] = cell(Row, I);
  }

  /// Kills a live row by index: same effect as erase() on its keys, but
  /// without re-probing the hash index by key tuple.
  void eraseRow(size_t Row);

  /// Transactional mode: a mark is O(1). Rollback needs no liveness
  /// bitmap copy because every kill is recorded in the (always-on) kill
  /// journal: rows are append-only and each row is killed at most once, so
  /// resurrecting the journaled suffix and truncating the appended rows
  /// restores the exact live content. Marks nest — a (push) context's mark
  /// stays open across the per-command marks inside it — and must be
  /// rolled back innermost first.
  struct TxnMark {
    size_t Rows = 0;
    size_t KillLogSize = 0;
    uint64_t LiveHash = 0;
  };

  TxnMark txnMark() const {
    return TxnMark{Stamps.size(), KillLog.size(), LiveHash};
  }

  /// Rolls the table back to \p M. The cached column indexes stay warm on
  /// both paths: when nothing was appended or killed since the mark they
  /// are kept as they are (with the row data and key index), and otherwise
  /// IndexCache::rollback repairs them in place. Truncation and
  /// resurrection break the append-only contract that the other suffix
  /// scanners rely on; EGraph::txnRollback, the only caller outside tests,
  /// invalidates the extraction index alongside.
  void rollbackTo(const TxnMark &M);

  /// Approximate bytes held by this table (for the governor's ceiling).
  size_t approxBytes() const;

private:
  unsigned NumKeys;
  FunctionId Func;
  /// The sort of each term position, fixed at construction.
  std::vector<SortId> ColumnSorts;
  /// Column-major row storage: Columns[C][R] is the payload of term
  /// position C in row R, whose sort is ColumnSorts[C]. rowWidth() arrays,
  /// allocated at construction.
  std::vector<std::vector<uint64_t>> Columns;
  std::vector<uint32_t> Stamps;
  std::vector<bool> Live;
  /// See liveHash().
  uint64_t LiveHash = 0;
  uint64_t Version = 0;
  /// Row indexes killed, in kill order (truncated by rollback). Always on
  /// (4 bytes per kill) so transactions and contexts can roll kills back
  /// without a bitmap copy; its length is killCount().
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
  /// (skipped on read); nodes are 8 bytes each, dwarfed by the row
  /// payload.
  struct OccNode {
    uint32_t Row;
    int32_t Next;
  };
  std::vector<int32_t> OccHead;
  std::vector<OccNode> OccPool;
  /// Rows [0, OccTracked) are reflected in the occurrence index.
  /// Rollback resets it to 0 and wipes the index (truncation and
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
  /// rowHash of stored row \p Row.
  uint64_t contentHash(size_t Row) const {
    return rowHash(Func, rowWidth(), [&](unsigned I) { return cell(Row, I); });
  }
  /// Compares the payloads only: findRow checked the key sorts.
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
