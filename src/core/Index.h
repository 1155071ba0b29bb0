//===- core/Index.h - Persistent column-trie indexes -----------*- C++ -*-===//
//
// Part of egglog-cpp. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Persistent sorted column indexes for the generic join (§5.1). The join
/// in Query.cpp binds variables by narrowing each atom to the equal range
/// of the candidate value, column by column — which requires the atom's
/// candidate rows to be sorted lexicographically by a column permutation.
/// Without it, every query execution would re-scan every row of every
/// atom's table and re-sort the survivors: per rule, per semi-naïve delta
/// variant, per iteration.
///
/// An IndexCache hangs off each Table and memoizes those sorted row lists
/// (flat tries over row ids) keyed by (column permutation, stamp
/// partition). Entries are invalidated by the table's monotonic version()
/// counter, never eagerly:
///
///  * The `All` partition for a permutation persists across iterations and
///    is refreshed incrementally: dead rows are swept out only when the
///    kill counter moved, freshly appended rows are sorted on their own and
///    merged in — amortized O(changed log changed + n) instead of
///    O(n log n) per refresh.
///  * The semi-naïve `Old`/`New` partitions are derived from the `All`
///    index by a single stable linear filter (no sorting), and are shared
///    by all delta variants of a rule and all rules querying the same
///    table with the same bound in one search phase.
///
/// Constant arguments are NOT part of the cache key: queries narrow to
/// their constants with a binary search in QueryExecutor::prepare, so
/// rules that differ only in literal values share one index.
///
/// The cache is not thread-safe. Only prepare() calls into it, and the
/// engine runs every prepare on one thread before any join; the joins
/// then read the prepared entries' row ids concurrently (DESIGN.md
/// "Parallel matching").
///
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_CORE_INDEX_H
#define EGGLOG_CORE_INDEX_H

#include "core/Table.h"

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

namespace egglog {

/// Restriction applied to one atom's rows during semi-naïve evaluation.
enum class AtomFilter : uint8_t {
  All, ///< Every live row.
  Old, ///< Live rows stamped strictly before the delta bound.
  New, ///< Live rows stamped at or after the delta bound.
};

/// Fills \p Filters with variant \p Variant of the semi-naïve delta
/// expansion over \p NumAtoms atoms (§4.3): atom Variant restricted to
/// New, atoms before it to Old, atoms after it unrestricted. The engine
/// precomputes one filter vector per (rule, variant) from it, and the
/// prepare/join contract tests rebuild the same variants.
inline void makeDeltaVariantFilters(std::vector<AtomFilter> &Filters,
                                    size_t Variant, size_t NumAtoms) {
  Filters.assign(NumAtoms, AtomFilter::All);
  for (size_t K = 0; K < Variant; ++K)
    Filters[K] = AtomFilter::Old;
  Filters[Variant] = AtomFilter::New;
}

/// One sorted column index: the table's live rows (restricted to a stamp
/// partition) ordered lexicographically by a column permutation.
///
/// The index stores sorted row ids only — under the columnar table layout
/// a consumer pairs them with Table::column() base pointers, so a probe of
/// position P on candidate I reads `Col[P][Ids[I]]`: two contiguous
/// arrays, no per-row pointer chase.
class ColumnIndex {
public:
  /// Sorted row ids, in index order. Stable for as long as the owning
  /// table is not mutated.
  const std::vector<uint32_t> &ids() const { return Ids; }
  size_t size() const { return Ids.size(); }

private:
  friend class IndexCache;

  /// Sorted row ids; the persistent structure an incremental refresh
  /// updates in place (partition entries are re-derived from the All
  /// index by a linear stamp filter instead).
  std::vector<uint32_t> Ids;
  uint64_t BuiltVersion = UINT64_MAX;
  size_t BuiltRows = 0;
  uint64_t BuiltKills = 0;
};

/// Cache of ColumnIndexes for one table, plus the per-bound live-row
/// partition counts the query planner uses to order variables. Owned by
/// the Table (see Table::indexes()); all lookups are lazily validated
/// against Table::version().
class IndexCache {
public:
  /// Cache effectiveness counters (cumulative).
  struct Stats {
    uint64_t Hits = 0;        ///< get() served without touching rows.
    uint64_t Builds = 0;      ///< Full scan + sort of an All index.
    uint64_t Refreshes = 0;   ///< Incremental All update (sweep + merge).
    uint64_t Derivations = 0; ///< Old/New partition filtered from All.
  };

  explicit IndexCache(const Table &T) : T(T) {}

  /// Returns the index for \p Perm restricted to \p Filter at
  /// \p DeltaBound, building or refreshing it if stale. The reference is
  /// valid until the table is mutated.
  const ColumnIndex &get(const std::vector<unsigned> &Perm, AtomFilter Filter,
                         uint32_t DeltaBound);

  /// (old, new) live-row counts split at \p Bound; cached per version.
  std::pair<size_t, size_t> partitionCounts(uint32_t Bound);

  /// Drops every cached entry (full bulk invalidation).
  void invalidate();

  /// Drops the stamp-partition entries and counts if the table changed
  /// since they were built; keeps All entries for incremental refresh.
  /// Called in bulk by EGraph::rebuild and lazily by get().
  void sweepStale() {
    if (SweptVersion != T.version())
      sweepStaleSlow();
  }

  const Stats &stats() const { return Counters; }

  /// Approximate bytes held by the cached entries (for the governor's
  /// ceiling, via Table::approxBytes).
  size_t approxBytes() const;

private:
  /// Cache key. The bound is normalized to 0 for AtomFilter::All (the
  /// partition bound is meaningless there).
  struct Key {
    std::vector<unsigned> Perm;
    AtomFilter Filter;
    uint32_t DeltaBound;
  };
  /// Reference-only view of a Key, so lookups need not copy the
  /// permutation vector.
  struct KeyView {
    const std::vector<unsigned> &Perm;
    AtomFilter Filter;
    uint32_t DeltaBound;
  };
  struct KeyLess {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A &X, const B &Y) const {
      if (X.Filter != Y.Filter)
        return X.Filter < Y.Filter;
      if (X.DeltaBound != Y.DeltaBound)
        return X.DeltaBound < Y.DeltaBound;
      return X.Perm < Y.Perm;
    }
  };

  const Table &T;
  std::map<Key, ColumnIndex, KeyLess> Entries;
  std::map<uint32_t, std::pair<size_t, size_t>> Counts;
  /// Table version the last sweep ran at.
  uint64_t SweptVersion = UINT64_MAX;
  Stats Counters;
  /// Scratch: the permuted column base pointers of the refresh in
  /// progress, so the sort comparator walks contiguous column arrays.
  std::vector<const Value *> PermCols;

  void sweepStaleSlow();

  void refreshAll(const std::vector<unsigned> &Perm, ColumnIndex &Idx);
  void derivePartition(ColumnIndex &Idx, const ColumnIndex &All,
                       AtomFilter Filter, uint32_t DeltaBound);
};

} // namespace egglog

#endif // EGGLOG_CORE_INDEX_H
