//===- core/Index.cpp - Persistent column-trie indexes ----------------------===//
//
// Part of egglog-cpp. See Index.h for an overview.
//
//===----------------------------------------------------------------------===//

#include "core/Index.h"

#include <algorithm>
#include <cassert>

using namespace egglog;

void IndexCache::invalidate() {
  Entries.clear();
  Counts.clear();
  SweptVersion = UINT64_MAX;
}

void IndexCache::sweepStaleSlow() {
  for (auto It = Entries.begin(); It != Entries.end();) {
    if (It->first.Filter == AtomFilter::All)
      ++It;
    else
      It = Entries.erase(It);
  }
  Counts.clear();
  SweptVersion = T.version();
}

std::pair<size_t, size_t> IndexCache::partitionCounts(uint32_t Bound) {
  sweepStale();
  auto [It, Inserted] = Counts.try_emplace(Bound);
  if (Inserted) {
    size_t New = T.liveCountAtLeast(Bound);
    It->second = {T.liveCount() - New, New};
  }
  return It->second;
}

const ColumnIndex &IndexCache::get(const std::vector<unsigned> &Perm,
                                   AtomFilter Filter, uint32_t DeltaBound) {
  sweepStale();
  if (Filter == AtomFilter::All)
    DeltaBound = 0;
  auto It = Entries.find(KeyView{Perm, Filter, DeltaBound});
  if (It == Entries.end())
    It = Entries.emplace(Key{Perm, Filter, DeltaBound}, ColumnIndex())
             .first;
  ColumnIndex &Idx = It->second;
  if (Idx.BuiltVersion == T.version()) {
    ++Counters.Hits;
    return Idx;
  }
  if (Filter == AtomFilter::All) {
    refreshAll(Perm, Idx);
  } else {
    // Note: the recursive get() may insert the All entry, but std::map
    // references stay valid across insertion.
    const ColumnIndex &All = get(Perm, AtomFilter::All, 0);
    derivePartition(Idx, All, Filter, DeltaBound);
  }
  return Idx;
}

void IndexCache::refreshAll(const std::vector<unsigned> &Perm,
                            ColumnIndex &Idx) {
  // Gather the permuted column base pointers once; the comparator then
  // touches only the contiguous column arrays (no per-row pointer
  // arithmetic), which is what makes the sort and merge cache-linear under
  // the columnar table layout.
  PermCols.clear();
  for (unsigned Pos : Perm)
    PermCols.push_back(T.column(Pos));
  const std::vector<const Value *> &Cols = PermCols;
  auto Less = [&Cols](uint32_t A, uint32_t B) {
    for (const Value *Col : Cols)
      if (Col[A] != Col[B])
        return Col[A] < Col[B];
    return A < B;
  };

  size_t Rows = T.rowCount();
  if (Idx.BuiltVersion == UINT64_MAX || Rows < Idx.BuiltRows) {
    // First build, or the table shrank (clear()): sort from scratch.
    Idx.Ids.clear();
    Idx.Ids.reserve(T.liveCount());
    for (size_t Row : T.liveRows())
      Idx.Ids.push_back(static_cast<uint32_t>(Row));
    std::sort(Idx.Ids.begin(), Idx.Ids.end(), Less);
    ++Counters.Builds;
  } else {
    // Incremental refresh. Liveness only ever transitions live -> dead, so
    // rows indexed before and still live keep their relative order; rows
    // appended since the last build are sorted separately and merged in.
    if (T.killCount() != Idx.BuiltKills)
      Idx.Ids.erase(std::remove_if(
                        Idx.Ids.begin(), Idx.Ids.end(),
                        [this](uint32_t Row) { return !T.isLive(Row); }),
                    Idx.Ids.end());
    size_t Mid = Idx.Ids.size();
    for (size_t Row = Idx.BuiltRows; Row < Rows; ++Row)
      if (T.isLive(Row))
        Idx.Ids.push_back(static_cast<uint32_t>(Row));
    std::sort(Idx.Ids.begin() + Mid, Idx.Ids.end(), Less);
    std::inplace_merge(Idx.Ids.begin(), Idx.Ids.begin() + Mid, Idx.Ids.end(),
                       Less);
    ++Counters.Refreshes;
  }

  Idx.BuiltVersion = T.version();
  Idx.BuiltRows = Rows;
  Idx.BuiltKills = T.killCount();
}

void IndexCache::derivePartition(ColumnIndex &Idx, const ColumnIndex &All,
                                 AtomFilter Filter, uint32_t DeltaBound) {
  assert(Filter != AtomFilter::All && "partitions are Old or New");
  // A single stable linear filter of the All index against the stamp
  // column: a cache-linear gather over two flat arrays.
  const uint32_t *Stamps = T.stampColumn();
  Idx.Ids.clear();
  Idx.Ids.reserve(All.Ids.size());
  for (uint32_t Row : All.Ids) {
    bool IsNew = Stamps[Row] >= DeltaBound;
    if ((Filter == AtomFilter::New) == IsNew)
      Idx.Ids.push_back(Row);
  }
  Idx.BuiltVersion = T.version();
  Idx.BuiltRows = T.rowCount();
  Idx.BuiltKills = T.killCount();
  ++Counters.Derivations;
}

size_t IndexCache::approxBytes() const {
  size_t Bytes = 0;
  for (const auto &[Key, Idx] : Entries)
    Bytes += Idx.Ids.capacity() * sizeof(uint32_t) +
             Key.Perm.capacity() * sizeof(unsigned);
  return Bytes;
}
