//===- core/Index.cpp - Persistent column-trie indexes ----------------------===//
//
// Part of egglog-cpp. See Index.h for an overview.
//
//===----------------------------------------------------------------------===//

#include "core/Index.h"

#include "support/FailPoints.h"

#include <algorithm>
#include <cassert>

using namespace egglog;

namespace {

/// The order of an All entry: the permuted cells, then the row id. It is
/// total, so any two sorts of the same rows agree. Every cell of a column
/// has the column's sort, so comparing payloads gives the Value order.
struct RowLess {
  const std::vector<const uint64_t *> &Cols;
  bool operator()(uint32_t A, uint32_t B) const {
    for (const uint64_t *Col : Cols)
      if (Col[A] != Col[B])
        return Col[A] < Col[B];
    return A < B;
  }
};

} // namespace

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

void IndexCache::gatherColumns(const std::vector<unsigned> &Perm) {
  // Gather the permuted column base pointers once; the comparator then
  // touches only the contiguous column arrays (no per-row pointer
  // arithmetic), which is what makes the sort and merge cache-linear under
  // the columnar table layout.
  PermCols.clear();
  for (unsigned Pos : Perm)
    PermCols.push_back(T.column(Pos));
}

void IndexCache::refreshAll(const std::vector<unsigned> &Perm,
                            ColumnIndex &Idx) {
  gatherColumns(Perm);
  RowLess Less{PermCols};

  size_t Rows = T.rowCount();
  // Only rollback shrinks a table, and it repairs the entries first.
  assert((Idx.BuiltVersion == UINT64_MAX || Rows >= Idx.BuiltRows) &&
         "table shrank under a cached index");
  bool Built = Idx.BuiltVersion != UINT64_MAX;
  // The entry reads as unbuilt until the refresh completes: an exception
  // midway (bad_alloc from an append, an injected fault) leaves Ids torn,
  // and the next get() must rebuild it, not append to it again.
  Idx.BuiltVersion = UINT64_MAX;
  if (!Built) {
    // First build: sort from scratch.
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
    EGGLOG_FAILPOINT("index.refresh");
    std::sort(Idx.Ids.begin() + Mid, Idx.Ids.end(), Less);
    std::inplace_merge(Idx.Ids.begin(), Idx.Ids.begin() + Mid, Idx.Ids.end(),
                       Less);
    ++Counters.Refreshes;
  }

  Idx.BuiltVersion = T.version();
  Idx.BuiltRows = Rows;
  Idx.BuiltKills = T.killCount();
}

void IndexCache::rollback(size_t Rows, uint64_t Kills,
                          const std::vector<uint32_t> &KillLog) {
  Counts.clear();
  for (auto It = Entries.begin(); It != Entries.end();) {
    ColumnIndex &Idx = It->second;
    if (It->first.Filter != AtomFilter::All ||
        Idx.BuiltVersion == UINT64_MAX) {
      It = Entries.erase(It);
      continue;
    }
    // Ids are below BuiltRows, so only a mark below it truncates any.
    if (Idx.BuiltRows > Rows) {
      Idx.Ids.erase(
          std::remove_if(Idx.Ids.begin(), Idx.Ids.end(),
                         [Rows](uint32_t Row) { return Row >= Rows; }),
          Idx.Ids.end());
      Idx.BuiltRows = Rows;
    }
    // The rows killed in [Kills, BuiltKills) were swept from the entry and
    // are live again. Each row dies at most once, so none is merged twice,
    // and those at or above BuiltRows were never in the entry: the next
    // refresh appends them.
    if (Idx.BuiltKills > Kills) {
      std::vector<uint32_t> Revived;
      for (uint64_t K = Kills; K < Idx.BuiltKills; ++K)
        if (KillLog[K] < Idx.BuiltRows)
          Revived.push_back(KillLog[K]);
      gatherColumns(It->first.Perm);
      RowLess Less{PermCols};
      std::sort(Revived.begin(), Revived.end(), Less);
      size_t Mid = Idx.Ids.size();
      Idx.Ids.insert(Idx.Ids.end(), Revived.begin(), Revived.end());
      std::inplace_merge(Idx.Ids.begin(), Idx.Ids.begin() + Mid,
                         Idx.Ids.end(), Less);
      Idx.BuiltKills = Kills;
    }
    ++It;
  }
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

std::vector<std::vector<unsigned>> IndexCache::allPermutations() const {
  std::vector<std::vector<unsigned>> Perms;
  for (const auto &[Key, Idx] : Entries)
    if (Key.Filter == AtomFilter::All)
      Perms.push_back(Key.Perm);
  return Perms;
}
