//===- core/Table.cpp - Functional database tables ------------------------===//
//
// Part of egglog-cpp. See Table.h for an overview.
//
//===----------------------------------------------------------------------===//

#include "core/Table.h"

#include "core/Index.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace egglog;

Table::Table(std::vector<SortId> Sorts, FunctionId Func)
    : NumKeys(static_cast<unsigned>(Sorts.size()) - 1), Func(Func),
      ColumnSorts(std::move(Sorts)) {
  assert(!ColumnSorts.empty() && "a table has at least its output column");
  Columns.resize(rowWidth());
  Slots.assign(16, 0);
  SlotMask = Slots.size() - 1;
}

Table::~Table() = default;

IndexCache &Table::indexes() const {
  if (!Indexes)
    Indexes = std::make_unique<IndexCache>(*this);
  return *Indexes;
}

size_t Table::liveCountAtLeast(uint32_t Bound) const {
  // Stamps never decrease in row order, so only the (typically small)
  // suffix of rows stamped at or after the bound needs a liveness scan.
  size_t Count = 0;
  size_t First =
      std::lower_bound(Stamps.begin(), Stamps.end(), Bound) - Stamps.begin();
  for (size_t Row = First; Row < Stamps.size(); ++Row)
    if (Live[Row])
      ++Count;
  return Count;
}

uint64_t Table::hashKeys(const Value *Keys) const {
  uint64_t Hash = 1469598103934665603ull;
  for (unsigned I = 0; I < NumKeys; ++I) {
    Hash ^= (static_cast<uint64_t>(Keys[I].Sort) << 32) ^ hashMix(Keys[I].Bits);
    Hash *= 1099511628211ull;
  }
  return hashMix(Hash);
}

uint64_t Table::hashRow(size_t Row) const {
  uint64_t Hash = 1469598103934665603ull;
  for (unsigned I = 0; I < NumKeys; ++I) {
    Hash ^= (static_cast<uint64_t>(ColumnSorts[I]) << 32) ^
            hashMix(Columns[I][Row]);
    Hash *= 1099511628211ull;
  }
  return hashMix(Hash);
}

bool Table::keysEqual(size_t Row, const Value *Keys) const {
  for (unsigned I = 0; I < NumKeys; ++I)
    if (Columns[I][Row] != Keys[I].Bits)
      return false;
  return true;
}

int64_t Table::findRow(const Value *Keys) const {
  // A key of another sort is absent; checked once here, so the probe loop
  // compares payloads only.
  for (unsigned I = 0; I < NumKeys; ++I)
    if (Keys[I].Sort != ColumnSorts[I])
      return -1;
  uint64_t Hash = hashKeys(Keys);
  size_t Slot = Hash & SlotMask;
  while (true) {
    uint64_t Entry = Slots[Slot];
    if (Entry == 0)
      return -1;
    size_t Row = Entry - 1;
    if (keysEqual(Row, Keys))
      return static_cast<int64_t>(Row);
    Slot = (Slot + 1) & SlotMask;
  }
}

std::optional<Value> Table::lookup(const Value *Keys) const {
  int64_t Row = findRow(Keys);
  if (Row < 0)
    return std::nullopt;
  return output(static_cast<size_t>(Row));
}

void Table::growIndex() {
  std::vector<uint64_t> OldSlots = std::move(Slots);
  Slots.assign(OldSlots.size() * 2, 0);
  SlotMask = Slots.size() - 1;
  for (uint64_t Entry : OldSlots) {
    if (Entry == 0)
      continue;
    uint64_t Hash = hashRow(Entry - 1);
    size_t Slot = Hash & SlotMask;
    while (Slots[Slot] != 0)
      Slot = (Slot + 1) & SlotMask;
    Slots[Slot] = Entry;
  }
}

void Table::indexInsert(size_t Row) {
  // Keep load factor under 70%.
  if ((liveCount() + 1) * 10 >= Slots.size() * 7)
    growIndex();
  uint64_t Hash = hashRow(Row);
  size_t Slot = Hash & SlotMask;
  while (Slots[Slot] != 0)
    Slot = (Slot + 1) & SlotMask;
  Slots[Slot] = Row + 1;
}

void Table::unlinkRow(size_t Row) {
  assert(Live[Row] && "killing a dead row");
  Live[Row] = false;
  LiveHash -= contentHash(Row);
  KillLog.push_back(static_cast<uint32_t>(Row));
  // Locate the slot holding this row. A live row is always indexed, so the
  // probe chain from its hash must contain it.
  size_t Slot = hashRow(Row) & SlotMask;
  while (Slots[Slot] != Row + 1)
    Slot = (Slot + 1) & SlotMask;
  // Robin-hood-free open addressing requires backward-shift deletion to
  // keep probe chains intact: walk the cluster and move entries whose
  // ideal slot precedes the vacated hole.
  size_t Hole = Slot;
  size_t Probe = (Slot + 1) & SlotMask;
  while (Slots[Probe] != 0) {
    size_t Ideal = hashRow(Slots[Probe] - 1) & SlotMask;
    // Does the entry at Probe want to live at or before Hole (cyclically)?
    bool CanMove = ((Probe - Ideal) & SlotMask) >= ((Probe - Hole) & SlotMask);
    if (CanMove) {
      Slots[Hole] = Slots[Probe];
      Hole = Probe;
    }
    Probe = (Probe + 1) & SlotMask;
  }
  Slots[Hole] = 0;
}

size_t Table::appendRow(const Value *Keys, Value Out, uint32_t Stamp) {
  size_t NewRow = Stamps.size();
  for (unsigned I = 0; I < NumKeys; ++I) {
    assert(Keys[I].Sort == ColumnSorts[I] && "key of the wrong sort");
    Columns[I].push_back(Keys[I].Bits);
  }
  assert(Out.Sort == ColumnSorts[NumKeys] && "output of the wrong sort");
  Columns[NumKeys].push_back(Out.Bits);
  assert((Stamps.empty() || Stamps.back() <= Stamp) &&
         "row stamps must not decrease");
  Stamps.push_back(Stamp);
  Live.push_back(true);
  LiveHash += contentHash(NewRow);
  ++Version;
  indexInsert(NewRow);
  return NewRow;
}

std::optional<Value> Table::insert(const Value *Keys, Value Out,
                                   uint32_t Stamp) {
  int64_t Existing = findRow(Keys);
  if (Existing >= 0) {
    size_t Row = static_cast<size_t>(Existing);
    Value Old = output(Row);
    if (Old == Out)
      return std::nullopt;
    // Kill the old row and unlink it from the index, then append a
    // refreshed row.
    unlinkRow(Row);
    appendRow(Keys, Out, Stamp);
    return Old;
  }
  appendRow(Keys, Out, Stamp);
  return std::nullopt;
}

bool Table::erase(const Value *Keys) {
  int64_t Existing = findRow(Keys);
  if (Existing < 0)
    return false;
  unlinkRow(static_cast<size_t>(Existing));
  ++Version;
  return true;
}

void Table::eraseRow(size_t Row) {
  unlinkRow(Row);
  ++Version;
}

void Table::catchUpOccurrences() {
  size_t Rows = rowCount();
  for (size_t Row = OccTracked; Row < Rows; ++Row) {
    if (!Live[Row])
      continue; // died before any rebuild could need it
    for (unsigned Col : IdColumns) {
      uint64_t Id = Columns[Col][Row];
      if (Id >= OccHead.size()) {
        // Ids are dense union-find indexes; grow geometrically so repeated
        // fresh ids stay amortized-constant.
        size_t NewSize = std::max<size_t>(Id + 1, OccHead.size() * 2);
        OccHead.resize(std::max<size_t>(NewSize, 16), -1);
      }
      int32_t Head = OccHead[Id];
      // The same id in two columns of one row needs only one entry.
      if (Head >= 0 && OccPool[Head].Row == Row)
        continue;
      OccPool.push_back(OccNode{static_cast<uint32_t>(Row), Head});
      OccHead[Id] = static_cast<int32_t>(OccPool.size() - 1);
    }
  }
  OccTracked = Rows;
}

size_t Table::occurrenceCount(const std::vector<uint64_t> &Ids) {
  catchUpOccurrences();
  size_t Count = 0;
  for (uint64_t Id : Ids) {
    if (Id >= OccHead.size())
      continue;
    for (int32_t Node = OccHead[Id]; Node >= 0; Node = OccPool[Node].Next)
      ++Count;
  }
  return Count;
}

void Table::rebuildSlots(size_t Rows) {
  size_t MinSlots = 16;
  while (liveCount() * 10 >= MinSlots * 7)
    MinSlots *= 2;
  Slots.assign(MinSlots, 0);
  SlotMask = Slots.size() - 1;
  for (size_t Row = 0; Row < Rows; ++Row) {
    if (!Live[Row])
      continue;
    uint64_t Hash = hashRow(Row);
    size_t Slot = Hash & SlotMask;
    while (Slots[Slot] != 0)
      Slot = (Slot + 1) & SlotMask;
    Slots[Slot] = Row + 1;
  }
}

void Table::rollbackTo(const TxnMark &M) {
  assert(M.Rows <= Stamps.size() && M.KillLogSize <= KillLog.size() &&
         "marks must be rolled back innermost first");
  // Truncation and resurrection break the append-only catch-up of the
  // occurrence index (a resurrected row was skipped as dead, a truncated
  // one may be listed), so wipe it and let the lazy catch-up rescan. The
  // cheap path below wipes too, so that after any rollback the lists are a
  // fresh catch-up: their lengths feed rebuild's bulk-sweep heuristic, and
  // with it the rewrite order.
  OccHead.clear();
  OccPool.clear();
  OccTracked = 0;
  // Cheap path: nothing was appended or killed here since the mark (by the
  // failed command, or by the whole popped context) — the row data, key
  // index, and cached column indexes all stay as they are.
  if (M.Rows == Stamps.size() && M.KillLogSize == KillLog.size())
    return;

  // Repair the column indexes first: the repair reads the kill journal's
  // suffix, which the truncation below discards.
  if (Indexes)
    Indexes->rollback(M.Rows, M.KillLogSize, KillLog);

  // Resurrect the rows killed since the mark. Each row dies at most once,
  // so the journaled suffix has no duplicates; entries pointing at rows
  // appended after the mark are about to be truncated anyway.
  for (size_t K = M.KillLogSize; K < KillLog.size(); ++K)
    if (KillLog[K] < M.Rows)
      Live[KillLog[K]] = true;
  KillLog.resize(M.KillLogSize);
  for (std::vector<uint64_t> &Col : Columns)
    Col.resize(M.Rows);
  Stamps.resize(M.Rows);
  Live.resize(M.Rows);
  LiveHash = M.LiveHash;
  ++Version;

  // Rebuild the key index from the surviving live rows.
  rebuildSlots(M.Rows);
}

size_t Table::approxBytes() const {
  size_t Bytes = Stamps.capacity() * sizeof(uint32_t) + Live.capacity() / 8 +
                 KillLog.capacity() * sizeof(uint32_t) +
                 Slots.capacity() * sizeof(uint64_t) +
                 OccHead.capacity() * sizeof(int32_t) +
                 OccPool.capacity() * sizeof(OccNode);
  for (const std::vector<uint64_t> &Col : Columns)
    Bytes += Col.capacity() * sizeof(uint64_t);
  if (Indexes)
    Bytes += Indexes->approxBytes();
  return Bytes;
}
