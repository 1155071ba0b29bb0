//===- core/Value.h - egglog runtime values --------------------*- C++ -*-===//
//
// Part of egglog-cpp. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime value representation. Following §4.2 of the paper, a value is
/// either an interpreted constant (i64, bool, string, rational, set, ...) or
/// an uninterpreted constant (an e-class id drawn from the global id
/// universe). A Value in flight (an environment, an action, a primitive's
/// arguments, a snapshot record) carries its sort tag so the database can
/// canonicalize and typecheck uniformly. Stored cells and match arenas do
/// not: a table column's sort is its function's declaration (Table.h), a
/// match variable's is its query's (Query.h), so both keep only the 8-byte
/// payload and re-attach the sort on read.
///
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_CORE_VALUE_H
#define EGGLOG_CORE_VALUE_H

#include "support/Hashing.h"

#include <cstdint>
#include <functional>

namespace egglog {

/// Dense identifier of a sort within a SortTable.
using SortId = uint32_t;

/// Dense identifier of a declared function within an EGraph.
using FunctionId = uint32_t;

/// A runtime value: a sort tag plus a 64-bit payload. For base sorts the
/// payload is the constant itself (i64 bits, bool, interned string id,
/// interned rational id, interned set id). For user-declared sorts the
/// payload is an uninterpreted id in the global union-find.
struct Value {
  SortId Sort = 0;
  uint64_t Bits = 0;

  Value() = default;
  Value(SortId Sort, uint64_t Bits) : Sort(Sort), Bits(Bits) {}

  bool operator==(const Value &Other) const {
    return Sort == Other.Sort && Bits == Other.Bits;
  }
  bool operator!=(const Value &Other) const { return !(*this == Other); }

  /// Arbitrary total order used for deterministic canonicalization.
  bool operator<(const Value &Other) const {
    if (Sort != Other.Sort)
      return Sort < Other.Sort;
    return Bits < Other.Bits;
  }

  size_t hash() const {
    return hashMix((static_cast<uint64_t>(Sort) << 1) ^ hashMix(Bits));
  }
};

/// Hash functor for use in unordered containers.
struct ValueHash {
  size_t operator()(const Value &V) const { return V.hash(); }
};

} // namespace egglog

#endif // EGGLOG_CORE_VALUE_H
