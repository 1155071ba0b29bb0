//===- core/Sorts.h - Sort (type) table ------------------------*- C++ -*-===//
//
// Part of egglog-cpp. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sort system of egglog (§3.3). Base sorts hold interpreted constants;
/// user sorts hold uninterpreted ids that can be unified; container sorts
/// (Set) hold interned collections whose elements may themselves need
/// canonicalization.
///
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_CORE_SORTS_H
#define EGGLOG_CORE_SORTS_H

#include "core/Value.h"

#include <cassert>
#include <string>
#include <unordered_map>
#include <vector>

namespace egglog {

/// What family a sort belongs to; drives canonicalization and merge
/// defaults.
enum class SortKind : uint8_t {
  Unit,     ///< The unit sort; relations are functions to Unit.
  Bool,     ///< Builtin booleans.
  I64,      ///< Builtin 64-bit integers.
  F64,      ///< Builtin doubles (used by mini-Herbie constant folding).
  String,   ///< Builtin interned strings.
  Rational, ///< Builtin exact rationals.
  User,     ///< A user-declared uninterpreted sort (ids, unifiable).
  Set,      ///< A set container over some element sort.
};

/// Metadata for one declared sort.
struct SortInfo {
  std::string Name;
  SortKind Kind;
  /// For container sorts, the element sort; unused otherwise.
  SortId Element = 0;
};

/// Registry of sorts. The base sorts are pre-declared with fixed ids so
/// Value tags can be tested cheaply.
class SortTable {
public:
  static constexpr SortId UnitSort = 0;
  static constexpr SortId BoolSort = 1;
  static constexpr SortId I64Sort = 2;
  static constexpr SortId F64Sort = 3;
  static constexpr SortId StringSort = 4;
  static constexpr SortId RationalSort = 5;
  static constexpr SortId FirstDynamicSort = 6;

  SortTable() {
    addSort("Unit", SortKind::Unit);
    addSort("bool", SortKind::Bool);
    addSort("i64", SortKind::I64);
    addSort("f64", SortKind::F64);
    addSort("String", SortKind::String);
    addSort("Rational", SortKind::Rational);
  }

  /// Declares a new user sort; returns its id, or an existing id if the
  /// name is already taken (caller should have checked).
  SortId declareUserSort(const std::string &Name) {
    return addSort(Name, SortKind::User);
  }

  /// Declares (or reuses) a set sort over \p Element under the given name.
  SortId declareSetSort(const std::string &Name, SortId Element) {
    SortId Id = addSort(Name, SortKind::Set);
    Infos[Id].Element = Element;
    return Id;
  }

  /// Looks up a sort by name; returns false if unknown.
  bool lookup(const std::string &Name, SortId &Out) const {
    auto It = ByName.find(Name);
    if (It == ByName.end())
      return false;
    Out = It->second;
    return true;
  }

  const SortInfo &info(SortId Id) const {
    assert(Id < Infos.size() && "unknown sort");
    return Infos[Id];
  }

  SortKind kind(SortId Id) const { return info(Id).Kind; }
  const std::string &name(SortId Id) const { return info(Id).Name; }

  /// True for sorts whose values are uninterpreted ids (unifiable).
  bool isIdSort(SortId Id) const { return kind(Id) == SortKind::User; }

  size_t size() const { return Infos.size(); }

  /// Drops every sort with id >= \p Count (pop of a push/pop context; sorts
  /// are declared append-only so a prefix is always a valid table).
  void truncate(size_t Count) {
    assert(Count >= FirstDynamicSort && "cannot drop the base sorts");
    for (size_t Id = Count; Id < Infos.size(); ++Id)
      ByName.erase(Infos[Id].Name);
    Infos.resize(Count);
  }

private:
  std::vector<SortInfo> Infos;
  std::unordered_map<std::string, SortId> ByName;

  SortId addSort(const std::string &Name, SortKind Kind) {
    auto It = ByName.find(Name);
    if (It != ByName.end())
      return It->second;
    SortId Id = static_cast<SortId>(Infos.size());
    Infos.push_back(SortInfo{Name, Kind, 0});
    ByName.emplace(Name, Id);
    return Id;
  }
};

} // namespace egglog

#endif // EGGLOG_CORE_SORTS_H
