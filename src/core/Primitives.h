//===- core/Primitives.h - Builtin primitive registry ----------*- C++ -*-===//
//
// Part of egglog-cpp. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Registry of builtin primitive operations (i64 arithmetic, rational
/// arithmetic, comparisons, string and set operations). Primitives are
/// overloaded by argument sorts; the typechecker resolves each use to a
/// concrete primitive id. Unlike egglog functions, primitives are computed,
/// never stored, and may fail (e.g. division by zero), which aborts the
/// enclosing match as in the paper's guarded-rewrite examples.
///
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_CORE_PRIMITIVES_H
#define EGGLOG_CORE_PRIMITIVES_H

#include "core/Value.h"

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

namespace egglog {

class EGraph;

/// One concrete overload of a primitive operation.
struct Primitive {
  std::string Name;
  std::vector<SortId> ArgSorts;
  SortId OutSort;
  /// Computes the result; returns false on failure (the enclosing match or
  /// action is abandoned).
  std::function<bool(EGraph &, const Value *, Value &)> Apply;
};

/// The set of registered primitives, with overload resolution by name and
/// argument sorts.
class PrimitiveRegistry {
public:
  /// Registers an overload; returns its id.
  uint32_t add(Primitive Prim);

  /// Resolves \p Name against the given argument sorts. Returns false if no
  /// overload matches.
  bool resolve(const std::string &Name, const std::vector<SortId> &Args,
               uint32_t &PrimId) const;

  /// resolve(), falling back to the polymorphic comparisons: `==` and `!=`
  /// over two arguments of one sort are instantiated for that sort on
  /// first use. The frontend's type checker and the snapshot loader both
  /// resolve through here, so a loaded snapshot re-creates exactly the
  /// comparisons its program instantiated.
  bool resolveOrInstantiate(const std::string &Name,
                            const std::vector<SortId> &Args,
                            uint32_t &PrimId);

  /// Returns true if any overload with this name exists.
  bool knownName(const std::string &Name) const {
    return ByName.count(Name) != 0;
  }

  const Primitive &get(uint32_t PrimId) const { return Prims[PrimId]; }

  size_t size() const { return Prims.size(); }

  /// Drops every primitive with id >= \p Count (pop of a push/pop context;
  /// e.g. the overloads registered for a set sort declared since the push).
  void truncate(size_t Count) {
    if (Count >= Prims.size())
      return;
    for (size_t Id = Count; Id < Prims.size(); ++Id) {
      auto It = ByName.find(Prims[Id].Name);
      if (It == ByName.end())
        continue;
      std::erase_if(It->second, [Count](uint32_t P) { return P >= Count; });
      if (It->second.empty())
        ByName.erase(It);
    }
    Prims.resize(Count);
  }

private:
  std::vector<Primitive> Prims;
  std::unordered_map<std::string, std::vector<uint32_t>> ByName;
};

/// Registers the default builtin primitives (i64, f64, bool, string,
/// rational) into \p Registry. Set-sort primitives are registered lazily by
/// the EGraph when a set sort is declared.
void registerBuiltinPrimitives(PrimitiveRegistry &Registry);

} // namespace egglog

#endif // EGGLOG_CORE_PRIMITIVES_H
