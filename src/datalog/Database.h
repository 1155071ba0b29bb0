//===- datalog/Database.h - Datalog relations and eqrel --------*- C++ -*-===//
//
// Part of egglog-cpp. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A classic Datalog database in the style of Soufflé: named relations over
/// dense 32-bit values, plus union-find-backed equivalence relations
/// (`eqrel`, Nappa et al. 2019). An eqrel *represents* its full transitive
/// closure: inserting (a,b) merges the classes of a and b, and the relation
/// semantically contains every pair within a class. This is the substrate
/// for the paper's §6.1 baselines.
///
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_DATALOG_DATABASE_H
#define EGGLOG_DATALOG_DATABASE_H

#include "support/Hashing.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace egglog {
namespace datalog {

/// Datalog values are dense unsigned ids (the fact extractors number
/// variables/allocations densely).
using Val = uint32_t;

/// Hash for tuples.
struct TupleHash {
  size_t operator()(const std::vector<Val> &Tuple) const {
    size_t Hash = 1469598103934665603ull;
    for (Val V : Tuple) {
      Hash ^= hashMix(V);
      Hash *= 1099511628211ull;
    }
    return Hash;
  }
};

/// An explicit (set-backed) relation with semi-naïve delta tracking. Rows
/// inserted during an iteration are buffered as "new", become the delta
/// when the iteration ends, and join the stable rows one iteration later.
class Relation {
public:
  explicit Relation(unsigned Arity) : Arity(Arity) {}

  unsigned arity() const { return Arity; }
  size_t size() const { return Rows.size(); }

  /// Inserts a tuple; returns true if it was new. New tuples are buffered
  /// until advance().
  bool insert(const std::vector<Val> &Tuple) {
    assert(Tuple.size() == Arity && "arity mismatch");
    if (!Index.insert(Tuple).second)
      return false;
    Pending.push_back(Tuple);
    return true;
  }

  bool contains(const std::vector<Val> &Tuple) const {
    return Index.count(Tuple) != 0;
  }

  /// All tuples visible to joins (stable + delta; excludes pending).
  const std::vector<std::vector<Val>> &all() const { return Rows; }

  /// The tuples that became visible at the last advance().
  std::vector<std::vector<Val>> delta() const {
    return std::vector<std::vector<Val>>(Rows.begin() + DeltaStart,
                                         Rows.end());
  }
  size_t deltaStart() const { return DeltaStart; }

  /// Ends an iteration: pending tuples become the new delta. Returns true
  /// if the delta is nonempty.
  bool advance() {
    DeltaStart = Rows.size();
    for (std::vector<Val> &Tuple : Pending)
      Rows.push_back(std::move(Tuple));
    Pending.clear();
    return Rows.size() != DeltaStart;
  }

private:
  unsigned Arity;
  std::vector<std::vector<Val>> Rows;
  std::vector<std::vector<Val>> Pending;
  std::unordered_set<std::vector<Val>, TupleHash> Index;
  size_t DeltaStart = 0;
};

/// A union-find-backed equivalence relation (Soufflé's eqrel). Maintains
/// per-class member lists (small-to-large) so joins can enumerate the
/// classmates of a bound element.
///
/// For semi-naïve evaluation the eqrel records *merge events*: each
/// effective union snapshots the absorbed class's members. The delta of an
/// iteration is the set of pairs (absorbed-member, classmate), which the
/// evaluator enumerates instead of re-running eqrel joins from scratch
/// (this mirrors Soufflé's incremental eqrel of Nappa et al. 2019).
class EqRel {
public:
  /// One effective union: the members the absorbed class contributed and
  /// the surviving root at merge time. Absorbed is sorted for membership
  /// tests.
  struct MergeEvent {
    std::vector<Val> Absorbed;
    Val Root;
  };
  /// Ensures \p V exists as a singleton.
  void ensure(Val V) {
    if (V >= Parent.size()) {
      size_t Old = Parent.size();
      Parent.resize(V + 1);
      Members.resize(V + 1);
      for (size_t I = Old; I <= V; ++I) {
        Parent[I] = static_cast<Val>(I);
        Members[I] = {static_cast<Val>(I)};
      }
    }
  }

  Val find(Val V) const {
    assert(V < Parent.size() && "find of unknown element");
    while (Parent[V] != V) {
      Parent[V] = Parent[Parent[V]];
      V = Parent[V];
    }
    return V;
  }

  /// Inserting (a, b) merges their classes. Returns true if they were
  /// distinct (the relation grew).
  bool insert(Val A, Val B) {
    ensure(std::max(A, B));
    Val Ra = find(A), Rb = find(B);
    if (Ra == Rb)
      return false;
    if (Members[Ra].size() < Members[Rb].size())
      std::swap(Ra, Rb);
    MergeEvent Event;
    Event.Absorbed = Members[Rb];
    std::sort(Event.Absorbed.begin(), Event.Absorbed.end());
    Event.Root = Ra;
    PendingEvents.push_back(std::move(Event));
    Parent[Rb] = Ra;
    Members[Ra].insert(Members[Ra].end(), Members[Rb].begin(),
                       Members[Rb].end());
    Members[Rb].clear();
    Members[Rb].shrink_to_fit();
    return true;
  }

  /// Ends an iteration: pending merge events become the visible delta.
  /// Returns true if the delta is nonempty.
  bool advance() {
    DeltaEvents = std::move(PendingEvents);
    PendingEvents.clear();
    return !DeltaEvents.empty();
  }

  /// The merges that became visible at the last advance().
  const std::vector<MergeEvent> &deltaEvents() const { return DeltaEvents; }

  bool same(Val A, Val B) const {
    if (A >= Parent.size() || B >= Parent.size())
      return A == B;
    return find(A) == find(B);
  }

  /// The classmates of \p V (including V itself). A copy, because any
  /// insert may reallocate or free the class lists, and joins keep
  /// enumerating a class while their heads insert.
  std::vector<Val> members(Val V) const {
    if (V >= Parent.size())
      return {};
    return Members[find(V)];
  }

  /// Every element ever inserted.
  std::vector<Val> allElements() const {
    std::vector<Val> Result;
    Result.reserve(Parent.size());
    for (Val V = 0; V < Parent.size(); ++V)
      Result.push_back(V);
    return Result;
  }

  size_t numElements() const { return Parent.size(); }

  /// The number of pairs the eqrel semantically represents (sum over
  /// classes of |c|^2) — the quadratic footprint a plain encoding would
  /// materialize.
  uint64_t representedPairs() const {
    uint64_t Total = 0;
    for (Val V = 0; V < Parent.size(); ++V)
      if (find(V) == V)
        Total += static_cast<uint64_t>(Members[V].size()) *
                 Members[V].size();
    return Total;
  }

private:
  mutable std::vector<Val> Parent;
  std::vector<std::vector<Val>> Members;
  std::vector<MergeEvent> PendingEvents;
  std::vector<MergeEvent> DeltaEvents;
};

/// A named collection of relations and eqrels.
class Database {
public:
  /// Declares an explicit relation.
  Relation &declareRelation(const std::string &Name, unsigned Arity);
  /// Declares an equivalence relation.
  EqRel &declareEqRel(const std::string &Name);

  Relation &relation(const std::string &Name);
  const Relation &relation(const std::string &Name) const;
  EqRel &eqrel(const std::string &Name);
  bool isEqRel(const std::string &Name) const {
    return EqRels.count(Name) != 0;
  }

  /// Every eqrel `E` implicitly provides a representative relation
  /// `E_repr` containing (element, current canonical representative).
  /// This models Soufflé's choice-domain pattern that cclyzer++ uses to
  /// propagate one representative per class (§6.1). Note it is
  /// *non-monotone* (representatives churn as classes merge), which is
  /// precisely the semantic unsoundness the paper attributes to the
  /// cclyzer++ encoding. All elements must be ensure()d before evaluation
  /// starts; representatives of later-added elements are not delta-tracked.
  bool isEqRelRepr(const std::string &Name) const {
    return reprTarget(Name) != nullptr;
  }
  EqRel *reprTarget(const std::string &Name) const {
    constexpr const char *Suffix = "_repr";
    constexpr size_t SuffixLen = 5;
    if (Name.size() <= SuffixLen ||
        Name.compare(Name.size() - SuffixLen, SuffixLen, Suffix) != 0)
      return nullptr;
    auto It = EqRels.find(Name.substr(0, Name.size() - SuffixLen));
    return It == EqRels.end() ? nullptr
                              : const_cast<EqRel *>(&It->second);
  }

  bool exists(const std::string &Name) const {
    return Relations.count(Name) != 0 || EqRels.count(Name) != 0 ||
           isEqRelRepr(Name);
  }

  /// Ends the current iteration for every explicit relation and eqrel
  /// (each exactly once); returns true if any relation gained tuples.
  bool advanceAll() {
    bool Any = false;
    for (auto &[Name, Rel] : Relations)
      Any |= Rel.advance();
    for (auto &[Name, Eq] : EqRels)
      Any |= Eq.advance();
    return Any;
  }

private:
  std::unordered_map<std::string, Relation> Relations;
  std::unordered_map<std::string, EqRel> EqRels;
};

} // namespace datalog
} // namespace egglog

#endif // EGGLOG_DATALOG_DATABASE_H
