//===- egraph/EGraphClassic.h - Classic egg-style e-graph ------*- C++ -*-===//
//
// Part of egglog-cpp. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A classic equality-saturation e-graph in the style of egg (Willsey et
/// al. 2021): hash-consed e-nodes, e-classes with parent lists, and
/// deferred rebuilding driven by a worklist. This is the `egg` baseline of
/// the paper's Fig. 7 micro-benchmark — the system egglog is compared
/// against — with the traditional *top-down backtracking* e-matcher rather
/// than egglog's relational one.
///
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_EGRAPH_EGRAPHCLASSIC_H
#define EGGLOG_EGRAPH_EGRAPHCLASSIC_H

#include "core/UnionFind.h"
#include "support/Interner.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace egglog {
namespace classic {

/// Identifier of an e-class (not necessarily canonical).
using ClassId = uint32_t;

/// An e-node: an operator applied to child e-classes. Leaf operators carry
/// an immediate payload (integer constants and interned symbol names).
struct ENode {
  uint32_t Op = 0;
  int64_t Payload = 0;
  std::vector<ClassId> Children;

  bool operator==(const ENode &Other) const {
    return Op == Other.Op && Payload == Other.Payload &&
           Children == Other.Children;
  }
};

/// Hash functor over canonical e-nodes.
struct ENodeHash {
  size_t operator()(const ENode &Node) const;
};

/// One e-class: its member e-nodes and the (parent e-node, parent class)
/// pairs used by rebuilding.
struct EClass {
  std::vector<ENode> Nodes;
  std::vector<std::pair<ENode, ClassId>> Parents;
};

/// The classic e-graph with deferred rebuilding.
class EGraphClassic {
public:
  /// Interns an operator name.
  uint32_t opId(const std::string &Name) { return Ops.intern(Name); }

  /// Adds (hash-conses) an e-node, canonicalizing its children. Returns the
  /// canonical class representing it.
  ClassId add(ENode Node);

  /// Convenience constructors.
  ClassId addLeaf(const std::string &Op, int64_t Payload = 0);
  ClassId addCall(const std::string &Op, const std::vector<ClassId> &Children);

  /// Canonical id for a class.
  ClassId find(ClassId Id) const {
    return static_cast<ClassId>(UF.find(Id));
  }

  /// Unions two classes; returns true if they were distinct. Marks the
  /// merged class dirty for the next rebuild.
  bool merge(ClassId A, ClassId B);

  /// Restores the hashcons and congruence invariants (egg's deferred
  /// rebuild). Must be called before matching.
  void rebuild();

  /// Number of canonical e-nodes (after rebuild this equals the hashcons
  /// size).
  size_t numENodes() const { return Hashcons.size(); }

  /// Number of canonical e-classes.
  size_t numClasses() const;

  /// Access to a canonical class.
  const EClass &eclass(ClassId Id) const { return Classes[find(Id)]; }

  /// All canonical class ids (for match iteration).
  std::vector<ClassId> canonicalClasses() const;

  /// Total unions performed.
  uint64_t unionCount() const { return UF.unionCount(); }

private:
  UnionFind UF;
  StringInterner Ops;
  std::unordered_map<ENode, ClassId, ENodeHash> Hashcons;
  std::vector<EClass> Classes;
  std::vector<ClassId> Worklist;

  ENode canonicalizeNode(const ENode &Node) const;
  void repair(ClassId Id);
};

} // namespace classic
} // namespace egglog

#endif // EGGLOG_EGRAPH_EGRAPHCLASSIC_H
