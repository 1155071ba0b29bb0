//===- core/Extract.h - Term extraction ------------------------*- C++ -*-===//
//
// Part of egglog-cpp. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Extraction of the smallest term represented by a value (§3.4: "the
/// extract command prints the smallest term equivalent to its given
/// input"). Costs are assigned bottom-up to every equivalence class by a
/// fixpoint over all function entries whose output is an id sort; base
/// constants cost 1.
///
/// The fixpoint no longer runs from scratch per call: the EGraph owns a
/// persistent ExtractIndex — a cost/best-row table over union-find ids plus
/// reverse use/producer chains — that validates itself against the tables'
/// version() stamps and the union-find merge log. Repeated extraction over
/// an unchanged database does zero row sweeps; after inserts it scans only
/// the appended row suffix; after merges it folds the logged losing roots
/// and propagates cost decreases through the use chains (costs under
/// inserts and unions only ever decrease, so decrease-propagation reaches
/// the same fixpoint as a from-scratch run). Genuine deletions (the delete
/// action, pop) invalidate the index, which then rebuilds from scratch on
/// the next refresh. See DESIGN.md "Extraction".
///
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_CORE_EXTRACT_H
#define EGGLOG_CORE_EXTRACT_H

#include "core/EGraph.h"

#include <limits>
#include <optional>
#include <string>
#include <unordered_map>

namespace egglog {

/// An extracted term with its costs. Cost is the tree cost (every subterm
/// occurrence paid for separately, the paper's §3.4 metric); DagCost pays
/// each distinct equivalence class once, crediting sharing.
struct ExtractedTerm {
  std::string Text;
  int64_t Cost = 0;
  int64_t DagCost = 0;
};

/// Renders a base (non-id) value as surface syntax.
std::string formatValue(EGraph &Graph, Value V);

/// Persistent, incrementally-maintained extraction state for one EGraph
/// (owned by it; obtain via EGraph::extractIndex()). All queries require a
/// refresh() first, which also rebuilds the graph if unions are pending.
class ExtractIndex {
public:
  static constexpr int64_t Infinity = std::numeric_limits<int64_t>::max();

  /// Cheapest known derivation of one equivalence class: its tree cost and
  /// the (function, row) achieving it.
  struct Entry {
    int64_t Cost = Infinity;
    FunctionId Func = 0;
    uint32_t Row = 0;
  };

  /// Maintenance counters (cumulative). The warm-cache contract is
  /// testable through these: a refresh over an unchanged database bumps
  /// WarmHits and leaves RowsConsidered untouched.
  struct Stats {
    uint64_t Refreshes = 0;     ///< refresh() calls
    uint64_t WarmHits = 0;      ///< refreshes that verified and did nothing
    uint64_t Incrementals = 0;  ///< refreshes that folded/scanned a delta
    uint64_t FullRebuilds = 0;  ///< from-scratch cost fixpoints
    uint64_t RowsConsidered = 0; ///< cost relaxations attempted (row visits)
    uint64_t MergesFolded = 0;  ///< merge-log entries folded
  };

  /// Brings the index up to date with the database. Rebuilds the graph
  /// first if unions are pending (extraction is specified over a rebuilt
  /// database). Cheap when nothing changed.
  void refresh(EGraph &Graph);

  /// Marks the cached state unusable; the next refresh recomputes from
  /// scratch. Called by the EGraph on restore() and on term deletion (the
  /// only mutations under which class costs can increase).
  void invalidate() { Valid = false; }
  bool valid() const { return Valid; }

  const Stats &stats() const { return S; }

  /// Tree cost of the cheapest term for \p V (1 for base values, Infinity
  /// when no term in the database represents the class).
  int64_t costOf(const EGraph &Graph, Value V) const;

  /// Best entry for \p V's class, or nullptr for base values / classes
  /// without a finite-cost derivation.
  const Entry *best(const EGraph &Graph, Value V) const;

  /// Best entry for a canonical union-find class id (for callers that hold
  /// raw class bits rather than a sorted Value).
  const Entry *bestClass(uint64_t Root) const {
    if (Root >= Best.size() || Best[Root].Cost == Infinity)
      return nullptr;
    return &Best[Root];
  }

  /// Appends every live row whose output lies in \p V's class (the variant
  /// candidates of §6.2) to \p Out.
  void producers(const EGraph &Graph, Value V,
                 std::vector<std::pair<FunctionId, uint32_t>> &Out) const;

  /// DAG cost of the term formed by \p Func(\p Row) with best-cost
  /// children: each distinct reachable class pays its chosen row's declared
  /// cost (plus 1 per base-value child) exactly once, and the seed row
  /// itself pays on top — so a variant row whose child re-enters the seed's
  /// class still charges the rendered child subtree. Equals the tree cost
  /// on sharing-free terms. Uses an epoch-stamped visited scratch, so
  /// repeated calls (one per variant) cost O(term), not O(all ids).
  int64_t dagCostFromRow(const EGraph &Graph, FunctionId Func,
                         uint32_t Row) const;

  /// Rendered-term memo: extraction of a class over an unchanged database
  /// is a pure function, so the fully built ExtractedTerm is cached per
  /// canonical root; every non-warm refresh clears the memo.
  const ExtractedTerm *memoized(uint64_t Root) const {
    auto It = TermMemo.find(Root);
    return It == TermMemo.end() ? nullptr : &It->second;
  }
  void memoize(uint64_t Root, const ExtractedTerm &Term) {
    // Crude memory bound: rendered terms can be large, and the memo only
    // needs to cover the roots a driver loops over between mutations.
    if (TermMemo.size() >= 1024)
      TermMemo.clear();
    TermMemo.emplace(Root, Term);
  }

private:
  /// Pooled singly-linked chain node for the reverse indexes.
  struct ChainNode {
    int32_t Next = -1;
    uint32_t Func = 0;
    uint32_t Row = 0;
  };
  /// Per-function bookkeeping: rows [0, Scanned) are reflected in the
  /// chains and have been cost-considered; Version is the table stamp at
  /// the end of the last refresh; Resets mirrors Table::resets() so a
  /// direct clear()/restore() (which breaks append-only) forces scratch.
  struct TableState {
    uint64_t Version = 0;
    uint64_t Resets = 0;
    size_t Scanned = 0;
  };

  bool Valid = false;
  Stats S;
  /// Terms rendered against the current cost state (cleared by every
  /// non-warm refresh).
  std::unordered_map<uint64_t, ExtractedTerm> TermMemo;
  /// Offset into UnionFind::mergeLog() up to which merges are folded.
  size_t LogPos = 0;
  std::vector<TableState> Tables;
  /// Dense per-id state (indexed by union-find id; grown on refresh).
  std::vector<Entry> Best;
  std::vector<int32_t> UseHead, UseTail;   ///< id -> rows using it as a key
  std::vector<int32_t> ProdHead, ProdTail; ///< id -> rows producing into it
  std::vector<ChainNode> Pool;
  /// Classes whose cost decreased and whose users need reconsidering.
  /// QueuePending dedups membership so a class improved t times before the
  /// drain reaches it rescans its use chain once, not t times.
  std::vector<uint64_t> Queue;
  std::vector<uint8_t> QueuePending;
  /// Visited scratch for dagCostFromRow: a class is visited in the current
  /// call iff its stamp equals DagEpoch (no per-call zeroing).
  mutable std::vector<uint32_t> DagVisited;
  mutable uint32_t DagEpoch = 0;

  bool participates(const EGraph &Graph, size_t Func) const;
  void ensureIdCapacity(size_t Ids);
  void enqueue(uint64_t Class) {
    if (!QueuePending[Class]) {
      QueuePending[Class] = 1;
      Queue.push_back(Class);
    }
  }
  void pushNode(std::vector<int32_t> &Head, std::vector<int32_t> &Tail,
                uint64_t Id, uint32_t Func, uint32_t Row);
  void foldChain(std::vector<int32_t> &Head, std::vector<int32_t> &Tail,
                 uint64_t Loser, uint64_t Winner);
  void consider(EGraph &Graph, uint32_t Func, uint32_t Row);
  /// Folds the merge-log suffix into the winners' entries and chains.
  /// Returns false on a tied-cost fold, which could make a best row
  /// reference its own merged class (the caller must rebuild from
  /// scratch; see the comment in the implementation).
  bool foldMerges(EGraph &Graph);
  /// Row-proportional phases run under governor checkpoints; each returns
  /// false when the governor tripped (or a fault was injected) mid-scan, in
  /// which case the caller must leave the index invalid — the partial scan
  /// has already pushed chain nodes the bookkeeping does not cover.
  bool scanSuffix(EGraph &Graph, size_t Func);
  bool drainQueue(EGraph &Graph);
  void rebuildFromScratch(EGraph &Graph);
};

/// Extracts the cheapest term represented by \p V (tree cost; DagCost is
/// filled in alongside). Returns nullopt when no term in the database
/// represents the value (possible for fresh ids that no constructor entry
/// outputs). Term building is iterative — arbitrarily deep terms extract
/// without recursion.
std::optional<ExtractedTerm> extractTerm(EGraph &Graph, Value V);

/// DAG-cost mode: the same (tree-cost-optimal) term selection, but Cost is
/// the DAG cost — every distinct class in the term is paid once, so shared
/// subterms are not double-counted (sharing-aware accounting in the spirit
/// of Accattoli et al.; selection stays greedy, as in egg's dag extractor).
std::optional<ExtractedTerm> extractTermDag(EGraph &Graph, Value V);

/// Computes only the tree cost of the cheapest representative of \p V.
std::optional<int64_t> extractCost(EGraph &Graph, Value V);

/// Extracts up to \p MaxVariants distinct terms represented by \p V: one
/// per function entry whose output lies in V's class, each completed with
/// cheapest-cost children, cheapest first. Used by the mini-Herbie
/// candidate selection (§6.2), which evaluates several equivalent programs
/// and keeps the most accurate. Repeated calls reuse the warm index, so
/// asking for a larger count later repeats no cost-fixpoint work (variants
/// are re-rendered; order is deterministic, so the earlier result is a
/// prefix of the later one).
std::vector<ExtractedTerm> extractVariants(EGraph &Graph, Value V,
                                           size_t MaxVariants);

} // namespace egglog

#endif // EGGLOG_CORE_EXTRACT_H
