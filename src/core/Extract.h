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
/// The EGraph owns a persistent ExtractIndex: a cost/best-row table over
/// union-find ids plus reverse use chains (id -> rows that take it as a
/// key). It validates itself against the tables' version() stamps and the
/// losing roots that EGraph::rebuild() hands over from its worklist.
/// Repeated extraction over an unchanged database does zero row sweeps;
/// after inserts it scans only the appended row suffix; after merges it
/// folds the handed-over losers and propagates cost decreases through the
/// use chains (costs under inserts and unions only ever decrease, so
/// decrease-propagation reaches the same fixpoint as a from-scratch run).
/// Genuine deletions (the delete action, rollback, pop) invalidate the
/// index, which then rebuilds from scratch on the next refresh. Terms are
/// rendered on every call; variants find their rows in the tables'
/// occurrence indexes. See DESIGN.md "Extraction".
///
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_CORE_EXTRACT_H
#define EGGLOG_CORE_EXTRACT_H

#include "core/EGraph.h"

#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace egglog {

/// An extracted term with its tree cost (every subterm occurrence paid for
/// separately, the paper's §3.4 metric).
struct ExtractedTerm {
  std::string Text;
  int64_t Cost = 0;
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
    uint64_t MergesFolded = 0;  ///< handed-over losing roots folded
  };

  /// Brings the index up to date with the database. Rebuilds the graph
  /// first if unions are pending (extraction is specified over a rebuilt
  /// database). Cheap when nothing changed.
  void refresh(EGraph &Graph);

  /// Records one drained rebuild pass's losing roots (EGraph::rebuild()
  /// calls this in merge order); the next refresh folds them. Ignored while
  /// the index is invalid, since the scratch rebuild covers every merge.
  void noteMerged(const std::vector<uint64_t> &Losers) {
    if (Valid)
      Merged.insert(Merged.end(), Losers.begin(), Losers.end());
  }

  /// Marks the cached state unusable; the next refresh recomputes from
  /// scratch. Called by the EGraph on txnRollback() (a failed command or a
  /// (pop)) and on term deletion (the only mutations under which class
  /// costs can increase). Releases every container but the counters: the
  /// scratch rebuild reads none of them, and an invalid index must not hold
  /// memory against the governor's ceiling (else an extract that tripped
  /// it and rolled back would leave the ceiling tripped).
  void invalidate() {
    Stats Kept = S;
    *this = ExtractIndex();
    S = Kept;
  }
  bool valid() const { return Valid; }

  /// Bytes held by the index: the per-id arrays, the use-chain pool, the
  /// queue and the pending hand-over (which grows by one id per union until
  /// the next refresh). Counted toward the governor's memory ceiling by
  /// EGraph::approxBytes().
  size_t approxBytes() const;

  const Stats &stats() const { return S; }

  /// Tree cost of the cheapest term for \p V (1 for base values, Infinity
  /// when no term in the database represents the class).
  int64_t costOf(const EGraph &Graph, Value V) const;

  /// Best entry for \p V's class, or nullptr for base values / classes
  /// without a finite-cost derivation.
  const Entry *best(const EGraph &Graph, Value V) const;

private:
  /// Pooled singly-linked chain node for the use chains.
  struct ChainNode {
    int32_t Next = -1;
    uint32_t Func = 0;
    uint32_t Row = 0;
  };
  /// Per-function bookkeeping: rows [0, Scanned) are reflected in the
  /// chains and have been cost-considered; Version is the table stamp at
  /// the end of the last refresh.
  struct TableState {
    uint64_t Version = 0;
    size_t Scanned = 0;
  };

  bool Valid = false;
  Stats S;
  /// Losing roots handed over by rebuild since the last refresh, in merge
  /// order.
  std::vector<uint64_t> Merged;
  std::vector<TableState> Tables;
  /// Dense per-id state (indexed by union-find id; grown on refresh).
  std::vector<Entry> Best;
  /// id -> rows using it as a key. Append-only: a merged-away class keeps
  /// its chain, which by then holds only dead rows (see foldMerges).
  std::vector<int32_t> UseHead;
  std::vector<ChainNode> Pool;
  /// Classes whose cost decreased and whose users need reconsidering.
  /// QueuePending dedups membership so a class improved t times before the
  /// drain reaches it rescans its use chain once, not t times.
  std::vector<uint64_t> Queue;
  std::vector<uint8_t> QueuePending;

  bool participates(const EGraph &Graph, size_t Func) const;
  void ensureIdCapacity(size_t Ids);
  void enqueue(uint64_t Class) {
    if (!QueuePending[Class]) {
      QueuePending[Class] = 1;
      Queue.push_back(Class);
    }
  }
  void pushUse(uint64_t Id, uint32_t Func, uint32_t Row);
  void consider(EGraph &Graph, uint32_t Func, uint32_t Row);
  /// Folds the handed-over losers into the winners' entries, then clears
  /// the list. Returns false on a tied-cost fold, which could
  /// make a best row reference its own merged class (the caller must
  /// rebuild from scratch; see the comment in the implementation).
  bool foldMerges(EGraph &Graph);
  /// Row-proportional phases run under governor checkpoints; each returns
  /// false when the governor tripped (or a fault was injected) mid-scan, in
  /// which case the caller must leave the index invalid — the partial scan
  /// has already pushed chain nodes the bookkeeping does not cover.
  bool scanSuffix(EGraph &Graph, size_t Func);
  bool drainQueue(EGraph &Graph);
  void rebuildFromScratch(EGraph &Graph);
};

/// Extracts the cheapest term represented by \p V. Returns nullopt when no
/// term in the database represents the value (possible for fresh ids that
/// no constructor entry outputs). Term building is iterative — arbitrarily
/// deep terms extract without recursion.
std::optional<ExtractedTerm> extractTerm(EGraph &Graph, Value V);

/// Computes only the tree cost of the cheapest representative of \p V.
std::optional<int64_t> extractCost(EGraph &Graph, Value V);

/// Extracts up to \p MaxVariants distinct terms represented by \p V: one
/// per function entry whose output lies in V's class, each completed with
/// cheapest-cost children, cheapest first. Used by the mini-Herbie
/// candidate selection (§6.2), which evaluates several equivalent programs
/// and keeps the most accurate. Repeated calls reuse the warm index, so
/// asking for a larger count later repeats no cost-fixpoint work (variants
/// are re-rendered; order is deterministic, so the earlier result is a
/// prefix of the later one). The candidate rows come from V's class's
/// occurrence list in every table whose output sort is V's sort, so a call
/// costs O(occurrences of the class), not O(rows of the sort).
std::vector<ExtractedTerm> extractVariants(EGraph &Graph, Value V,
                                           size_t MaxVariants);

} // namespace egglog

#endif // EGGLOG_CORE_EXTRACT_H
