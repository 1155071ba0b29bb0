//===- core/Query.h - Relational query execution ---------------*- C++ -*-===//
//
// Part of egglog-cpp. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes flattened conjunctive queries against the database with a
/// sort-based worst-case-optimal generic join (§5.1 "Query Engine", after
/// relational e-matching and Ngo et al. 2018). Each atom resolves to a
/// cached column index (see Index.h) sorted by the query's global variable
/// order, and variables are bound one at a time by intersecting the atoms
/// that contain them. Primitive computations run as soon as their inputs
/// are bound, pruning eagerly.
///
/// For semi-naïve evaluation (§4.3), a query can be executed with one atom
/// restricted to the delta (rows stamped at or after a bound), earlier
/// atoms restricted to old rows, and later atoms unrestricted; the engine
/// runs one such variant per atom (makeDeltaVariantFilters in Index.h).
///
/// Matches land in a flat arena, NumVars values each. The executeQuery
/// convenience wrapper replays an arena through a per-match callback for
/// tests and benchmarks.
///
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_CORE_QUERY_H
#define EGGLOG_CORE_QUERY_H

#include "core/Ast.h"
#include "core/EGraph.h"
#include "core/Index.h"

#include <functional>
#include <memory>
#include <vector>

namespace egglog {

/// Callback invoked once per substitution; the environment holds a value
/// for every query variable.
using MatchCallback = std::function<void(const std::vector<Value> &)>;

/// Reusable execution context for one query. The atom shapes are analyzed
/// once at construction and the join scratch buffers persist across
/// executions, so a rule's semi-naïve delta variants and repeated engine
/// iterations run allocation-free in the steady state. The referenced
/// Query (and EGraph) must outlive the executor.
///
/// An execution is two steps. prepare() does every lazy database-side
/// step: partition counts, the variable order, index builds and refreshes,
/// re-canonicalization of the query's constants, and narrowing to them.
/// join() then enumerates the matches over the prepared ranges and touches
/// no cache, so joins of different executors may run concurrently over one
/// database, provided the database is not mutated between their prepares
/// and their joins and the query's primitives are themselves read-only
/// (the engine checks this; see Engine.cpp queryIsParallelSafe).
class QueryExecutor {
public:
  QueryExecutor(EGraph &Graph, const Query &Q);
  ~QueryExecutor();
  QueryExecutor(QueryExecutor &&) noexcept;
  QueryExecutor &operator=(QueryExecutor &&) noexcept;

  /// Plans one filter variant (see executeQuery below for the semantics of
  /// \p Filters and \p DeltaBound) and resolves each atom to its narrowed
  /// index range. Returns false if the variant has no match (some atom has
  /// no candidate rows); the next join() then finds nothing.
  bool prepare(const std::vector<AtomFilter> &Filters, uint32_t DeltaBound);

  /// Runs the join planned by the last prepare(), appending each match's
  /// environment (NumVars values) to \p Arena and bumping \p Count — the
  /// engine's hot path, free of per-match indirect calls. If \p Cancel is
  /// provided it is polled periodically; returning true aborts the search
  /// (used to enforce run timeouts inside a single large join). The
  /// database must be unchanged since that prepare().
  void join(std::vector<Value> &Arena, size_t &Count,
            const std::function<bool()> *Cancel = nullptr);

  /// prepare() then join().
  void executeCollect(const std::vector<AtomFilter> &Filters,
                      uint32_t DeltaBound, std::vector<Value> &Arena,
                      size_t &Count,
                      const std::function<bool()> *Cancel = nullptr);

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

/// Executes \p Q against \p Graph and calls \p Callback once per match,
/// in the order executeCollect found them. \p Filters gives a per-atom
/// restriction (it must have one entry per atom, or be empty for all-All),
/// and \p DeltaBound is the timestamp splitting Old from New.
void executeQuery(EGraph &Graph, const Query &Q,
                  const std::vector<AtomFilter> &Filters, uint32_t DeltaBound,
                  const MatchCallback &Callback,
                  const std::function<bool()> *Cancel = nullptr);

/// Convenience wrapper: runs \p Q with no delta restriction.
inline void executeQuery(EGraph &Graph, const Query &Q,
                         const MatchCallback &Callback) {
  executeQuery(Graph, Q, {}, 0, Callback);
}

} // namespace egglog

#endif // EGGLOG_CORE_QUERY_H
