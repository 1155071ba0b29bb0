//===- tests/oracle/Reference.h - Independent reference evaluator -*- C++ -*-===//
//
// Part of egglog-cpp. A deliberately naive evaluator for differential
// testing. It shares no join, index, delta, or rebuild code with the
// engine: only the database's public row API (Table rows, setValue,
// canonicalize, runActions) and the primitive registry.
//
//   * ReferenceJoin enumerates a query's matches by nested loops over a
//     fresh scan of every live row, in atom order, evaluating the query's
//     primitives with its own ready-loop.
//   * sweepRebuild restores canonical form by re-canonicalizing every live
//     row of every table until a pass changes nothing (no worklist, no
//     occurrence index).
//   * referenceRun is naive evaluation (§4.2): each iteration matches every
//     rule of a ruleset from scratch, applies the matches in order, and
//     sweeps.
//   * extractCostsReference is the from-scratch extraction cost fixpoint
//     (§3.4), for checking the engine's incremental ExtractIndex.
//   * referenceContentHash recomputes the live-content hash by a full
//     sweep, for checking the sum each Table keeps up to date.
//
// Every tests/**/*.cpp file is its own test executable, so this lives in a
// header.
//
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_TESTS_ORACLE_REFERENCE_H
#define EGGLOG_TESTS_ORACLE_REFERENCE_H

#include "core/Frontend.h"
#include "support/Hashing.h"

#include <limits>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

namespace egglog::oracle {

/// A match as the raw bits of its environment, and a match multiset.
using MatchBits = std::vector<uint64_t>;
using MatchMultiset = std::map<MatchBits, size_t>;

/// From-scratch reference executor: nested loops over a fresh scan of the
/// live rows. \p Filters (one per atom, or empty for all-All) restricts an
/// atom to the rows stamped before (Old) or at/after (New) \p Bound.
class ReferenceJoin {
public:
  ReferenceJoin(EGraph &G, const Query &Q,
                std::vector<AtomFilter> Filters = {}, uint32_t Bound = 0)
      : G(G), Q(Q), Filters(std::move(Filters)), Bound(Bound) {}

  /// Every match's environment (one value per query variable), in
  /// enumeration order.
  std::vector<std::vector<Value>> matches() {
    Env.assign(Q.NumVars, Value());
    IsBound.assign(Q.NumVars, false);
    PrimDone.assign(Q.Prims.size(), false);
    Trail.clear();
    Out.clear();
    if (runReadyPrims())
      recurse(0);
    return std::move(Out);
  }

  /// The matches as a multiset of raw bits.
  MatchMultiset run() {
    MatchMultiset Result;
    for (const std::vector<Value> &M : matches()) {
      MatchBits Bits;
      for (const Value &V : M)
        Bits.push_back(V.Bits);
      ++Result[Bits];
    }
    return Result;
  }

private:
  EGraph &G;
  const Query &Q;
  std::vector<AtomFilter> Filters;
  uint32_t Bound;
  std::vector<Value> Env;
  std::vector<bool> IsBound;
  std::vector<bool> PrimDone;
  /// Undo log: (true, variable) for a binding, (false, primitive) for a
  /// primitive marked done.
  std::vector<std::pair<bool, uint32_t>> Trail;
  std::vector<std::vector<Value>> Out;

  void undo(size_t Mark) {
    for (; Trail.size() > Mark; Trail.pop_back()) {
      auto [IsVar, Index] = Trail.back();
      if (IsVar)
        IsBound[Index] = false;
      else
        PrimDone[Index] = false;
    }
  }

  bool bind(uint32_t Var, Value V) {
    if (IsBound[Var])
      return Env[Var] == V;
    Env[Var] = V;
    IsBound[Var] = true;
    Trail.emplace_back(true, Var);
    return true;
  }

  /// Runs every primitive whose arguments are bound, until none is left
  /// ready; false if one fails or contradicts a binding or constant.
  bool runReadyPrims() {
    for (bool Progress = true; Progress;) {
      Progress = false;
      for (uint32_t I = 0; I < Q.Prims.size(); ++I) {
        const PrimComputation &P = Q.Prims[I];
        if (PrimDone[I])
          continue;
        std::vector<Value> Args;
        for (const VarOrConst &Arg : P.Args) {
          if (Arg.IsVar && !IsBound[Arg.Var])
            break;
          Args.push_back(Arg.IsVar ? Env[Arg.Var] : Arg.Const);
        }
        if (Args.size() != P.Args.size())
          continue;
        Value Result;
        if (!G.primitives().get(P.Prim).Apply(G, Args.data(), Result))
          return false;
        if (P.Out.IsVar ? !bind(P.Out.Var, Result) : Result != P.Out.Const)
          return false;
        PrimDone[I] = true;
        Trail.emplace_back(false, I);
        Progress = true;
      }
    }
    return true;
  }

  void recurse(size_t AtomIndex) {
    if (AtomIndex == Q.Atoms.size()) {
      for (bool Done : PrimDone)
        if (!Done)
          return;
      for (bool B : IsBound)
        if (!B)
          return;
      Out.push_back(Env);
      return;
    }
    const QueryAtom &Atom = Q.Atoms[AtomIndex];
    AtomFilter Filter =
        Filters.empty() ? AtomFilter::All : Filters[AtomIndex];
    const Table &T = *G.function(Atom.Func).Storage;
    for (size_t Row = 0, Rows = T.rowCount(); Row < Rows; ++Row) {
      if (!T.isLive(Row))
        continue;
      if (Filter == AtomFilter::Old && T.stamp(Row) >= Bound)
        continue;
      if (Filter == AtomFilter::New && T.stamp(Row) < Bound)
        continue;
      size_t Mark = Trail.size();
      bool Ok = true;
      for (unsigned I = 0; I < Atom.Terms.size() && Ok; ++I) {
        const VarOrConst &Term = Atom.Terms[I];
        Ok = Term.IsVar ? bind(Term.Var, T.cell(Row, I))
                        : T.cell(Row, I) == G.canonicalize(Term.Const);
      }
      if (Ok && runReadyPrims())
        recurse(AtomIndex + 1);
      undo(Mark);
    }
  }
};

/// Restores canonical form by brute force: every pass re-canonicalizes
/// every live row of every table (a stale row is erased and re-inserted
/// through setValue, which applies the merge on a key collision), until a
/// pass rewrites nothing. Returns the number of passes. The union-find's
/// dirty worklist is left as is; a later EGraph::rebuild() drains it
/// without changing any content.
inline unsigned sweepRebuild(EGraph &G) {
  unsigned Passes = 0;
  std::vector<Value> Row;
  for (bool Changed = true; Changed && !G.failed();) {
    Changed = false;
    ++Passes;
    for (FunctionId F = 0; F < G.numFunctions(); ++F) {
      Table &T = *G.function(F).Storage;
      Row.resize(T.rowWidth());
      for (size_t R = 0, Rows = T.rowCount(); R < Rows; ++R) {
        if (!T.isLive(R))
          continue;
        bool Stale = false;
        for (unsigned C = 0; C < Row.size(); ++C) {
          Row[C] = G.canonicalize(T.cell(R, C));
          Stale |= Row[C] != T.cell(R, C);
        }
        if (!Stale)
          continue;
        Changed = true;
        T.eraseRow(R);
        if (!G.setValue(F, Row.data(), Row.back()))
          return Passes;
      }
    }
  }
  return Passes;
}

/// The live-content hash of \p T, the storage of function \p Func, by a
/// full sweep: each live row's cells folded into a hash seeded by the
/// function id, summed over the rows (order-independent). Table keeps the
/// same sum incrementally (Table::liveHash).
inline uint64_t referenceTableHash(const Table &T, FunctionId Func) {
  uint64_t Total = 0;
  for (size_t Row : T.liveRows()) {
    uint64_t RowHash = hashMix(Func + 0x9E3779B97F4A7C15ull);
    for (unsigned I = 0; I < T.rowWidth(); ++I)
      RowHash = hashCombine(RowHash, T.cell(Row, I).hash());
    Total += RowHash;
  }
  return Total;
}

/// EGraph::liveContentHash by a full sweep of every table.
inline uint64_t referenceContentHash(const EGraph &G) {
  uint64_t Total = 0;
  for (FunctionId F = 0; F < G.numFunctions(); ++F)
    Total += referenceTableHash(*G.function(F).Storage, F);
  return Total;
}

/// Naive evaluation of up to \p N iterations of \p Ruleset over \p F's
/// database, with the engine's rules but none of its machinery: each
/// iteration collects every match of every rule of the ruleset from
/// scratch (ReferenceJoin over all rows), bumps the timestamp, applies the
/// matches in (rule, match) order through runActions — a failed action
/// abandons its match, as in the engine — and sweeps (sweepRebuild). Stops
/// early once an iteration leaves the live content unchanged, or when the
/// database fails.
inline void referenceRun(Frontend &F, RulesetId Ruleset, unsigned N) {
  EGraph &G = F.graph();
  const Engine &E = F.engine();
  sweepRebuild(G);
  for (unsigned Iter = 0; Iter < N && !G.failed(); ++Iter) {
    size_t LiveBefore = G.liveTupleCount();
    uint64_t HashBefore = referenceContentHash(G);
    std::vector<std::pair<size_t, std::vector<std::vector<Value>>>> Found;
    for (size_t R = 0; R < E.numRules(); ++R)
      if (E.rule(R).Ruleset == Ruleset)
        Found.emplace_back(R, ReferenceJoin(G, E.rule(R).Body).matches());
    G.bumpTimestamp();
    for (auto &[R, Matches] : Found) {
      const Rule &TheRule = E.rule(R);
      for (std::vector<Value> &Env : Matches) {
        Env.resize(TheRule.NumSlots);
        if (!G.runActions(TheRule.Actions, Env)) {
          if (G.failed())
            return;
          G.clearError();
        }
      }
    }
    sweepRebuild(G);
    if (G.liveTupleCount() == LiveBefore &&
        referenceContentHash(G) == HashBefore)
      return;
  }
}

/// From-scratch extraction cost fixpoint: the cheapest tree cost per
/// canonical id, by relaxing every live row of every id-sorted function
/// until a pass lowers nothing. A row costs its function's declared cost
/// plus its children's costs (1 per base value); a class no finite row
/// reaches has no entry. Quadratic; meant for small test databases.
inline std::unordered_map<uint64_t, int64_t>
extractCostsReference(EGraph &G) {
  constexpr int64_t Infinity = std::numeric_limits<int64_t>::max();
  std::unordered_map<uint64_t, int64_t> Costs;
  auto CostOf = [&](Value V) -> int64_t {
    if (!G.sorts().isIdSort(V.Sort))
      return 1;
    auto It = Costs.find(G.unionFind().find(V.Bits));
    return It == Costs.end() ? Infinity : It->second;
  };
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (FunctionId Func = 0; Func < G.numFunctions(); ++Func) {
      const FunctionInfo &Info = G.function(Func);
      if (!G.sorts().isIdSort(Info.Decl.OutSort))
        continue;
      const Table &T = *Info.Storage;
      for (size_t Row : T.liveRows()) {
        int64_t Total = Info.Decl.Cost;
        for (unsigned I = 0; I < Info.numKeys() && Total != Infinity; ++I) {
          int64_t Child = CostOf(T.cell(Row, I));
          Total = Child == Infinity || Total > Infinity - Child
                      ? Infinity
                      : Total + Child;
        }
        if (Total == Infinity)
          continue;
        uint64_t Out = G.unionFind().find(T.output(Row).Bits);
        auto It = Costs.find(Out);
        if (It == Costs.end() || Total < It->second) {
          Costs[Out] = Total;
          Changed = true;
        }
      }
    }
  }
  return Costs;
}

} // namespace egglog::oracle

#endif // EGGLOG_TESTS_ORACLE_REFERENCE_H
