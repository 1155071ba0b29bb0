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
//
// Every tests/**/*.cpp file is its own test executable, so this lives in a
// header.
//
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_TESTS_ORACLE_REFERENCE_H
#define EGGLOG_TESTS_ORACLE_REFERENCE_H

#include "core/Frontend.h"

#include <map>
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
    uint64_t HashBefore = G.liveContentHash();
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
        G.liveContentHash() == HashBefore)
      return;
  }
}

} // namespace egglog::oracle

#endif // EGGLOG_TESTS_ORACLE_REFERENCE_H
