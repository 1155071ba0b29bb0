//===- core/Query.cpp - Relational query execution --------------------------===//
//
// Part of egglog-cpp. See Query.h for an overview.
//
//===----------------------------------------------------------------------===//

#include "core/Query.h"

#include <algorithm>
#include <cassert>

using namespace egglog;

namespace {

/// One join column of an atom: a query variable and every term position
/// holding it (the first occurrence, then repeats). All positions must
/// carry the same value in a matching row; the join narrows on each in
/// turn.
struct AtomCol {
  uint32_t Var = 0;
  std::vector<unsigned> Positions;
};

/// Execution state for one atom: a shared cached column index (sorted by
/// constants first, then the query's global variable order), and the
/// currently narrowed range within it. The shape (Cols, Consts positions)
/// is precomputed once per query; only the range and the index pointer
/// change between executions.
struct AtomExec {
  const QueryAtom *Atom = nullptr;
  /// Sorted candidate row ids, borrowed from the table's IndexCache by
  /// prepare(). Stable until the table is next mutated.
  const std::vector<uint32_t> *Rows = nullptr;
  /// Base pointer of each term position's column array in the columnar
  /// table storage: ColBase[Pos][(*Rows)[I]] is candidate I's value at
  /// term position Pos. Captured by prepare(); stable until the table is
  /// next mutated.
  std::vector<const Value *> ColBase;
  /// Table version at prepare(), for join()'s freshness assertion.
  uint64_t PreparedVersion = 0;
  /// The atom's distinct variables, re-sorted to global variable order at
  /// the start of every execution.
  std::vector<AtomCol> Cols;
  /// Constant term positions in term order (the leading columns of the
  /// index permutation); values are re-canonicalized by every prepare().
  std::vector<std::pair<unsigned, Value>> Consts;
  size_t Lo = 0, Hi = 0;
  /// Number of leading columns already bound at the current depth.
  unsigned Depth = 0;
};

/// Backtracking trail entry: a variable binding or a primitive execution to
/// undo.
struct TrailEntry {
  bool IsVar;
  uint32_t Index;
};

/// Stable insertion sort for the tiny arrays the planner reorders per
/// execution (atom columns, the variable order). std::stable_sort
/// heap-allocates a temporary buffer even for a handful of elements, which
/// would dominate these call sites.
template <typename Iter, typename Less>
void insertionSort(Iter First, Iter Last, Less Cmp) {
  for (Iter I = First; I != Last; ++I)
    for (Iter J = I; J != First && Cmp(*J, *(J - 1)); --J)
      std::iter_swap(J, J - 1);
}

/// First index in [Lo, Hi) whose column value is >= \p V: a lower bound
/// over the id-indirected column array (Col[Ids[I]] is candidate I's
/// value, non-decreasing over the range).
size_t lowerBoundIds(const uint32_t *Ids, const Value *Col, size_t Lo,
                     size_t Hi, Value V) {
  while (Lo < Hi) {
    size_t Mid = Lo + (Hi - Lo) / 2;
    if (Col[Ids[Mid]] < V)
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return Lo;
}

/// First index in [Lo, Hi) whose column value is > \p V.
size_t upperBoundIds(const uint32_t *Ids, const Value *Col, size_t Lo,
                     size_t Hi, Value V) {
  while (Lo < Hi) {
    size_t Mid = Lo + (Hi - Lo) / 2;
    if (V < Col[Ids[Mid]])
      Hi = Mid;
    else
      Lo = Mid + 1;
  }
  return Lo;
}

/// lowerBoundIds specialized for a probe expected to land near \p Lo:
/// gallop (exponential steps) to bracket the answer, then binary-search
/// the final window. The batched join probes sweep each participant with
/// an ascending run of candidate values, so successive answers are close
/// together and the gallop costs O(log gap) instead of O(log range).
size_t gallopLowerBoundIds(const uint32_t *Ids, const Value *Col, size_t Lo,
                           size_t Hi, Value V) {
  if (Lo >= Hi || !(Col[Ids[Lo]] < V))
    return Lo;
  size_t Step = 1;
  while (Lo + Step < Hi && Col[Ids[Lo + Step]] < V)
    Step *= 2;
  // Col[Ids[Lo + Step/2]] < V, and either Lo + Step overshoots Hi or
  // Col[Ids[Lo + Step]] >= V: the answer lies in (Lo+Step/2, Lo+Step].
  return lowerBoundIds(Ids, Col, Lo + Step / 2 + 1, std::min(Lo + Step, Hi),
                       V);
}

/// upperBoundIds with the same gallop-from-\p Lo strategy (equal runs are
/// typically short, so the run end is near its start).
size_t gallopUpperBoundIds(const uint32_t *Ids, const Value *Col, size_t Lo,
                           size_t Hi, Value V) {
  if (Lo >= Hi || V < Col[Ids[Lo]])
    return Lo;
  size_t Step = 1;
  while (Lo + Step < Hi && !(V < Col[Ids[Lo + Step]]))
    Step *= 2;
  return upperBoundIds(Ids, Col, Lo + Step / 2 + 1, std::min(Lo + Step, Hi),
                       V);
}

} // namespace

/// The generic-join interpreter. One instance per query, reusable across
/// executions: all buffers persist, so a rule's semi-naïve delta variants
/// and repeated engine iterations run allocation-free in the steady state.
struct egglog::QueryExecutor::Impl {
  Impl(EGraph &Graph, const Query &Q) : Graph(Graph), Q(Q) {
    // Precompute each atom's shape: join columns (with repeated variable
    // occurrences folded into one column) and constant positions.
    Atoms.reserve(Q.Atoms.size());
    std::vector<bool> SeenVar;
    std::vector<size_t> ColOf;
    for (const QueryAtom &Atom : Q.Atoms) {
      AtomExec Exec;
      Exec.Atom = &Atom;
      SeenVar.assign(Q.NumVars, false);
      ColOf.resize(Q.NumVars);
      for (unsigned I = 0; I < Atom.Terms.size(); ++I) {
        const VarOrConst &Term = Atom.Terms[I];
        if (!Term.IsVar) {
          Exec.Consts.emplace_back(I, Term.Const);
          continue;
        }
        if (SeenVar[Term.Var]) {
          Exec.Cols[ColOf[Term.Var]].Positions.push_back(I);
        } else {
          SeenVar[Term.Var] = true;
          ColOf[Term.Var] = Exec.Cols.size();
          Exec.Cols.push_back(AtomCol{Term.Var, {I}});
        }
      }
      Atoms.push_back(std::move(Exec));
    }
  }

  bool prepare(const std::vector<AtomFilter> &Filters, uint32_t DeltaBound) {
    Prepared = materialize(Filters, DeltaBound);
    return Prepared;
  }

  void join(std::vector<Value> &Arena, size_t &Count,
            const std::function<bool()> *TheCancel) {
    if (!Prepared)
      return;
#ifndef NDEBUG
    for (const AtomExec &Exec : Atoms)
      assert(Graph.function(Exec.Atom->Func).Storage->version() ==
                 Exec.PreparedVersion &&
             "join() after the database changed since prepare()");
#endif
    CollectArena = &Arena;
    CollectCount = &Count;
    Cancel = TheCancel;
    StepCount = 0;
    Cancelled = false;
    run();
    CollectArena = nullptr;
    CollectCount = nullptr;
    Cancel = nullptr;
  }

private:
  EGraph &Graph;
  const Query &Q;
  /// Whether the last prepare() found candidates for every atom.
  bool Prepared = false;
  /// Match sink, armed for one join(): a flat arena (NumVars values per
  /// match) plus a match counter.
  std::vector<Value> *CollectArena = nullptr;
  size_t *CollectCount = nullptr;
  const std::function<bool()> *Cancel = nullptr;
  uint64_t StepCount = 0;
  bool Cancelled = false;

  bool checkCancel() {
    if (Cancelled)
      return true;
    if (!Cancel || (++StepCount & 0xFFF) != 0)
      return false;
    Cancelled = (*Cancel)();
    return Cancelled;
  }

  std::vector<AtomExec> Atoms;
  std::vector<uint32_t> VarOrder;
  std::vector<Value> Env;
  std::vector<bool> BoundFlags;
  std::vector<bool> PrimDone;
  /// Primitives not yet executed; lets the hot paths skip the prim scan.
  size_t PendingPrims = 0;
  std::vector<TrailEntry> Trail;

  // Scratch reused across executions to keep the steady state
  // allocation-free.
  std::vector<size_t> AtomSizes;
  std::vector<unsigned> VarPosition;
  std::vector<unsigned> Perm;
  std::vector<Value> PrimArgs;
  struct SavedRange {
    size_t Lo, Hi;
    unsigned Depth;
  };
  struct LevelScratch {
    std::vector<size_t> Participants;
    std::vector<SavedRange> Saved;
    /// Per-participant sweep cursor for the batched probes: a monotone
    /// lower bound on where the next (ascending) candidate can start.
    std::vector<size_t> Cursors;
  };
  std::vector<LevelScratch> Levels;

  void run() {
    Env.assign(Q.NumVars, Value());
    BoundFlags.assign(Q.NumVars, false);
    PrimDone.assign(Q.Prims.size(), false);
    PendingPrims = Q.Prims.size();
    Trail.clear();
    Levels.resize(VarOrder.size());
    // Bind nothing yet, but primitives with no variable inputs can run
    // immediately (e.g. constant filters).
    if (!runReadyPrims())
      return;
    joinLevel(0);
  }

  /// Resolves each atom to a cached column index, narrowed to its constant
  /// terms. Returns false if any atom has no candidates (query is empty).
  ///
  /// Unlike the pre-index engine, this never scans or sorts table rows
  /// itself: the table's IndexCache supplies the sorted candidate list,
  /// shared across delta variants, rules, and iterations. Constants are
  /// resolved with binary searches over the index's leading columns, and
  /// repeated-variable consistency is enforced by narrowing every
  /// occurrence during the join.
  bool materialize(const std::vector<AtomFilter> &Filters,
                   uint32_t DeltaBound) {
    // Cheap pre-pass: bail before doing any work if some atom's stamp
    // partition is empty (the common case for semi-naïve delta variants
    // once the database approaches saturation).
    AtomSizes.resize(Atoms.size());
    for (size_t AtomIndex = 0; AtomIndex < Atoms.size(); ++AtomIndex) {
      AtomFilter Filter =
          Filters.empty() ? AtomFilter::All : Filters[AtomIndex];
      const Table &T =
          *Graph.function(Atoms[AtomIndex].Atom->Func).Storage;
      size_t Size = T.liveCount();
      if (Filter != AtomFilter::All) {
        auto [Old, New] = T.indexes().partitionCounts(DeltaBound);
        Size = Filter == AtomFilter::Old ? Old : New;
      }
      if (Size == 0)
        return false;
      AtomSizes[AtomIndex] = Size;
    }

    chooseVariableOrder(AtomSizes);

    // Fetch each atom's index for the chosen permutation and narrow it to
    // the (re-canonicalized) constants.
    VarPosition.assign(Q.NumVars, 0);
    for (unsigned I = 0; I < VarOrder.size(); ++I)
      VarPosition[VarOrder[I]] = I;
    for (size_t AtomIndex = 0; AtomIndex < Atoms.size(); ++AtomIndex) {
      AtomExec &Exec = Atoms[AtomIndex];
      AtomFilter Filter =
          Filters.empty() ? AtomFilter::All : Filters[AtomIndex];
      insertionSort(Exec.Cols.begin(), Exec.Cols.end(),
                    [&](const AtomCol &A, const AtomCol &B) {
                      return VarPosition[A.Var] < VarPosition[B.Var];
                    });
      Perm.clear();
      for (auto &[Pos, Const] : Exec.Consts) {
        Const = Graph.canonicalize(Exec.Atom->Terms[Pos].Const);
        Perm.push_back(Pos);
      }
      for (const AtomCol &Col : Exec.Cols)
        for (unsigned Pos : Col.Positions)
          Perm.push_back(Pos);

      const Table &T = *Graph.function(Exec.Atom->Func).Storage;
      const ColumnIndex &Index = T.indexes().get(Perm, Filter, DeltaBound);
      Exec.Rows = &Index.ids();
      Exec.ColBase.resize(Exec.Atom->Terms.size());
      for (unsigned P = 0; P < Exec.ColBase.size(); ++P)
        Exec.ColBase[P] = T.column(P);
      Exec.PreparedVersion = T.version();
      Exec.Lo = 0;
      Exec.Hi = Index.size();
      Exec.Depth = 0;
      for (const auto &[Pos, Const] : Exec.Consts)
        if (!narrowOn(Exec, Pos, Const))
          return false;
    }
    return true;
  }

  /// Greedy variable ordering: most-constrained (highest atom occurrence)
  /// first, breaking ties toward variables whose atoms are small.
  void chooseVariableOrder(const std::vector<size_t> &Sizes) {
    std::vector<unsigned> Occurrences(Q.NumVars, 0);
    std::vector<size_t> MinAtomSize(Q.NumVars, SIZE_MAX);
    for (size_t AtomIndex = 0; AtomIndex < Atoms.size(); ++AtomIndex) {
      for (const AtomCol &Col : Atoms[AtomIndex].Cols) {
        ++Occurrences[Col.Var];
        MinAtomSize[Col.Var] =
            std::min(MinAtomSize[Col.Var], Sizes[AtomIndex]);
      }
    }
    VarOrder.clear();
    for (uint32_t Var = 0; Var < Q.NumVars; ++Var)
      if (Occurrences[Var] > 0)
        VarOrder.push_back(Var);
    insertionSort(VarOrder.begin(), VarOrder.end(),
                  [&](uint32_t A, uint32_t B) {
                    if (Occurrences[A] != Occurrences[B])
                      return Occurrences[A] > Occurrences[B];
                    return MinAtomSize[A] < MinAtomSize[B];
                  });
  }

  size_t trailMark() const { return Trail.size(); }

  void trailUndo(size_t Mark) {
    while (Trail.size() > Mark) {
      TrailEntry Entry = Trail.back();
      Trail.pop_back();
      if (Entry.IsVar) {
        BoundFlags[Entry.Index] = false;
      } else {
        PrimDone[Entry.Index] = false;
        ++PendingPrims;
      }
    }
  }

  bool bindVar(uint32_t Var, Value V) {
    if (BoundFlags[Var])
      return Env[Var] == V;
    Env[Var] = V;
    BoundFlags[Var] = true;
    Trail.push_back(TrailEntry{true, Var});
    return true;
  }

  bool termReady(const VarOrConst &Term) const {
    return !Term.IsVar || BoundFlags[Term.Var];
  }

  Value termValue(const VarOrConst &Term) const {
    return Term.IsVar ? Env[Term.Var] : Term.Const;
  }

  /// Runs every primitive whose inputs are available; returns false if any
  /// fails or contradicts an existing binding.
  bool runReadyPrims() {
    if (PendingPrims == 0)
      return true;
    bool Progress = true;
    while (Progress) {
      Progress = false;
      for (size_t I = 0; I < Q.Prims.size(); ++I) {
        if (PrimDone[I])
          continue;
        const PrimComputation &P = Q.Prims[I];
        bool Ready = true;
        for (const VarOrConst &Arg : P.Args) {
          if (!termReady(Arg)) {
            Ready = false;
            break;
          }
        }
        if (!Ready)
          continue;
        PrimArgs.resize(P.Args.size());
        for (size_t J = 0; J < P.Args.size(); ++J)
          PrimArgs[J] = termValue(P.Args[J]);
        Value Result;
        if (!Graph.primitives().get(P.Prim).Apply(Graph, PrimArgs.data(),
                                                  Result))
          return false;
        if (P.Out.IsVar) {
          if (!bindVar(P.Out.Var, Result))
            return false;
        } else if (Result != P.Out.Const) {
          return false;
        }
        PrimDone[I] = true;
        --PendingPrims;
        Trail.push_back(TrailEntry{false, static_cast<uint32_t>(I)});
        if (PendingPrims == 0)
          return true;
        Progress = true;
      }
    }
    return true;
  }

  /// Narrows atom \p Exec to the rows whose term at \p Pos equals \p V,
  /// assuming the current range is sorted by that position (it is the next
  /// column of the index permutation); returns false if empty. Saves
  /// nothing; caller snapshots ranges.
  bool narrowOn(AtomExec &Exec, unsigned Pos, Value V) {
    const uint32_t *Ids = Exec.Rows->data();
    const Value *Col = Exec.ColBase[Pos];
    size_t Lo = lowerBoundIds(Ids, Col, Exec.Lo, Exec.Hi, V);
    if (Lo == Exec.Hi || Col[Ids[Lo]] != V)
      return false;
    Exec.Lo = Lo;
    Exec.Hi = upperBoundIds(Ids, Col, Lo + 1, Exec.Hi, V);
    return true;
  }

  /// Narrows atom \p Exec (whose next column must be bound to \p V) to the
  /// rows where every occurrence of that column's variable equals \p V.
  bool narrowTo(AtomExec &Exec, Value V) {
    for (unsigned Pos : Exec.Cols[Exec.Depth].Positions)
      if (!narrowOn(Exec, Pos, V))
        return false;
    ++Exec.Depth;
    return true;
  }

  /// narrowTo() with a sweep cursor for the first occurrence. The caller
  /// probes with an ascending run of candidate values, so \p Cursor — the
  /// previous probe's landing point — is a valid lower bound for this one:
  /// the equal range is found by galloping forward from it rather than
  /// bisecting the whole saved range (the "sort probe keys once, sweep the
  /// sorted run" half of the batched-probe scheme; the probe keys arrive
  /// pre-sorted because the driver's groups are themselves a sorted run).
  bool narrowToSwept(AtomExec &Exec, Value V, size_t &Cursor) {
    const AtomCol &Col = Exec.Cols[Exec.Depth];
    const uint32_t *Ids = Exec.Rows->data();
    const Value *C = Exec.ColBase[Col.Positions[0]];
    size_t Lo =
        gallopLowerBoundIds(Ids, C, std::max(Exec.Lo, Cursor), Exec.Hi, V);
    Cursor = Lo;
    if (Lo == Exec.Hi || C[Ids[Lo]] != V)
      return false;
    size_t RunEnd = gallopUpperBoundIds(Ids, C, Lo + 1, Exec.Hi, V);
    // The next candidate is strictly greater, so its run starts at or
    // after this run's end.
    Cursor = RunEnd;
    Exec.Lo = Lo;
    Exec.Hi = RunEnd;
    for (size_t P = 1; P < Col.Positions.size(); ++P)
      if (!narrowOn(Exec, Col.Positions[P], V))
        return false;
    ++Exec.Depth;
    return true;
  }

  void emitMatch() {
    // All join variables are bound; flush remaining primitives (those whose
    // outputs feed nothing else may still be pending).
    size_t Mark = trailMark();
    if (runReadyPrims()) {
      assert(PendingPrims == 0 &&
             "primitive left unexecuted; typechecker should have "
             "rejected this query");
      CollectArena->insert(CollectArena->end(), Env.begin(), Env.end());
      ++*CollectCount;
    }
    trailUndo(Mark);
  }

  void joinLevel(size_t Level) {
    if (checkCancel())
      return;
    if (Level == VarOrder.size()) {
      emitMatch();
      return;
    }
    uint32_t Var = VarOrder[Level];

    // Participants: atoms whose next unbound column is Var. The scratch is
    // per level, so the recursion into Level + 1 cannot clobber it.
    std::vector<size_t> &Participants = Levels[Level].Participants;
    Participants.clear();
    for (size_t I = 0; I < Atoms.size(); ++I) {
      AtomExec &Exec = Atoms[I];
      if (Exec.Depth < Exec.Cols.size() && Exec.Cols[Exec.Depth].Var == Var)
        Participants.push_back(I);
    }

    // Snapshot the participant ranges for backtracking.
    std::vector<SavedRange> &SavedRanges = Levels[Level].Saved;
    SavedRanges.resize(Participants.size());
    auto Snapshot = [&]() {
      for (size_t I = 0; I < Participants.size(); ++I) {
        AtomExec &Exec = Atoms[Participants[I]];
        SavedRanges[I] = SavedRange{Exec.Lo, Exec.Hi, Exec.Depth};
      }
    };
    auto Restore = [&]() {
      for (size_t I = 0; I < Participants.size(); ++I) {
        AtomExec &Exec = Atoms[Participants[I]];
        Exec.Lo = SavedRanges[I].Lo;
        Exec.Hi = SavedRanges[I].Hi;
        Exec.Depth = SavedRanges[I].Depth;
      }
    };

    if (BoundFlags[Var]) {
      // The variable was computed by a primitive: check, don't enumerate.
      Snapshot();
      bool Alive = true;
      for (size_t Index : Participants)
        if (!narrowTo(Atoms[Index], Env[Var])) {
          Alive = false;
          break;
        }
      if (Alive)
        joinLevel(Level + 1);
      Restore();
      return;
    }

    assert(!Participants.empty() &&
           "join variable not constrained by any atom");

    // Free-join-style binary fast path: with a single participant there is
    // nothing to intersect — enumerate its groups directly, skipping the
    // snapshot/restore bookkeeping.
    if (Participants.size() == 1) {
      binaryJoinLevel(Level, Var, Atoms[Participants[0]]);
      return;
    }

    // Driver: the participant with the smallest current range.
    size_t Driver = Participants[0];
    for (size_t Index : Participants)
      if (Atoms[Index].Hi - Atoms[Index].Lo <
          Atoms[Driver].Hi - Atoms[Driver].Lo)
        Driver = Index;
    AtomExec &DriverExec = Atoms[Driver];
    const uint32_t *DriverIds = DriverExec.Rows->data();
    const Value *DriverCol =
        DriverExec.ColBase[DriverExec.Cols[DriverExec.Depth].Positions[0]];

    // Batched probes: every non-driver participant keeps a sweep cursor.
    // The driver's candidates ascend across the group loop, so each
    // participant's equal range only moves forward — narrowToSwept gallops
    // from the cursor instead of bisecting the whole saved range.
    std::vector<size_t> &Cursors = Levels[Level].Cursors;
    Cursors.resize(Participants.size());
    for (size_t I = 0; I < Participants.size(); ++I)
      Cursors[I] = Atoms[Participants[I]].Lo;

    size_t GroupStart = DriverExec.Lo;
    size_t DriverHi = DriverExec.Hi;
    while (GroupStart < DriverHi) {
      Value Candidate = DriverCol[DriverIds[GroupStart]];
      size_t GroupEnd = GroupStart + 1;
      while (GroupEnd < DriverHi &&
             DriverCol[DriverIds[GroupEnd]] == Candidate)
        ++GroupEnd;

      Snapshot();
      size_t Mark = trailMark();
      bool Alive = true;
      for (size_t I = 0; I < Participants.size(); ++I) {
        size_t Index = Participants[I];
        if (Index == Driver) {
          // The group already fixes the first occurrence; narrow any
          // repeated occurrences of the variable to the same value.
          AtomExec &Exec = Atoms[Index];
          Exec.Lo = GroupStart;
          Exec.Hi = GroupEnd;
          const AtomCol &Col = Exec.Cols[Exec.Depth];
          for (size_t P = 1; Alive && P < Col.Positions.size(); ++P)
            Alive = narrowOn(Exec, Col.Positions[P], Candidate);
          if (!Alive)
            break;
          ++Exec.Depth;
          continue;
        }
        if (!narrowToSwept(Atoms[Index], Candidate, Cursors[I])) {
          Alive = false;
          break;
        }
      }
      if (Alive && bindVar(Var, Candidate) && runReadyPrims())
        joinLevel(Level + 1);
      trailUndo(Mark);
      Restore();

      GroupStart = GroupEnd;
    }
  }

  /// Single-participant join level: the candidate groups come from one
  /// atom, so there is no intersection to compute — a binary-join scan
  /// over its sorted run. At the last level, with a single occurrence and
  /// no pending primitives, it degenerates into a pure vectorized column
  /// scan emitting one match per group.
  void binaryJoinLevel(size_t Level, uint32_t Var, AtomExec &Exec) {
    const AtomCol &Col = Exec.Cols[Exec.Depth];
    const uint32_t *Ids = Exec.Rows->data();
    const Value *C = Exec.ColBase[Col.Positions[0]];
    size_t SavedLo = Exec.Lo, SavedHi = Exec.Hi;
    unsigned SavedDepth = Exec.Depth;

    if (Level + 1 == VarOrder.size() && Col.Positions.size() == 1 &&
        PendingPrims == 0) {
      for (size_t GroupStart = SavedLo; GroupStart < SavedHi;) {
        if (checkCancel())
          return;
        Value Candidate = C[Ids[GroupStart]];
        do
          ++GroupStart;
        while (GroupStart < SavedHi && C[Ids[GroupStart]] == Candidate);
        Env[Var] = Candidate;
        CollectArena->insert(CollectArena->end(), Env.begin(), Env.end());
        ++*CollectCount;
      }
      return;
    }

    for (size_t GroupStart = SavedLo; GroupStart < SavedHi;) {
      Value Candidate = C[Ids[GroupStart]];
      size_t GroupEnd = GroupStart + 1;
      while (GroupEnd < SavedHi && C[Ids[GroupEnd]] == Candidate)
        ++GroupEnd;
      Exec.Lo = GroupStart;
      Exec.Hi = GroupEnd;
      Exec.Depth = SavedDepth;
      bool Alive = true;
      for (size_t P = 1; Alive && P < Col.Positions.size(); ++P)
        Alive = narrowOn(Exec, Col.Positions[P], Candidate);
      if (Alive) {
        ++Exec.Depth;
        size_t Mark = trailMark();
        if (bindVar(Var, Candidate) && runReadyPrims())
          joinLevel(Level + 1);
        trailUndo(Mark);
      }
      GroupStart = GroupEnd;
    }
    Exec.Lo = SavedLo;
    Exec.Hi = SavedHi;
    Exec.Depth = SavedDepth;
  }
};

QueryExecutor::QueryExecutor(EGraph &Graph, const Query &Q)
    : I(std::make_unique<Impl>(Graph, Q)) {}

QueryExecutor::~QueryExecutor() = default;
QueryExecutor::QueryExecutor(QueryExecutor &&) noexcept = default;
QueryExecutor &QueryExecutor::operator=(QueryExecutor &&) noexcept = default;

bool QueryExecutor::prepare(const std::vector<AtomFilter> &Filters,
                            uint32_t DeltaBound) {
  return I->prepare(Filters, DeltaBound);
}

void QueryExecutor::join(std::vector<Value> &Arena, size_t &Count,
                         const std::function<bool()> *Cancel) {
  I->join(Arena, Count, Cancel);
}

void QueryExecutor::executeCollect(const std::vector<AtomFilter> &Filters,
                                   uint32_t DeltaBound,
                                   std::vector<Value> &Arena, size_t &Count,
                                   const std::function<bool()> *Cancel) {
  I->prepare(Filters, DeltaBound);
  I->join(Arena, Count, Cancel);
}

void egglog::executeQuery(EGraph &Graph, const Query &Q,
                          const std::vector<AtomFilter> &Filters,
                          uint32_t DeltaBound, const MatchCallback &Callback,
                          const std::function<bool()> *Cancel) {
  std::vector<Value> Arena;
  size_t Count = 0;
  QueryExecutor(Graph, Q).executeCollect(Filters, DeltaBound, Arena, Count,
                                         Cancel);
  std::vector<Value> Env;
  for (size_t M = 0; M < Count; ++M) {
    const Value *Match = Arena.data() + M * Q.NumVars;
    Env.assign(Match, Match + Q.NumVars);
    Callback(Env);
  }
}
