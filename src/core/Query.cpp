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

/// A range [Lo, Hi) of an atom's sorted candidates.
struct Span {
  size_t Lo = 0, Hi = 0;
};

/// Execution state for one atom: a shared cached column index (sorted by
/// constants first, then the query's global variable order), and its
/// narrowed ranges within it. The shape (Cols, Consts positions) is
/// precomputed once per query; only the ranges and the index pointer
/// change between executions.
struct AtomExec {
  const QueryAtom *Atom = nullptr;
  /// Sorted candidate row ids, borrowed from the table's IndexCache by
  /// prepare(). Stable until the table is next mutated.
  const std::vector<uint32_t> *Rows = nullptr;
  /// Base pointer of each term position's payload array in the columnar
  /// table storage: ColBase[Pos][(*Rows)[I]] is the Bits of candidate I's
  /// value at term position Pos, whose sort is the column's. Captured by
  /// prepare(); stable until the table is next mutated.
  std::vector<const uint64_t *> ColBase;
  /// Table version at prepare(), for join()'s freshness assertion.
  uint64_t PreparedVersion = 0;
  /// The atom's distinct variables, re-sorted to global variable order at
  /// the start of every execution.
  std::vector<AtomCol> Cols;
  /// Constant term positions in term order (the leading columns of the
  /// index permutation); values are re-canonicalized by every prepare().
  std::vector<std::pair<unsigned, Value>> Consts;
  /// Spans[D]: the candidates left once the first D join columns are
  /// bound; Spans[0] is narrowed to the constants. Only the level that
  /// binds column D writes Spans[D + 1], from Spans[D], so backtracking
  /// has nothing to restore.
  std::vector<Span> Spans;
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

/// First index in [Lo, Hi) whose column payload is >= \p V: a lower bound
/// over the id-indirected column array (Col[Ids[I]] is candidate I's
/// payload, non-decreasing over the range). Every cell of a column has one
/// sort, so the payload order is the Value order.
size_t lowerBoundIds(const uint32_t *Ids, const uint64_t *Col, size_t Lo,
                     size_t Hi, uint64_t V) {
  while (Lo < Hi) {
    size_t Mid = Lo + (Hi - Lo) / 2;
    if (Col[Ids[Mid]] < V)
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return Lo;
}

/// First index in [Lo, Hi) whose column payload is > \p V.
size_t upperBoundIds(const uint32_t *Ids, const uint64_t *Col, size_t Lo,
                     size_t Hi, uint64_t V) {
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
size_t gallopLowerBoundIds(const uint32_t *Ids, const uint64_t *Col,
                           size_t Lo, size_t Hi, uint64_t V) {
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
size_t gallopUpperBoundIds(const uint32_t *Ids, const uint64_t *Col,
                           size_t Lo, size_t Hi, uint64_t V) {
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
      Exec.Spans.resize(Exec.Cols.size() + 1);
      Atoms.push_back(std::move(Exec));
    }
  }

  bool prepare(const std::vector<AtomFilter> &Filters, uint32_t DeltaBound) {
    Prepared = materialize(Filters, DeltaBound);
    return Prepared;
  }

  void join(std::vector<uint64_t> &Arena, size_t &Count,
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
  /// Match sink, armed for one join(): a flat arena (the Bits of NumVars
  /// values per match; Q.VarSorts holds their sorts) plus a match counter.
  std::vector<uint64_t> *CollectArena = nullptr;
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
  std::vector<unsigned> Occurrences;
  std::vector<size_t> MinAtomSize;
  std::vector<unsigned> Perm;
  std::vector<Value> PrimArgs;
  /// An atom holding a level's variable, at join column Depth, with its
  /// sweep cursor for the batched probes: a monotone lower bound on where
  /// the next (ascending) candidate can start.
  struct Participant {
    uint32_t Atom;
    unsigned Depth;
    size_t Cursor;
  };
  /// Each level's participants in atom order, planned by prepare(): the
  /// atoms' columns follow the variable order, so which atoms hold a
  /// level's variable, and at which column, is fixed per execution.
  std::vector<std::vector<Participant>> Levels;

  void run() {
    Env.assign(Q.NumVars, Value());
    BoundFlags.assign(Q.NumVars, false);
    PrimDone.assign(Q.Prims.size(), false);
    PendingPrims = Q.Prims.size();
    Trail.clear();
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
      Exec.Spans[0] = Span{0, Index.size()};
      for (const auto &[Pos, Const] : Exec.Consts)
        if (!narrowOn(Exec, Exec.Spans[0], Pos, Const))
          return false;
    }

    Levels.resize(VarOrder.size());
    for (std::vector<Participant> &Level : Levels)
      Level.clear();
    for (uint32_t A = 0; A < Atoms.size(); ++A)
      for (unsigned D = 0; D < Atoms[A].Cols.size(); ++D)
        Levels[VarPosition[Atoms[A].Cols[D].Var]].push_back(
            Participant{A, D, 0});
    return true;
  }

  /// Greedy variable ordering: most-constrained (highest atom occurrence)
  /// first, breaking ties toward variables whose atoms are small.
  void chooseVariableOrder(const std::vector<size_t> &Sizes) {
    Occurrences.assign(Q.NumVars, 0);
    MinAtomSize.assign(Q.NumVars, SIZE_MAX);
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

  /// Narrows \p S, a range of atom \p Exec, to the rows whose term at
  /// \p Pos equals \p V, assuming the range is sorted by that position (it
  /// is the next column of the index permutation); returns false if empty.
  bool narrowOn(const AtomExec &Exec, Span &S, unsigned Pos, Value V) {
    assert(V.Sort ==
               Graph.function(Exec.Atom->Func).Storage->columnSort(Pos) &&
           "narrowing a column on a value of another sort");
    const uint32_t *Ids = Exec.Rows->data();
    const uint64_t *Col = Exec.ColBase[Pos];
    size_t Lo = lowerBoundIds(Ids, Col, S.Lo, S.Hi, V.Bits);
    if (Lo == S.Hi || Col[Ids[Lo]] != V.Bits)
      return false;
    S = Span{Lo, upperBoundIds(Ids, Col, Lo + 1, S.Hi, V.Bits)};
    return true;
  }

  /// Narrows atom \p Exec's join column \p D to \p V: Spans[D + 1]
  /// becomes the rows of Spans[D] where every occurrence of the column's
  /// variable equals \p V.
  bool narrowTo(AtomExec &Exec, unsigned D, Value V) {
    Span &S = Exec.Spans[D + 1];
    S = Exec.Spans[D];
    for (unsigned Pos : Exec.Cols[D].Positions)
      if (!narrowOn(Exec, S, Pos, V))
        return false;
    return true;
  }

  /// narrowTo() with a sweep cursor for the first occurrence. The caller
  /// probes with an ascending run of candidate values, so \p Cursor — the
  /// previous probe's landing point — is a valid lower bound for this one:
  /// the equal range is found by galloping forward from it rather than
  /// bisecting the whole range (the "sort probe keys once, sweep the
  /// sorted run" half of the batched-probe scheme; the probe keys arrive
  /// pre-sorted because the driver's groups are themselves a sorted run).
  bool narrowToSwept(AtomExec &Exec, unsigned D, Value V, size_t &Cursor) {
    const AtomCol &Col = Exec.Cols[D];
    assert(V.Sort == Graph.function(Exec.Atom->Func)
                         .Storage->columnSort(Col.Positions[0]) &&
           "narrowing a column on a value of another sort");
    const uint32_t *Ids = Exec.Rows->data();
    const uint64_t *C = Exec.ColBase[Col.Positions[0]];
    const Span &In = Exec.Spans[D];
    size_t Lo =
        gallopLowerBoundIds(Ids, C, std::max(In.Lo, Cursor), In.Hi, V.Bits);
    Cursor = Lo;
    if (Lo == In.Hi || C[Ids[Lo]] != V.Bits)
      return false;
    size_t RunEnd = gallopUpperBoundIds(Ids, C, Lo + 1, In.Hi, V.Bits);
    // The next candidate is strictly greater, so its run starts at or
    // after this run's end.
    Cursor = RunEnd;
    Span &Out = Exec.Spans[D + 1];
    Out = Span{Lo, RunEnd};
    for (size_t P = 1; P < Col.Positions.size(); ++P)
      if (!narrowOn(Exec, Out, Col.Positions[P], V))
        return false;
    return true;
  }

  void emitMatch() {
    if (PendingPrims == 0) {
      appendMatch();
      return;
    }
    // All join variables are bound; flush remaining primitives (those whose
    // outputs feed nothing else may still be pending).
    size_t Mark = trailMark();
    if (runReadyPrims()) {
      assert(PendingPrims == 0 &&
             "primitive left unexecuted; typechecker should have "
             "rejected this query");
      appendMatch();
    }
    trailUndo(Mark);
  }

  /// Appends Env's payloads to the arena as one match. The arena keeps no
  /// sorts: every variable's sort is Q.VarSorts'.
  void appendMatch() {
#ifndef NDEBUG
    for (uint32_t V = 0; V < Q.NumVars; ++V)
      assert(Env[V].Sort == Q.VarSorts[V] &&
             "match variable bound to a value of another sort");
#endif
    size_t Base = CollectArena->size();
    CollectArena->resize(Base + Q.NumVars);
    uint64_t *Out = CollectArena->data() + Base;
    for (uint32_t V = 0; V < Q.NumVars; ++V)
      Out[V] = Env[V].Bits;
    ++*CollectCount;
  }

  void joinLevel(size_t Level) {
    if (checkCancel())
      return;
    if (Level == VarOrder.size()) {
      emitMatch();
      return;
    }
    uint32_t Var = VarOrder[Level];
    // The scratch is per level, so the recursion into Level + 1 cannot
    // clobber it.
    std::vector<Participant> &Participants = Levels[Level];
    assert(!Participants.empty() &&
           "join variable not constrained by any atom");

    if (BoundFlags[Var]) {
      // The variable was computed by a primitive: check, don't enumerate.
      for (const Participant &P : Participants)
        if (!narrowTo(Atoms[P.Atom], P.Depth, Env[Var]))
          return;
      joinLevel(Level + 1);
      return;
    }
    SortId VarSort = Q.VarSorts[Var];

    // Tail scan: at the last level, a lone participant holding Var once,
    // with no primitive pending, yields one match per group of its sorted
    // run; nothing is probed, bound or recursed into.
    const AtomExec &Lone = Atoms[Participants[0].Atom];
    const AtomCol &LoneCol = Lone.Cols[Participants[0].Depth];
    if (Participants.size() == 1 && Level + 1 == VarOrder.size() &&
        PendingPrims == 0 && LoneCol.Positions.size() == 1) {
      const uint32_t *Ids = Lone.Rows->data();
      const uint64_t *C = Lone.ColBase[LoneCol.Positions[0]];
      Span S = Lone.Spans[Participants[0].Depth];
      Env[Var].Sort = VarSort;
      for (size_t GroupStart = S.Lo; GroupStart < S.Hi;) {
        if (checkCancel())
          return;
        uint64_t Bits = C[Ids[GroupStart]];
        do
          ++GroupStart;
        while (GroupStart < S.Hi && C[Ids[GroupStart]] == Bits);
        Env[Var].Bits = Bits;
        appendMatch();
      }
      return;
    }

    // The driver, the participant with the smallest range (the first
    // among equals), enumerates the candidate groups in ascending order.
    // Every other participant narrows to each candidate by a batched
    // probe: its equal range only moves forward, so narrowToSwept gallops
    // from the participant's cursor instead of bisecting its whole range.
    // A level with one participant is a binary-join step (Free Join):
    // that atom drives, and there is nothing to probe.
    size_t DriverSlot = 0;
    size_t DriverSize = SIZE_MAX;
    for (size_t I = 0; I < Participants.size(); ++I) {
      Participant &P = Participants[I];
      const Span &S = Atoms[P.Atom].Spans[P.Depth];
      P.Cursor = S.Lo;
      if (S.Hi - S.Lo < DriverSize) {
        DriverSlot = I;
        DriverSize = S.Hi - S.Lo;
      }
    }
    const AtomExec &DriverExec = Atoms[Participants[DriverSlot].Atom];
    unsigned DriverDepth = Participants[DriverSlot].Depth;
    const uint32_t *DriverIds = DriverExec.Rows->data();
    const uint64_t *DriverCol =
        DriverExec.ColBase[DriverExec.Cols[DriverDepth].Positions[0]];
    Span In = DriverExec.Spans[DriverDepth];
    for (size_t GroupStart = In.Lo; GroupStart < In.Hi;) {
      uint64_t Bits = DriverCol[DriverIds[GroupStart]];
      size_t GroupEnd = GroupStart + 1;
      while (GroupEnd < In.Hi && DriverCol[DriverIds[GroupEnd]] == Bits)
        ++GroupEnd;
      Value Candidate(VarSort, Bits);

      size_t Mark = trailMark();
      bool Alive = true;
      for (size_t I = 0; Alive && I < Participants.size(); ++I) {
        Participant &P = Participants[I];
        AtomExec &Exec = Atoms[P.Atom];
        if (I != DriverSlot) {
          Alive = narrowToSwept(Exec, P.Depth, Candidate, P.Cursor);
          continue;
        }
        // The group already fixes the first occurrence; narrow any
        // repeated occurrences of the variable to the same value.
        Span &Out = Exec.Spans[P.Depth + 1];
        Out = Span{GroupStart, GroupEnd};
        const AtomCol &Col = Exec.Cols[P.Depth];
        for (size_t Pos = 1; Alive && Pos < Col.Positions.size(); ++Pos)
          Alive = narrowOn(Exec, Out, Col.Positions[Pos], Candidate);
      }
      if (Alive && bindVar(Var, Candidate) &&
          (PendingPrims == 0 || runReadyPrims()))
        joinLevel(Level + 1);
      trailUndo(Mark);
      GroupStart = GroupEnd;
    }
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

void QueryExecutor::join(std::vector<uint64_t> &Arena, size_t &Count,
                         const std::function<bool()> *Cancel) {
  I->join(Arena, Count, Cancel);
}

void QueryExecutor::executeCollect(const std::vector<AtomFilter> &Filters,
                                   uint32_t DeltaBound,
                                   std::vector<uint64_t> &Arena,
                                   size_t &Count,
                                   const std::function<bool()> *Cancel) {
  I->prepare(Filters, DeltaBound);
  I->join(Arena, Count, Cancel);
}

void egglog::executeQuery(EGraph &Graph, const Query &Q,
                          const std::vector<AtomFilter> &Filters,
                          uint32_t DeltaBound, const MatchCallback &Callback,
                          const std::function<bool()> *Cancel) {
  std::vector<uint64_t> Arena;
  size_t Count = 0;
  QueryExecutor(Graph, Q).executeCollect(Filters, DeltaBound, Arena, Count,
                                         Cancel);
  std::vector<Value> Env(Q.NumVars);
  for (size_t M = 0; M < Count; ++M) {
    const uint64_t *Match = Arena.data() + M * Q.NumVars;
    for (uint32_t V = 0; V < Q.NumVars; ++V)
      Env[V] = Value(Q.VarSorts[V], Match[V]);
    Callback(Env);
  }
}
