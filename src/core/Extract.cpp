//===- core/Extract.cpp - Term extraction ------------------------------------===//
//
// Part of egglog-cpp. See Extract.h for an overview.
//
//===----------------------------------------------------------------------===//

#include "core/Extract.h"

#include "support/NumberFormat.h"

#include <algorithm>
#include <cassert>
#include <tuple>
#include <unordered_set>

using namespace egglog;

std::string egglog::formatValue(EGraph &Graph, Value V) {
  switch (Graph.sorts().kind(V.Sort)) {
  case SortKind::Unit:
    return "()";
  case SortKind::Bool:
    return V.Bits ? "true" : "false";
  case SortKind::I64:
    return std::to_string(Graph.valueToI64(V));
  case SortKind::F64:
    return formatF64(Graph.valueToF64(V));
  case SortKind::String:
    return "\"" + Graph.valueToString(V) + "\"";
  case SortKind::Rational: {
    const Rational &R = Graph.valueToRational(V);
    if (R.numerator().fitsInt64() && R.denominator().fitsInt64())
      return "(rational " + R.numerator().toString() + " " +
             R.denominator().toString() + ")";
    // Oversized parts round-trip through the string-based constructor.
    return "(rational-big \"" + R.numerator().toString() + "\" \"" +
           R.denominator().toString() + "\")";
  }
  case SortKind::Set: {
    std::string Result = "(set";
    for (Value Element : Graph.valueToSet(V))
      Result += " " + formatValue(Graph, Element);
    return Result + ")";
  }
  case SortKind::User:
    return "#" + std::to_string(V.Bits);
  }
  return "?";
}

namespace {

constexpr int64_t Infinity = ExtractIndex::Infinity;

int64_t saturatingAdd(int64_t A, int64_t B) {
  if (A == Infinity || B == Infinity || A > Infinity - B)
    return Infinity;
  return A + B;
}

} // namespace

//===----------------------------------------------------------------------===
// ExtractIndex: incremental cost fixpoint
//===----------------------------------------------------------------------===

bool ExtractIndex::participates(const EGraph &Graph, size_t Func) const {
  return Graph.sorts().isIdSort(Graph.function(Func).Decl.OutSort);
}

void ExtractIndex::ensureIdCapacity(size_t Ids) {
  if (Best.size() >= Ids)
    return;
  Best.resize(Ids);
  UseHead.resize(Ids, -1);
  UseTail.resize(Ids, -1);
  ProdHead.resize(Ids, -1);
  ProdTail.resize(Ids, -1);
  QueuePending.resize(Ids, 0);
}

void ExtractIndex::pushNode(std::vector<int32_t> &Head,
                            std::vector<int32_t> &Tail, uint64_t Id,
                            uint32_t Func, uint32_t Row) {
  int32_t Node = static_cast<int32_t>(Pool.size());
  Pool.push_back(ChainNode{Head[Id], Func, Row});
  Head[Id] = Node;
  if (Tail[Id] < 0)
    Tail[Id] = Node;
}

void ExtractIndex::foldChain(std::vector<int32_t> &Head,
                             std::vector<int32_t> &Tail, uint64_t Loser,
                             uint64_t Winner) {
  if (Head[Loser] < 0)
    return;
  if (Head[Winner] < 0) {
    Head[Winner] = Head[Loser];
    Tail[Winner] = Tail[Loser];
  } else {
    Pool[Tail[Winner]].Next = Head[Loser];
    Tail[Winner] = Tail[Loser];
  }
  Head[Loser] = -1;
  Tail[Loser] = -1;
}

void ExtractIndex::consider(EGraph &Graph, uint32_t Func, uint32_t Row) {
  const FunctionInfo &Info = Graph.function(Func);
  const Table &T = *Info.Storage;
  // Chains may hold rows that died since they were appended (rebuild
  // rewrites, updates); their live twins are scanned separately.
  if (!T.isLive(Row))
    return;
  ++S.RowsConsidered;
  unsigned NumKeys = Info.numKeys();
  int64_t Total = Info.Decl.Cost;
  for (unsigned I = 0; I < NumKeys && Total != Infinity; ++I)
    Total = saturatingAdd(Total, costOf(Graph, T.cell(Row, I)));
  if (Total == Infinity)
    return;
  uint64_t Out = Graph.unionFind().find(T.output(Row).Bits);
  Entry &E = Best[Out];
  if (Total < E.Cost) {
    E = Entry{Total, Func, Row};
    enqueue(Out);
  }
}

bool ExtractIndex::foldMerges(EGraph &Graph) {
  const std::vector<uint64_t> &Log = Graph.unionFind().mergeLog();
  for (size_t I = LogPos; I < Log.size(); ++I) {
    uint64_t Loser = Log[I];
    uint64_t Winner = Graph.unionFind().find(Loser);
    Entry &L = Best[Loser];
    Entry &W = Best[Winner];
    // A fold of two classes with EQUAL finite costs is the one move that
    // can leave a best row referencing its own merged class (directly or
    // through a zero-cost path), which would make rendering diverge:
    // consider()'s strict-decrease rule never adopts such a row, and a
    // strict inequality here discards the only entry whose children could
    // reach the other half (a path loser->winner forces cost(loser) >=
    // cost(winner) and vice versa, so a cycle needs the tie). Bail out to
    // a from-scratch rebuild, whose adoptions are provably acyclic.
    if (L.Cost == W.Cost && W.Cost != Infinity)
      return false;
    foldChain(UseHead, UseTail, Loser, Winner);
    foldChain(ProdHead, ProdTail, Loser, Winner);
    if (L.Cost < W.Cost)
      W = L;
    L = Entry{};
    // The merged class's cost is the min of the two halves, so rows using
    // either half as a child may have become cheaper: requeue the winner
    // (its chain now holds both halves' users). No-op reconsiderations are
    // filtered by the strict-decrease check in consider().
    if (W.Cost != Infinity)
      enqueue(Winner);
    ++S.MergesFolded;
  }
  LogPos = Log.size();
  return true;
}

bool ExtractIndex::scanSuffix(EGraph &Graph, size_t Func) {
  const FunctionInfo &Info = Graph.function(Func);
  const Table &T = *Info.Storage;
  TableState &St = Tables[Func];
  size_t Rows = T.rowCount();
  unsigned NumKeys = Info.numKeys();
  const UnionFind &UF = Graph.unionFind();
  uint32_t F = static_cast<uint32_t>(Func);
  for (size_t Row = St.Scanned; Row < Rows; ++Row) {
    if (!T.isLive(Row))
      continue;
    if (!Graph.governorCheckpoint("extract.scan"))
      return false;
    for (unsigned I = 0; I < NumKeys; ++I) {
      Value Key = T.cell(Row, I);
      if (Graph.sorts().isIdSort(Key.Sort))
        pushNode(UseHead, UseTail, UF.find(Key.Bits), F,
                 static_cast<uint32_t>(Row));
    }
    pushNode(ProdHead, ProdTail, UF.find(T.output(Row).Bits), F,
             static_cast<uint32_t>(Row));
    consider(Graph, F, static_cast<uint32_t>(Row));
  }
  St.Scanned = Rows;
  St.Version = T.version();
  St.Resets = T.resets();
  return true;
}

bool ExtractIndex::drainQueue(EGraph &Graph) {
  while (!Queue.empty()) {
    uint64_t Class = Queue.back();
    Queue.pop_back();
    QueuePending[Class] = 0;
    for (int32_t N = UseHead[Class]; N >= 0; N = Pool[N].Next) {
      if (!Graph.governorCheckpoint("extract.drain"))
        return false;
      consider(Graph, Pool[N].Func, Pool[N].Row);
    }
  }
  return true;
}

void ExtractIndex::rebuildFromScratch(EGraph &Graph) {
  ++S.FullRebuilds;
  Valid = false;
  TermMemo.clear();
  Pool.clear();
  Best.clear();
  UseHead.clear();
  UseTail.clear();
  ProdHead.clear();
  ProdTail.clear();
  Queue.clear();
  QueuePending.clear();
  Tables.assign(Graph.numFunctions(), TableState{});
  LogPos = Graph.unionFind().mergeLog().size();
  ensureIdCapacity(Graph.unionFind().size());
  for (size_t F = 0; F < Tables.size(); ++F)
    if (participates(Graph, F))
      if (!scanSuffix(Graph, F))
        return; // governor tripped: leave invalid, next refresh restarts
  if (!drainQueue(Graph))
    return;
  Valid = true;
}

void ExtractIndex::refresh(EGraph &Graph) {
  ++S.Refreshes;
  // Extraction is specified over a rebuilt database (§3.4); this also
  // ensures every cell the fixpoint reads is canonical.
  if (Graph.needsRebuild())
    Graph.rebuild();
  if (Graph.failed())
    return; // entry points bail out on a failed graph

  bool Scratch = !Valid || Graph.numFunctions() < Tables.size();
  if (!Scratch) {
    // A restore()/clear() that bypassed EGraph::restore's invalidate hook
    // (resets moved), or any other shrink: the append-only assumption the
    // suffix scan relies on is gone.
    for (size_t F = 0; F < Tables.size() && !Scratch; ++F) {
      const Table &T = *Graph.function(F).Storage;
      if (participates(Graph, F) &&
          (T.resets() != Tables[F].Resets || T.rowCount() < Tables[F].Scanned))
        Scratch = true;
    }
  }
  if (Scratch) {
    rebuildFromScratch(Graph);
    return;
  }

  Tables.resize(Graph.numFunctions());
  bool Dirty = Graph.unionFind().mergeLog().size() != LogPos;
  for (size_t F = 0; F < Tables.size() && !Dirty; ++F)
    if (participates(Graph, F) &&
        Graph.function(F).Storage->version() != Tables[F].Version)
      Dirty = true;
  if (!Dirty) {
    ++S.WarmHits;
    return;
  }

  TermMemo.clear();
  ensureIdCapacity(Graph.unionFind().size());
  if (!foldMerges(Graph)) {
    // A tied-cost fold: the partially folded state is discarded wholesale
    // (rebuildFromScratch clears every chain and entry).
    rebuildFromScratch(Graph);
    return;
  }
  ++S.Incrementals;
  for (size_t F = 0; F < Tables.size(); ++F)
    if (participates(Graph, F))
      if (!scanSuffix(Graph, F)) {
        Valid = false;
        return;
      }
  if (!drainQueue(Graph))
    Valid = false;
}

int64_t ExtractIndex::costOf(const EGraph &Graph, Value V) const {
  if (!Graph.sorts().isIdSort(V.Sort))
    return 1;
  uint64_t Root = Graph.unionFind().find(V.Bits);
  return Root < Best.size() ? Best[Root].Cost : Infinity;
}

const ExtractIndex::Entry *ExtractIndex::best(const EGraph &Graph,
                                              Value V) const {
  if (!Graph.sorts().isIdSort(V.Sort))
    return nullptr;
  uint64_t Root = Graph.unionFind().find(V.Bits);
  if (Root >= Best.size() || Best[Root].Cost == Infinity)
    return nullptr;
  return &Best[Root];
}

void ExtractIndex::producers(
    const EGraph &Graph, Value V,
    std::vector<std::pair<FunctionId, uint32_t>> &Out) const {
  if (!Graph.sorts().isIdSort(V.Sort))
    return;
  uint64_t Root = Graph.unionFind().find(V.Bits);
  if (Root >= ProdHead.size())
    return;
  for (int32_t N = ProdHead[Root]; N >= 0; N = Pool[N].Next)
    if (Graph.function(Pool[N].Func).Storage->isLive(Pool[N].Row))
      Out.emplace_back(Pool[N].Func, Pool[N].Row);
}

//===----------------------------------------------------------------------===
// Term building (iterative; no recursion, single output buffer)
//===----------------------------------------------------------------------===

namespace {

/// One pending unit of rendering work: either a value to render (prefixed
/// with a space when it is a child position) or a closing parenthesis.
struct RenderItem {
  Value V;
  bool CloseParen = false;
  bool LeadingSpace = false;
};

/// Emits the head of one row and stacks its children (shared by the main
/// render loop and variant seeding).
void pushRow(EGraph &Graph, FunctionId Func, uint32_t Row,
             std::vector<RenderItem> &Stack, std::string &Out) {
  const FunctionInfo &Info = Graph.function(Func);
  if (Info.numKeys() == 0) {
    Out += Info.Decl.Name;
    return;
  }
  Out += '(';
  Out += Info.Decl.Name;
  Stack.push_back(RenderItem{Value(), /*CloseParen=*/true, false});
  const Table &T = *Info.Storage;
  for (unsigned I = Info.numKeys(); I > 0; --I)
    Stack.push_back(RenderItem{T.cell(Row, I - 1), false,
                               /*LeadingSpace=*/true});
}

/// Emits the best term of each stacked value into \p Out. The stack is
/// explicit, so term depth is bounded by memory, not the C++ stack, and
/// everything appends to one buffer (no quadratic concatenation). The
/// stack itself is caller-provided scratch, reused across variants.
void renderStack(EGraph &Graph, const ExtractIndex &Idx,
                 std::vector<RenderItem> &Stack, std::string &Out) {
  while (!Stack.empty()) {
    RenderItem Item = Stack.back();
    Stack.pop_back();
    if (Item.CloseParen) {
      Out += ')';
      continue;
    }
    if (Item.LeadingSpace)
      Out += ' ';
    if (!Graph.sorts().isIdSort(Item.V.Sort)) {
      Out += formatValue(Graph, Item.V);
      continue;
    }
    const ExtractIndex::Entry *E = Idx.best(Graph, Item.V);
    if (!E) {
      Out += "<no-term>";
      continue;
    }
    pushRow(Graph, E->Func, E->Row, Stack, Out);
  }
}

/// Renders one specific row (a variant), children completed with the
/// cheapest terms of their classes.
void renderRow(EGraph &Graph, const ExtractIndex &Idx, FunctionId Func,
               uint32_t Row, std::vector<RenderItem> &Stack,
               std::string &Out) {
  Stack.clear();
  pushRow(Graph, Func, Row, Stack, Out);
  renderStack(Graph, Idx, Stack, Out);
}

void renderValue(EGraph &Graph, const ExtractIndex &Idx, Value V,
                 std::vector<RenderItem> &Stack, std::string &Out) {
  Stack.clear();
  Stack.push_back(RenderItem{V, false, false});
  renderStack(Graph, Idx, Stack, Out);
}

} // namespace

int64_t ExtractIndex::dagCostFromRow(const EGraph &Graph, FunctionId Func,
                                     uint32_t Row) const {
  // The seed's own class is deliberately NOT pre-marked: for extractTerm
  // the seed is its class's best row and the best-row graph is acyclic
  // (a row never strictly beats a cost it is derived from), so the class
  // is unreachable anyway; for a variant row, a child re-entering the
  // seed's class renders the class's best term and must be charged.
  if (DagVisited.size() < Graph.unionFind().size())
    DagVisited.resize(Graph.unionFind().size(), 0);
  if (++DagEpoch == 0) { // stamp wrap: start a fresh scratch
    std::fill(DagVisited.begin(), DagVisited.end(), 0);
    DagEpoch = 1;
  }
  std::vector<uint64_t> Pending;
  int64_t Total = 0;
  auto AddRow = [&](FunctionId F, uint32_t R) {
    const FunctionInfo &Info = Graph.function(F);
    Total = saturatingAdd(Total, Info.Decl.Cost);
    for (unsigned I = 0; I < Info.numKeys(); ++I) {
      Value Cell = Info.Storage->cell(R, I);
      if (!Graph.sorts().isIdSort(Cell.Sort)) {
        Total = saturatingAdd(Total, 1);
        continue;
      }
      uint64_t Class = Graph.unionFind().find(Cell.Bits);
      if (DagVisited[Class] != DagEpoch) {
        DagVisited[Class] = DagEpoch;
        Pending.push_back(Class);
      }
    }
  };
  AddRow(Func, Row);
  while (!Pending.empty()) {
    uint64_t Class = Pending.back();
    Pending.pop_back();
    // Classes reachable from a finite-cost term always have a finite-cost
    // entry themselves; the guard is defensive.
    const Entry *E = bestClass(Class);
    if (!E)
      return Infinity;
    AddRow(E->Func, E->Row);
  }
  return Total;
}

//===----------------------------------------------------------------------===
// Public entry points
//===----------------------------------------------------------------------===

std::optional<ExtractedTerm> egglog::extractTerm(EGraph &Graph, Value V) {
  if (!Graph.sorts().isIdSort(V.Sort))
    return ExtractedTerm{formatValue(Graph, V), 1, 1};
  ExtractIndex &Idx = Graph.extractIndex();
  Idx.refresh(Graph);
  if (Graph.failed())
    return std::nullopt;
  uint64_t Root = Graph.unionFind().find(V.Bits);
  if (const ExtractedTerm *Memo = Idx.memoized(Root))
    return *Memo;
  const ExtractIndex::Entry *E = Idx.best(Graph, V);
  if (!E)
    return std::nullopt;
  ExtractedTerm Out;
  Out.Cost = E->Cost;
  Out.DagCost = Idx.dagCostFromRow(Graph, E->Func, E->Row);
  std::vector<RenderItem> Stack;
  renderValue(Graph, Idx, V, Stack, Out.Text);
  Idx.memoize(Root, Out);
  return Out;
}

std::optional<ExtractedTerm> egglog::extractTermDag(EGraph &Graph, Value V) {
  std::optional<ExtractedTerm> Term = extractTerm(Graph, V);
  if (Term)
    Term->Cost = Term->DagCost;
  return Term;
}

std::optional<int64_t> egglog::extractCost(EGraph &Graph, Value V) {
  if (!Graph.sorts().isIdSort(V.Sort))
    return 1;
  ExtractIndex &Idx = Graph.extractIndex();
  Idx.refresh(Graph);
  if (Graph.failed())
    return std::nullopt;
  const ExtractIndex::Entry *E = Idx.best(Graph, V);
  if (!E)
    return std::nullopt;
  return E->Cost;
}

std::vector<ExtractedTerm> egglog::extractVariants(EGraph &Graph, Value V,
                                                   size_t MaxVariants) {
  std::vector<ExtractedTerm> Variants;
  if (!Graph.sorts().isIdSort(V.Sort)) {
    Variants.push_back(ExtractedTerm{formatValue(Graph, V), 1, 1});
    return Variants;
  }
  ExtractIndex &Idx = Graph.extractIndex();
  Idx.refresh(Graph);
  if (Graph.failed())
    return Variants;

  // Every live entry producing this class, via the producer chains (no
  // whole-database sweep), completed with cheapest-cost children.
  struct Candidate {
    int64_t Cost;
    FunctionId Func;
    uint32_t Row;
  };
  std::vector<std::pair<FunctionId, uint32_t>> Rows;
  Idx.producers(Graph, V, Rows);
  std::vector<Candidate> Candidates;
  Candidates.reserve(Rows.size());
  for (auto [Func, Row] : Rows) {
    const FunctionInfo &Info = Graph.function(Func);
    int64_t Total = Info.Decl.Cost;
    for (unsigned I = 0; I < Info.numKeys() && Total != Infinity; ++I)
      Total = saturatingAdd(Total, Idx.costOf(Graph, Info.Storage->cell(Row, I)));
    if (Total != Infinity)
      Candidates.push_back(Candidate{Total, Func, Row});
  }
  // Cheapest first; (Func, Row) tiebreak keeps the order deterministic so
  // repeated calls with growing MaxVariants return consistent prefixes.
  std::sort(Candidates.begin(), Candidates.end(),
            [](const Candidate &A, const Candidate &B) {
              return std::tie(A.Cost, A.Func, A.Row) <
                     std::tie(B.Cost, B.Func, B.Row);
            });

  // Distinct rows can render identically after canonicalization; a hash
  // set keeps dedup linear in the rendered text. One scratch stack serves
  // every rendering.
  std::unordered_set<std::string> Seen;
  std::vector<RenderItem> Stack;
  for (const Candidate &C : Candidates) {
    if (Variants.size() >= MaxVariants)
      break;
    std::string Text;
    renderRow(Graph, Idx, C.Func, C.Row, Stack, Text);
    if (!Seen.insert(Text).second)
      continue;
    int64_t Dag = Idx.dagCostFromRow(Graph, C.Func, C.Row);
    Variants.push_back(ExtractedTerm{std::move(Text), C.Cost, Dag});
  }
  return Variants;
}
