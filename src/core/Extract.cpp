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
  QueuePending.resize(Ids, 0);
}

void ExtractIndex::pushUse(uint64_t Id, uint32_t Func, uint32_t Row) {
  int32_t Node = static_cast<int32_t>(Pool.size());
  Pool.push_back(ChainNode{UseHead[Id], Func, Row});
  UseHead[Id] = Node;
}

size_t ExtractIndex::approxBytes() const {
  return Merged.capacity() * sizeof(uint64_t) +
         Tables.capacity() * sizeof(TableState) +
         Best.capacity() * sizeof(Entry) +
         UseHead.capacity() * sizeof(int32_t) +
         Pool.capacity() * sizeof(ChainNode) +
         Queue.capacity() * sizeof(uint64_t) + QueuePending.capacity();
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
  for (uint64_t Loser : Merged) {
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
#ifndef NDEBUG
    // Append-only chains suffice: refresh() rebuilt first, which killed
    // every live row keyed on the loser and appended its canonical twin,
    // and scanSuffix chains the twins under the winner. So the loser's
    // chain holds only dead rows.
    for (int32_t N = UseHead[Loser]; N >= 0; N = Pool[N].Next)
      assert(!Graph.function(Pool[N].Func).Storage->isLive(Pool[N].Row) &&
             "live row on a merged-away class's use chain");
#endif
    if (L.Cost < W.Cost)
      W = L;
    L = Entry{};
    // The merged class's cost is the min of the two halves, so rows using
    // either half as a child may have become cheaper: requeue the winner
    // (the suffix scan chains the loser's rewritten users under it). No-op
    // reconsiderations are filtered by the strict-decrease check in
    // consider().
    if (W.Cost != Infinity)
      enqueue(Winner);
    ++S.MergesFolded;
  }
  Merged.clear();
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
        pushUse(UF.find(Key.Bits), F, static_cast<uint32_t>(Row));
    }
    consider(Graph, F, static_cast<uint32_t>(Row));
  }
  St.Scanned = Rows;
  St.Version = T.version();
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
  Merged.clear();
  Pool.clear();
  Best.clear();
  UseHead.clear();
  Queue.clear();
  QueuePending.clear();
  Tables.assign(Graph.numFunctions(), TableState{});
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

  if (!Valid) {
    rebuildFromScratch(Graph);
    return;
  }

  // While the index is valid, tables only grow: every truncation,
  // resurrection and dropped declaration goes through
  // EGraph::txnRollback, which invalidates the index first.
  assert(Graph.numFunctions() >= Tables.size() &&
         "function dropped under a valid extraction index");
  Tables.resize(Graph.numFunctions());
  bool Dirty = !Merged.empty();
  for (size_t F = 0; F < Tables.size(); ++F) {
    const Table &T = *Graph.function(F).Storage;
    assert(T.rowCount() >= Tables[F].Scanned &&
           "table shrank under a valid extraction index");
    if (participates(Graph, F) && T.version() != Tables[F].Version)
      Dirty = true;
  }
  if (!Dirty) {
    ++S.WarmHits;
    return;
  }

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

//===----------------------------------------------------------------------===
// Public entry points
//===----------------------------------------------------------------------===

std::optional<ExtractedTerm> egglog::extractTerm(EGraph &Graph, Value V) {
  if (!Graph.sorts().isIdSort(V.Sort))
    return ExtractedTerm{formatValue(Graph, V), 1};
  ExtractIndex &Idx = Graph.extractIndex();
  Idx.refresh(Graph);
  if (Graph.failed())
    return std::nullopt;
  const ExtractIndex::Entry *E = Idx.best(Graph, V);
  if (!E)
    return std::nullopt;
  ExtractedTerm Out;
  Out.Cost = E->Cost;
  std::vector<RenderItem> Stack;
  renderValue(Graph, Idx, V, Stack, Out.Text);
  return Out;
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
    Variants.push_back(ExtractedTerm{formatValue(Graph, V), 1});
    return Variants;
  }
  ExtractIndex &Idx = Graph.extractIndex();
  Idx.refresh(Graph);
  if (Graph.failed())
    return Variants;

  // Every live row producing into this class: only functions of V's sort
  // can, and each such row names the class root in its output column, so
  // the root's occurrence list in their tables holds them all (rows naming
  // the root only as a key are skipped). Each is completed with
  // cheapest-cost children.
  struct Candidate {
    int64_t Cost;
    FunctionId Func;
    uint32_t Row;
  };
  const UnionFind &UF = Graph.unionFind();
  uint64_t Root = UF.find(V.Bits);
  std::vector<Candidate> Candidates;
  for (size_t F = 0; F < Graph.numFunctions(); ++F) {
    const FunctionInfo &Info = Graph.function(F);
    if (Info.Decl.OutSort != V.Sort)
      continue;
    Table &T = *Info.Storage;
    bool Walked = T.forEachOccurrence(Root, [&](uint32_t Row) {
      if (!Graph.governorCheckpoint("extract.variants"))
        return false;
      if (UF.find(T.output(Row).Bits) != Root)
        return true;
      int64_t Total = Info.Decl.Cost;
      for (unsigned I = 0; I < Info.numKeys() && Total != Infinity; ++I)
        Total = saturatingAdd(Total, Idx.costOf(Graph, T.cell(Row, I)));
      if (Total != Infinity)
        Candidates.push_back(
            Candidate{Total, static_cast<FunctionId>(F), Row});
      return true;
    });
    if (!Walked)
      return Variants;
  }
  // Cheapest first; (Func, Row) tiebreak keeps the order deterministic so
  // repeated calls with growing MaxVariants return consistent prefixes.
  // Only a growing prefix is ordered: the first MaxVariants candidates,
  // then twice as many of the rest each time duplicates leave the answer
  // short. A class can hold a large share of the database, and most
  // requests stop within the first prefix.
  auto Cheaper = [](const Candidate &A, const Candidate &B) {
    return std::tie(A.Cost, A.Func, A.Row) < std::tie(B.Cost, B.Func, B.Row);
  };

  // Distinct rows can render identically after canonicalization; a hash
  // set keeps dedup linear in the rendered text. One scratch stack serves
  // every rendering.
  std::unordered_set<std::string> Seen;
  std::vector<RenderItem> Stack;
  size_t Sorted = 0;
  size_t Batch = MaxVariants;
  while (Variants.size() < MaxVariants && Sorted < Candidates.size()) {
    size_t End = Sorted + std::min(Batch, Candidates.size() - Sorted);
    std::partial_sort(Candidates.begin() + Sorted, Candidates.begin() + End,
                      Candidates.end(), Cheaper);
    for (; Sorted < End && Variants.size() < MaxVariants; ++Sorted) {
      const Candidate &C = Candidates[Sorted];
      std::string Text;
      renderRow(Graph, Idx, C.Func, C.Row, Stack, Text);
      if (!Seen.insert(Text).second)
        continue;
      Variants.push_back(ExtractedTerm{std::move(Text), C.Cost});
    }
    Batch = std::min(Batch, Candidates.size()) * 2;
  }
  return Variants;
}
