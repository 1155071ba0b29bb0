//===- bench/bench_ablation.cpp - Design-choice ablations ---------------------===//
//
// Part of egglog-cpp. Google-benchmark microbenchmarks for the design
// choices DESIGN.md calls out:
//   * the worst-case-optimal generic join on triangle queries (§5.1),
//   * one join level on its own: a two-atom path whose last two levels
//     each have one participant,
//   * semi-naïve vs naïve evaluation (§4.3),
//   * the resource governor's steady-state checkpoint overhead (read
//     BM_SemiNaiveTCGoverned against BM_SemiNaiveTC at the same argument;
//     the target is under 2%),
//   * rebuilding cost as unions accumulate (§5.1),
//   * the core data structures (table insert and lookup, the table's
//     update-kill-append path that rebuild drives, union-find),
//   * the exact arithmetic under the Herbie interval analyses (BigInt
//     division, Rational normalization),
//   * Herbie's candidate scoring: one compiled candidate evaluated
//     column-at-a-time over N samples and scored in bits of error.
//
//===----------------------------------------------------------------------===//

#include "core/Engine.h"
#include "core/Frontend.h"
#include "core/Query.h"
#include "herbie/ErrorModel.h"
#include "support/Rational.h"

#include <benchmark/benchmark.h>

#include <initializer_list>
#include <random>
#include <string>
#include <utility>
#include <vector>

using namespace egglog;

namespace {

/// Builds an edge relation shaped like a sparse random graph.
void populateEdges(EGraph &G, FunctionId Edge, unsigned Nodes,
                   unsigned Edges, uint32_t Seed) {
  std::mt19937 Rng(Seed);
  std::uniform_int_distribution<int64_t> Node(0, Nodes - 1);
  for (unsigned I = 0; I < Edges; ++I) {
    Value Keys[2] = {G.mkI64(Node(Rng)), G.mkI64(Node(Rng))};
    G.setValue(Edge, Keys, G.mkUnit());
  }
}

FunctionId declareEdge(EGraph &G) {
  FunctionDecl Decl;
  Decl.Name = "edge";
  Decl.ArgSorts = {SortTable::I64Sort, SortTable::I64Sort};
  Decl.OutSort = SortTable::UnitSort;
  return G.declareFunction(std::move(Decl));
}

/// A query over three i64 variables with one edge(A, B) atom per pair.
Query edgeQuery(EGraph &G, FunctionId Edge,
                std::initializer_list<std::pair<uint32_t, uint32_t>> Pairs) {
  Query Q;
  Q.NumVars = 3;
  Q.VarSorts = {SortTable::I64Sort, SortTable::I64Sort, SortTable::I64Sort};
  for (auto [A, B] : Pairs) {
    QueryAtom Atom;
    Atom.Func = Edge;
    Atom.Terms = {VarOrConst::makeVar(A), VarOrConst::makeVar(B),
                  VarOrConst::makeConst(G.mkUnit())};
    Q.Atoms.push_back(std::move(Atom));
  }
  return Q;
}

/// Times executeQuery of \p Q, reporting the matches per execution.
void runQuery(benchmark::State &State, EGraph &G, const Query &Q) {
  size_t Count = 0;
  for (auto _ : State) {
    Count = 0;
    executeQuery(G, Q, [&](const std::vector<Value> &) { ++Count; });
    benchmark::DoNotOptimize(Count);
  }
  State.counters["matches"] = static_cast<double>(Count);
}

void BM_GenericJoinTriangle(benchmark::State &State) {
  unsigned Nodes = static_cast<unsigned>(State.range(0));
  EGraph G;
  FunctionId Edge = declareEdge(G);
  populateEdges(G, Edge, Nodes, Nodes * 8, 42);
  runQuery(State, G, edgeQuery(G, Edge, {{0, 1}, {1, 2}, {2, 0}}));
}

/// edge(x, y), edge(y, z) over N random edges on N/4 nodes. y joins both
/// atoms; x is then a one-participant level in the join's group loop, and
/// z a one-participant last level, which the tail scan enumerates.
void BM_JoinPath(benchmark::State &State) {
  unsigned Edges = static_cast<unsigned>(State.range(0));
  EGraph G;
  FunctionId Edge = declareEdge(G);
  populateEdges(G, Edge, Edges / 4, Edges, 42);
  runQuery(State, G, edgeQuery(G, Edge, {{0, 1}, {1, 2}}));
}

/// Transitive closure of a long chain: the semi-naïve sweet spot. With
/// \p Governed, every limit class is armed high enough never to trip, so
/// each governor checkpoint runs its full poll.
void BM_TransitiveClosure(benchmark::State &State, bool SemiNaive,
                          bool Governed = false) {
  unsigned Length = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    Frontend F;
    F.runOptions().SemiNaive = SemiNaive;
    if (Governed) {
      F.graph().governor().setTimeout(3600);
      F.graph().governor().setMaxLive(size_t(1) << 40);
      F.graph().governor().setMaxBytes(size_t(1) << 44);
    }
    std::string Program = R"(
      (relation edge (i64 i64))
      (relation path (i64 i64))
      (rule ((edge x y)) ((path x y)))
      (rule ((path x y) (edge y z)) ((path x z)))
    )";
    for (unsigned I = 0; I < Length; ++I)
      Program += "(edge " + std::to_string(I) + " " + std::to_string(I + 1) +
                 ")\n";
    Program += "(run)\n";
    bool Ok = F.execute(Program);
    if (!Ok)
      State.SkipWithError(F.error().c_str());
    benchmark::DoNotOptimize(Ok);
  }
}

void BM_SemiNaiveTC(benchmark::State &State) {
  BM_TransitiveClosure(State, /*SemiNaive=*/true);
}
void BM_NaiveTC(benchmark::State &State) {
  BM_TransitiveClosure(State, /*SemiNaive=*/false);
}
void BM_SemiNaiveTCGoverned(benchmark::State &State) {
  BM_TransitiveClosure(State, /*SemiNaive=*/true, /*Governed=*/true);
}

/// Rebuild cost: N terms f(x_i), then union \p Unions of the x_i pairwise
/// and rebuild. Unions == N/2 is a merge storm (the bulk-sweep fallback);
/// a small fixed count is the worklist-driven sweet spot, where a full
/// sweep would still pay O(N) per rebuild.
void BM_Rebuild(benchmark::State &State, unsigned Unions) {
  unsigned N = static_cast<unsigned>(State.range(0));
  if (Unions == 0)
    Unions = N / 2;
  for (auto _ : State) {
    State.PauseTiming();
    EGraph G;
    SortId S = G.declareSort("T");
    FunctionDecl Decl;
    Decl.Name = "f";
    Decl.ArgSorts = {S};
    Decl.OutSort = S;
    FunctionId F = G.declareFunction(std::move(Decl));
    std::vector<Value> Ids;
    for (unsigned I = 0; I < N; ++I)
      Ids.push_back(G.freshId(S));
    Value Out;
    for (unsigned I = 0; I < N; ++I)
      G.getOrCreate(F, &Ids[I], Out);
    for (unsigned I = 0; I + 1 < N && I / 2 < Unions; I += 2)
      G.unionValues(Ids[I], Ids[I + 1]);
    State.ResumeTiming();
    G.rebuild();
    benchmark::DoNotOptimize(G.liveTupleCount());
  }
}

void BM_RebuildAfterUnions(benchmark::State &State) {
  BM_Rebuild(State, /*Unions=*/0); // N/2: every id pair merged
}
void BM_RebuildSparseUnions(benchmark::State &State) {
  BM_Rebuild(State, /*Unions=*/8); // a handful of merges in a big database
}

void BM_TableInsertLookup(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    Table T({2, 2, 2});
    for (unsigned I = 0; I < N; ++I) {
      Value Keys[2] = {Value(2, I), Value(2, I * 7 % N)};
      T.insert(Keys, Value(2, I), 0);
    }
    size_t Hits = 0;
    for (unsigned I = 0; I < N; ++I) {
      Value Keys[2] = {Value(2, I), Value(2, I * 7 % N)};
      Hits += T.lookup(Keys).has_value();
    }
    benchmark::DoNotOptimize(Hits);
  }
}

/// The "Table append/kill" layer, shaped like rebuild: N keys inserted,
/// then every key updated, so each timed update kills its row (unlinking
/// its hash slot) and appends a fresh one. bytes_per_row is approxBytes()
/// over the row slots after the updates (N dead plus N live).
void BM_TableUpdateKill(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  size_t Bytes = 0, RowSlots = 0;
  for (auto _ : State) {
    State.PauseTiming();
    Table T({2, 2, 2});
    for (unsigned I = 0; I < N; ++I) {
      Value Keys[2] = {Value(2, I), Value(2, I * 7 % N)};
      T.insert(Keys, Value(2, I), 0);
    }
    State.ResumeTiming();
    for (unsigned I = 0; I < N; ++I) {
      Value Keys[2] = {Value(2, I), Value(2, I * 7 % N)};
      T.insert(Keys, Value(2, I + 1), 1);
    }
    benchmark::DoNotOptimize(T.liveHash());
    State.PauseTiming();
    Bytes = T.approxBytes();
    RowSlots = T.rowCount();
    State.ResumeTiming();
  }
  State.SetItemsProcessed(State.iterations() * N);
  State.counters["bytes_per_row"] =
      static_cast<double>(Bytes) / static_cast<double>(RowSlots);
}

void BM_UnionFind(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  std::mt19937 Rng(7);
  for (auto _ : State) {
    UnionFind UF;
    for (unsigned I = 0; I < N; ++I)
      UF.makeSet();
    std::uniform_int_distribution<uint64_t> Pick(0, N - 1);
    for (unsigned I = 0; I < N; ++I)
      UF.unite(Pick(Rng), Pick(Rng));
    uint64_t Sum = 0;
    for (unsigned I = 0; I < N; ++I)
      Sum += UF.find(I);
    benchmark::DoNotOptimize(Sum);
  }
}

/// A seeded multi-limb magnitude with a set top bit.
BigInt randomBigInt(std::mt19937_64 &Rng, unsigned Limbs) {
  BigInt Result;
  for (unsigned I = 0; I < Limbs; ++I)
    Result = Result.shiftLeft(32) +
             BigInt(static_cast<int64_t>(static_cast<uint32_t>(Rng())));
  return Result + BigInt(1).shiftLeft(32 * Limbs - 1);
}

/// Word-level long division: an N-limb divisor into a 2N-limb dividend,
/// the shape gcd steps and Rational rounding produce.
void BM_BigIntDivmod(benchmark::State &State) {
  unsigned Limbs = static_cast<unsigned>(State.range(0));
  std::mt19937_64 Rng(11);
  std::vector<std::pair<BigInt, BigInt>> Pairs;
  for (int I = 0; I < 64; ++I)
    Pairs.emplace_back(randomBigInt(Rng, 2 * Limbs),
                       randomBigInt(Rng, Limbs));
  size_t Next = 0;
  BigInt Quotient, Remainder;
  for (auto _ : State) {
    const auto &[Dividend, Divisor] = Pairs[Next++ % Pairs.size()];
    BigInt::divmod(Dividend, Divisor, Quotient, Remainder);
    benchmark::DoNotOptimize(Quotient);
    benchmark::DoNotOptimize(Remainder);
  }
  State.SetItemsProcessed(State.iterations());
}

/// Rational normalization (a gcd and two exact divisions) of the products
/// and sums of dyadic interval endpoints, as roundDown/roundUp at
/// State.range(0) bits produce them.
void BM_RationalNormalize(benchmark::State &State) {
  unsigned Bits = static_cast<unsigned>(State.range(0));
  std::mt19937_64 Rng(13);
  std::vector<Rational> Endpoints;
  for (int I = 0; I < 64; ++I) {
    Rational Exact(randomBigInt(Rng, 4), randomBigInt(Rng, 3));
    Endpoints.push_back(I % 2 ? Exact.roundUp(Bits) : Exact.roundDown(Bits));
  }
  // Unnormalized numerator/denominator pairs: a product and a sum of two
  // endpoints, before the Rational constructor reduces them.
  std::vector<std::pair<BigInt, BigInt>> Raw;
  for (size_t I = 0; I + 1 < Endpoints.size(); ++I) {
    const Rational &A = Endpoints[I], &B = Endpoints[I + 1];
    Raw.emplace_back(A.numerator() * B.numerator(),
                     A.denominator() * B.denominator());
    Raw.emplace_back(A.numerator() * B.denominator() +
                         B.numerator() * A.denominator(),
                     A.denominator() * B.denominator());
  }
  size_t Next = 0;
  for (auto _ : State) {
    const auto &[Num, Den] = Raw[Next++ % Raw.size()];
    Rational Reduced(Num, Den);
    benchmark::DoNotOptimize(Reduced);
  }
  State.SetItemsProcessed(State.iterations());
}

/// Scores one fixed candidate, the rationalized sqrt(x+1) - sqrt(x), over
/// N samples of the naive form (as Herbie's candidate loop does):
/// compilation, the column-at-a-time binary64 kernel and the bits-of-error
/// sum. samples is the number of valid points scored.
void BM_HerbieAverageError(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  herbie::ExprPtr Naive = herbie::parseFPExpr("(- (sqrt (+ x 1)) (sqrt x))");
  herbie::ExprPtr Candidate =
      herbie::parseFPExpr("(/ 1 (+ (sqrt (+ x 1)) (sqrt x)))");
  herbie::SampleSet Samples = herbie::samplePoints(
      *Naive, {herbie::VarRange{"x", 1e10, 1e14}}, N, 42);
  for (auto _ : State) {
    double Error = herbie::averageError(*Candidate, Samples);
    benchmark::DoNotOptimize(Error);
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Samples.Points.size()));
  State.counters["samples"] = static_cast<double>(Samples.Points.size());
}

} // namespace

BENCHMARK(BM_GenericJoinTriangle)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_JoinPath)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_SemiNaiveTC)->Arg(32)->Arg(64)->Arg(128);
BENCHMARK(BM_NaiveTC)->Arg(32)->Arg(64);
BENCHMARK(BM_SemiNaiveTCGoverned)->Arg(32)->Arg(64)->Arg(128);
BENCHMARK(BM_RebuildAfterUnions)->Arg(1000)->Arg(10000);
BENCHMARK(BM_RebuildSparseUnions)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_TableInsertLookup)->Arg(1000)->Arg(100000);
BENCHMARK(BM_TableUpdateKill)->Arg(1000)->Arg(100000);
BENCHMARK(BM_UnionFind)->Arg(1000)->Arg(100000);
BENCHMARK(BM_BigIntDivmod)->Arg(1)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(BM_RationalNormalize)->Arg(32)->Arg(64)->Arg(128);
BENCHMARK(BM_HerbieAverageError)->Arg(256)->Arg(1000)->Arg(4096);

// BENCHMARK_MAIN(), plus the build's failpoint setting in the context
// block: bench builds (-DBUILD_TESTING=OFF) compile the failpoints out, so
// failpoints_compiled=0 makes their zero-cost-when-off claim checkable.
int main(int argc, char **argv) {
#if EGGLOG_FAILPOINTS_ENABLED
  benchmark::AddCustomContext("failpoints_compiled", "1");
#else
  benchmark::AddCustomContext("failpoints_compiled", "0");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
