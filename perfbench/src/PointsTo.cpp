//===- perfbench/src/PointsTo.cpp - The pointsto workload ----------------===//
//
// Part of egglog-cpp's benchmark. The Datalog-plus-unification case
// (Fig. 8): the native egglog Steensgaard encoding over a seeded suite of
// generated pointer programs, facts loaded as egglog text through the
// Frontend. Match dominates; rebuild and extraction are nearly idle.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "pointsto/Analyses.h"
#include "pointsto/ProgramGenerator.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

using namespace egglog;
using namespace egglog::pointsto;

namespace pb {
namespace {

/// The native encoding of src/pointsto/Analyses.cpp, as a user would
/// write it: `vpt`, `contents` and `objOf` output the unifiable Obj sort,
/// so the default merge (union) performs the Steensgaard joins.
const char *SteensgaardProgram = R"(
  (sort Obj)
  (relation allocR (i64 i64))
  (relation copyR (i64 i64))
  (relation loadR (i64 i64))
  (relation storeR (i64 i64))
  (relation gepR (i64 i64 i64))
  (relation fieldAllocR (i64 i64 i64))
  (function objOf (i64) Obj)
  (function vpt (i64) Obj)
  (function contents (Obj) Obj)
  (rule ((allocR v a)) ((union (vpt v) (objOf a))))
  (rule ((copyR d s)) ((union (vpt d) (vpt s))))
  (rule ((loadR d s)) ((union (vpt d) (contents (vpt s)))))
  (rule ((storeR d s)) ((union (contents (vpt d)) (vpt s))))
  (rule ((gepR d b f) (fieldAllocR a f fa) (= (vpt b) (objOf a)))
        ((union (vpt d) (objOf fa))))
  (rule ((fieldAllocR a f fa) (fieldAllocR b f fb)
         (= (objOf a) (objOf b)))
        ((union (objOf fa) (objOf fb))))
)";

/// The suite: many equal-sized programs rather than Fig. 8's geometric
/// sizes, so the total work is an average over programs and barely moves
/// with the seed (see README.md for the probe behind these numbers).
constexpr unsigned SuitePrograms = 96;
constexpr uint32_t ProgramSize = 1000;

std::string factText(const Program &P) {
  std::string Text;
  Text.reserve(P.numInstructions() * 20);
  char Line[96];
  auto Emit2 = [&](const char *Rel, uint32_t A, uint32_t B) {
    std::snprintf(Line, sizeof(Line), "(%s %u %u)\n", Rel, A, B);
    Text += Line;
  };
  for (auto [V, A] : P.Allocs)
    Emit2("allocR", V, A);
  for (auto [D, S] : P.Copies)
    Emit2("copyR", D, S);
  for (auto [D, S] : P.Loads)
    Emit2("loadR", D, S);
  for (auto [D, S] : P.Stores)
    Emit2("storeR", D, S);
  for (auto [D, B, F] : P.Geps) {
    std::snprintf(Line, sizeof(Line), "(gepR %u %u %u)\n", D, B, F);
    Text += Line;
  }
  for (uint32_t A = 0; A < P.NumBaseAllocs; ++A)
    for (uint32_t F = 0; F < P.NumFields; ++F) {
      std::snprintf(Line, sizeof(Line), "(fieldAllocR %u %u %u)\n", A, F,
                    P.fieldAlloc(A, F));
      Text += Line;
    }
  return Text;
}

/// The allocation partition as Analyses.cpp reads it out: each allocation
/// id maps to the smallest id whose objOf is in the same class (ids with
/// no objOf row are their own class).
std::vector<uint32_t> readPartition(EGraph &G, const Program &P) {
  FunctionId ObjOf = 0;
  G.lookupFunctionName("objOf", ObjOf);
  const Table &ObjTable = *G.function(ObjOf).Storage;
  std::unordered_map<uint64_t, uint32_t> ClassMin;
  for (size_t Row : ObjTable.liveRows()) {
    uint32_t A = static_cast<uint32_t>(G.valueToI64(ObjTable.cell(Row, 0)));
    uint64_t Class = G.canonicalize(ObjTable.cell(Row, 1)).Bits;
    auto [It, Fresh] = ClassMin.emplace(Class, A);
    if (!Fresh)
      It->second = std::min(It->second, A);
  }
  std::vector<uint32_t> Partition(P.numAllAllocs());
  for (uint32_t A = 0; A < P.numAllAllocs(); ++A)
    Partition[A] = A;
  for (size_t Row : ObjTable.liveRows()) {
    uint32_t A = static_cast<uint32_t>(G.valueToI64(ObjTable.cell(Row, 0)));
    Partition[A] = ClassMin[G.canonicalize(ObjTable.cell(Row, 1)).Bits];
  }
  return Partition;
}

/// Maps each of \p N items to the smallest item with the same class key
/// (-1 keys stay -1): a representation of a partition independent of how
/// class ids are numbered.
template <typename KeyFn>
std::vector<int64_t> smallestMembers(size_t N, KeyFn Key) {
  std::vector<int64_t> Out(N, -1);
  std::unordered_map<int64_t, int64_t> First;
  for (size_t I = 0; I < N; ++I) {
    int64_t K = Key(static_cast<uint32_t>(I));
    if (K >= 0)
      Out[I] = First.emplace(K, static_cast<int64_t>(I)).first->second;
  }
  return Out;
}

/// An independent Steensgaard solver (plain union-find with a points-to
/// edge per class), mirroring the encoding's term-creation semantics: the
/// oracle every repetition's partition is checked against.
class SteensgaardOracle {
public:
  explicit SteensgaardOracle(const Program &P)
      : P(P), Vpt(P.NumVars, -1), ObjOf(P.numAllAllocs(), -1) {}

  /// Solves to the fixpoint; returns the allocation partition and fills
  /// \p VarClasses with each variable's points-to class (the smallest
  /// variable pointing to the same class; -1 for variables with no vpt).
  std::vector<uint32_t> solve(std::vector<int64_t> &VarClasses) {
    for (auto [V, A] : P.Allocs)
      unify(vpt(V), objOf(A));
    for (auto [D, S] : P.Copies)
      unify(vpt(D), vpt(S));
    for (auto [D, S] : P.Loads) {
      int VS = vpt(S);
      unify(vpt(D), contents(VS));
    }
    for (auto [D, S] : P.Stores) {
      int VD = vpt(D);
      unify(contents(VD), vpt(S));
    }
    // The two conditional rules (gep through an allocation, and field
    // congruence) fire on equalities, so iterate to a fixpoint.
    for (bool Changed = true; Changed;) {
      Changed = false;
      std::unordered_map<int, uint32_t> ClassBase; // class -> a base alloc
      for (uint32_t A = 0; A < P.NumBaseAllocs; ++A) {
        if (ObjOf[A] < 0)
          continue;
        auto [It, Fresh] = ClassBase.emplace(find(ObjOf[A]), A);
        for (uint32_t F = 0; F < P.NumFields; ++F) {
          // Field congruence, including a == b: objOf(fa) exists for every
          // field of every allocation that has an objOf.
          Changed |= create(ObjOf[P.fieldAlloc(A, F)]);
          if (!Fresh)
            Changed |= unify(objOf(P.fieldAlloc(A, F)),
                             objOf(P.fieldAlloc(It->second, F)));
        }
      }
      for (auto [D, B, F] : P.Geps) {
        if (Vpt[B] < 0)
          continue;
        auto It = ClassBase.find(find(Vpt[B]));
        if (It == ClassBase.end())
          continue;
        Changed |= create(Vpt[D]);
        Changed |= unify(Vpt[D], objOf(P.fieldAlloc(It->second, F)));
      }
    }
    std::vector<uint32_t> Partition(P.numAllAllocs());
    std::unordered_map<int, uint32_t> ClassMin;
    for (uint32_t A = 0; A < P.numAllAllocs(); ++A)
      if (ObjOf[A] >= 0)
        ClassMin.emplace(find(ObjOf[A]), A); // ascending A: first is min
    for (uint32_t A = 0; A < P.numAllAllocs(); ++A)
      Partition[A] = ObjOf[A] >= 0 ? ClassMin[find(ObjOf[A])] : A;
    VarClasses = smallestMembers(Vpt.size(), [&](uint32_t V) {
      return Vpt[V] >= 0 ? static_cast<int64_t>(find(Vpt[V])) : -1;
    });
    return Partition;
  }

private:
  const Program &P;
  std::vector<int> Vpt, ObjOf;
  std::vector<int> Parent, Pointee;

  int fresh() {
    Parent.push_back(static_cast<int>(Parent.size()));
    Pointee.push_back(-1);
    return Parent.back();
  }
  /// Creates the node in \p Slot if missing; true if it did.
  bool create(int &Slot) {
    if (Slot >= 0)
      return false;
    Slot = fresh();
    return true;
  }
  int vpt(uint32_t V) {
    create(Vpt[V]);
    return Vpt[V];
  }
  int objOf(uint32_t A) {
    create(ObjOf[A]);
    return ObjOf[A];
  }
  int contents(int Node) {
    int Root = find(Node);
    if (Pointee[Root] < 0) {
      int Cell = fresh();
      Pointee[Root] = Cell;
    }
    return Pointee[Root];
  }
  int find(int X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  }
  /// Unifies two classes and, recursively, their pointees; true if any
  /// classes merged.
  bool unify(int A, int B) {
    bool Merged = false;
    std::vector<std::pair<int, int>> Work{{A, B}};
    while (!Work.empty()) {
      auto [X, Y] = Work.back();
      Work.pop_back();
      X = find(X);
      Y = find(Y);
      if (X == Y)
        continue;
      Merged = true;
      Parent[Y] = X;
      if (Pointee[Y] >= 0) {
        if (Pointee[X] < 0)
          Pointee[X] = Pointee[Y];
        else
          Work.emplace_back(Pointee[X], Pointee[Y]);
      }
    }
    return Merged;
  }
};

uint64_t partitionDigest(const std::vector<uint32_t> &Partition,
                         uint64_t Digest) {
  for (uint32_t C : Partition)
    Digest = (Digest ^ C) * 0x100000001B3ull;
  return Digest;
}

class PointsTo : public Workload {
public:
  bool prepare(uint32_t Seed, const std::string &) override {
    for (unsigned I = 0; I < SuitePrograms; ++I) {
      GeneratorOptions Opts;
      Opts.Seed = mixSeed(Seed, I);
      Opts.Size = ProgramSize;
      Programs.push_back(
          generateProgram("program" + std::to_string(I), Opts));
      Facts.push_back(factText(Programs.back()));
      std::vector<int64_t> VarClasses;
      Expected.push_back(SteensgaardOracle(Programs.back()).solve(VarClasses));
      ExpectedVars.push_back(std::move(VarClasses));
    }
    return true;
  }

  Rep run(Tracer *T, unsigned Threads) override {
    Rep R;
    uint64_t HashSum = 0, Digest = 0xCBF29CE484222325ull;
    size_t Classes = 0;
    for (size_t I = 0; I < Programs.size(); ++I) {
      const Program &P = Programs[I];
      Clock::time_point Start = Clock::now();
      Frontend F;
      F.engine().setThreads(Threads);
      {
        Span S(T, "setup");
        if (!execText(F, SteensgaardProgram, T, R) ||
            !execText(F, Facts[I], T, R))
          return R;
      }
      double Setup = secondsSince(Start);
      EGraph &G = F.graph();
      F.runOptions().TimeoutSeconds = 120;
      size_t TuplesBefore = G.liveTupleCount();
      uint64_t UnionsBefore = G.unionFind().unionCount();
      IndexCache::Stats IndexBefore = G.indexStats();
      {
        Span S(T, "solve");
        Span Run(T, "engine.run");
        if (!execForm(F, RunForm, R))
          return R;
        Run.count("iterations",
                  static_cast<double>(F.lastRun().Iterations.size()));
        Run.count("live_tuples", static_cast<double>(G.liveTupleCount()));
      }
      double Solve = secondsSince(Start) - Setup;
      addRunReport(R, F.lastRun(), TuplesBefore, UnionsBefore, G);
      addIndexDelta(R, IndexBefore, G.indexStats());

      // Answer: what a points-to client reads out. The points-to class of
      // every pointer variable, asked one (vpt v) query at a time through
      // the Frontend, and the allocation partition.
      std::vector<uint32_t> Partition;
      std::vector<int64_t> VarClasses;
      {
        Span S(T, "answer");
        {
          Span Query(T, "pointsto.query");
          Value V;
          VarClasses = smallestMembers(P.NumVars, [&](uint32_t Var) {
            ++R.Attempted;
            return F.evalGround("(vpt " + std::to_string(Var) + ")", V)
                       ? static_cast<int64_t>(G.canonicalize(V).Bits)
                       : -1;
          });
          Query.count("queries", P.NumVars);
        }
        Span Read(T, "pointsto.readout");
        Partition = readPartition(G, P);
      }
      double Total = secondsSince(Start);
      R.SetupS += Setup;
      R.SolveS += Solve;
      R.AnswerS += Total - Setup - Solve;
      R.TotalS += Total;
      R.add("graph.live_tuples", static_cast<double>(G.liveTupleCount()));
      R.add("graph.approx_mb", G.approxBytes() / (1024.0 * 1024.0));

      if (Partition != Expected[I])
        R.error("program " + std::to_string(I) +
                ": allocation partition differs from the Steensgaard oracle");
      if (VarClasses != ExpectedVars[I])
        R.error("program " + std::to_string(I) +
                ": points-to classes differ from the Steensgaard oracle");
      HashSum += G.liveContentHash();
      Digest = partitionDigest(Partition, Digest);
      std::vector<uint32_t> Roots = Partition;
      std::sort(Roots.begin(), Roots.end());
      Classes += std::unique(Roots.begin(), Roots.end()) - Roots.begin();
    }
    R.Outputs["content_hash"] = hex64(HashSum);
    R.Outputs["partition_digest"] = hex64(Digest);
    R.Outputs["alloc_classes"] = std::to_string(Classes);
    return R;
  }

private:
  std::vector<Program> Programs;
  std::vector<std::string> Facts;
  std::vector<std::vector<uint32_t>> Expected;
  std::vector<std::vector<int64_t>> ExpectedVars;
  SExpr RunForm = parseSExprs("(run 1000000)").Forms[0];
};

} // namespace

std::unique_ptr<Workload> makePointsTo() {
  return std::make_unique<PointsTo>();
}

int pointsToSelfTest() {
  // The benchmark's oracle must match the egglog encoding on every
  // program. The repo's Datalog encoding (System::Patched) is the second,
  // independent witness; it is checked at the 80-instruction size of the
  // repo's own agreement test. Larger programs are reported, not failed:
  // there Patched under-unifies on some programs (more classes than both
  // egglog and the oracle), a defect of that encoding recorded in
  // README.md.
  int Failures = 0;
  size_t Larger = 0, LargerDisagree = 0;
  for (uint32_t Seed = 1; Seed <= 4; ++Seed) {
    for (size_t I = 0; I < 16; ++I) {
      GeneratorOptions Opts;
      Opts.Seed = mixSeed(Seed, I);
      Opts.Size = I < 8 ? 80 : 80 * (I - 6);
      Program P = generateProgram("selftest", Opts);
      std::vector<int64_t> VarClasses;
      std::vector<uint32_t> Oracle = SteensgaardOracle(P).solve(VarClasses);
      AnalysisResult Egglog = runPointsTo(P, System::Egglog);
      AnalysisResult Patched = runPointsTo(P, System::Patched, 60);
      bool OracleOk = !Egglog.TimedOut && Egglog.AllocClass == Oracle;
      bool PatchedAgrees = !Patched.TimedOut && Patched.AllocClass == Oracle;
      bool Small = Opts.Size <= 80;
      if (!Small) {
        ++Larger;
        LargerDisagree += !PatchedAgrees;
      }
      bool Ok = OracleOk && (PatchedAgrees || !Small);
      std::printf("seed %u program %2zu: %5zu facts, %3zu classes, egglog "
                  "%s oracle, patched %s (%zu classes)%s\n",
                  Seed, I, P.numInstructions(), Egglog.numClasses(),
                  OracleOk ? "==" : "!=", PatchedAgrees ? "agrees" : "differs",
                  Patched.numClasses(), Ok ? "" : "  FAIL");
      Failures += !Ok;
    }
  }
  std::printf("patched differs on %zu of %zu larger programs; %d failures\n",
              LargerDisagree, Larger, Failures);
  return Failures == 0 ? 0 : 1;
}

} // namespace pb
