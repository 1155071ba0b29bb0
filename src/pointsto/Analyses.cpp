//===- pointsto/Analyses.cpp - Steensgaard analysis encodings ----------------===//
//
// Part of egglog-cpp. See Analyses.h for an overview.
//
//===----------------------------------------------------------------------===//

#include "pointsto/Analyses.h"

#include "core/Frontend.h"
#include "datalog/Evaluator.h"
#include "support/Timer.h"

#include <algorithm>
#include <set>
#include <unordered_map>

using namespace egglog;
using namespace egglog::pointsto;

size_t AnalysisResult::numClasses() const {
  std::set<uint32_t> Roots(AllocClass.begin(), AllocClass.end());
  return Roots.size();
}

//===----------------------------------------------------------------------===
// egglog encodings
//===----------------------------------------------------------------------===

namespace {

/// The schema and rules of the native egglog Steensgaard analysis. The
/// `vpt`, `contents` and `objOf` functions output the unifiable Obj sort;
/// the default merge (union) performs the Steensgaard joins, and
/// canonicalization turns "join modulo equivalence" into plain joins.
const char *EgglogProgram = R"(
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
  ;; Field congruence: fields of unified allocations unify. Note this is a
  ;; plain equality join on canonical ids ((objOf a) = (objOf b)) - the
  ;; "join modulo equivalence" of the Datalog encodings disappears (§6.1).
  (rule ((fieldAllocR a f fa) (fieldAllocR b f fb)
         (= (objOf a) (objOf b)))
        ((union (objOf fa) (objOf fb))))
)";

AnalysisResult runEgglog(const Program &P, bool SemiNaive,
                         double TimeoutSeconds, unsigned Threads) {
  AnalysisResult Result;
  Frontend F;
  F.engine().setThreads(Threads);
  if (!F.execute(EgglogProgram)) {
    Result.TimedOut = true;
    return Result;
  }
  EGraph &G = F.graph();
  auto Fid = [&](const char *Name) {
    FunctionId Id = 0;
    bool Found = G.lookupFunctionName(Name, Id);
    (void)Found;
    return Id;
  };
  FunctionId AllocR = Fid("allocR"), CopyR = Fid("copyR"),
             LoadR = Fid("loadR"), StoreR = Fid("storeR"), GepR = Fid("gepR"),
             FieldAllocR = Fid("fieldAllocR"), ObjOf = Fid("objOf"),
             Vpt = Fid("vpt");

  Timer Clock;
  auto Fact2 = [&](FunctionId Rel, uint32_t A, uint32_t B) {
    Value Keys[2] = {G.mkI64(A), G.mkI64(B)};
    G.setValue(Rel, Keys, G.mkUnit());
  };
  for (auto [V, A] : P.Allocs)
    Fact2(AllocR, V, A);
  for (auto [D, S] : P.Copies)
    Fact2(CopyR, D, S);
  for (auto [D, S] : P.Loads)
    Fact2(LoadR, D, S);
  for (auto [D, S] : P.Stores)
    Fact2(StoreR, D, S);
  for (auto [D, B, Fld] : P.Geps) {
    Value Keys[3] = {G.mkI64(D), G.mkI64(B), G.mkI64(Fld)};
    G.setValue(GepR, Keys, G.mkUnit());
  }
  for (uint32_t A = 0; A < P.NumBaseAllocs; ++A)
    for (uint32_t Fld = 0; Fld < P.NumFields; ++Fld) {
      Value Keys[3] = {G.mkI64(A), G.mkI64(Fld),
                       G.mkI64(P.fieldAlloc(A, Fld))};
      G.setValue(FieldAllocR, Keys, G.mkUnit());
    }

  RunOptions Opts;
  Opts.Iterations = 1000000;
  Opts.SemiNaive = SemiNaive;
  Opts.TimeoutSeconds = TimeoutSeconds;
  RunReport Report = F.engine().run(Opts);
  Result.Seconds = Clock.seconds();
  for (const IterationStats &Stats : Report.Iterations) {
    Result.SearchSeconds += Stats.SearchSeconds;
    Result.ApplySeconds += Stats.ApplySeconds;
    Result.RebuildSeconds += Stats.RebuildSeconds;
  }
  Result.TimedOut = Report.TimedOut;
  if (Result.TimedOut)
    return Result;
  Result.ContentHash = G.liveContentHash();

  // Extract the allocation partition: group allocation ids by the
  // canonical Obj of objOf.
  Result.AllocClass.assign(P.numAllAllocs(), 0);
  std::unordered_map<uint64_t, uint32_t> ClassMin;
  const Table &ObjTable = *G.function(ObjOf).Storage;
  for (size_t Row : ObjTable.liveRows()) {
    uint32_t A = static_cast<uint32_t>(G.valueToI64(ObjTable.cell(Row, 0)));
    uint64_t Class = G.canonicalize(ObjTable.cell(Row, 1)).Bits;
    auto [It, Fresh] = ClassMin.emplace(Class, A);
    if (!Fresh)
      It->second = std::min(It->second, A);
  }
  for (uint32_t A = 0; A < P.numAllAllocs(); ++A)
    Result.AllocClass[A] = A;
  for (size_t Row : ObjTable.liveRows()) {
    uint32_t A = static_cast<uint32_t>(G.valueToI64(ObjTable.cell(Row, 0)));
    Result.AllocClass[A] = ClassMin[G.canonicalize(ObjTable.cell(Row, 1)).Bits];
  }
  Result.VptSize = G.functionSize(Vpt);
  return Result;
}

//===----------------------------------------------------------------------===
// Datalog encodings
//===----------------------------------------------------------------------===

AnalysisResult runDatalog(const Program &P, System S,
                          double TimeoutSeconds) {
  AnalysisResult Result;
  datalog::Database DB;
  DB.declareRelation("alloc", 2);
  DB.declareRelation("copy", 2);
  DB.declareRelation("load", 2);
  DB.declareRelation("store", 2);
  DB.declareRelation("gep", 3);
  DB.declareRelation("fieldAlloc", 3);
  DB.declareRelation("vpt", 2);
  DB.declareRelation("aPt", 2);
  DB.declareEqRel("eql");

  // The representative relation only covers elements known up front.
  DB.eqrel("eql").ensure(P.numAllAllocs() == 0 ? 0 : P.numAllAllocs() - 1);

  datalog::Evaluator E(DB);
  bool Ok = true;
  if (S == System::EqRelEncoding) {
    // Nappa et al.'s direct encoding: no canonical representatives, so a
    // pointer may point to every member of an equivalence class and vpt is
    // closed under the eqrel — the quadratic blow-up of §6.1.
    Ok &= E.addRule("vpt(v, a) :- alloc(v, a).");
    Ok &= E.addRule("vpt(d, a) :- copy(d, s), vpt(s, a).");
    Ok &= E.addRule("eql(a, b) :- copy(d, s), vpt(d, a), vpt(s, b).");
    Ok &= E.addRule("eql(a, b) :- vpt(v, a), vpt(v, b).");
    Ok &= E.addRule("vpt(d, fa) :- gep(d, b, f), vpt(b, a), "
                    "fieldAlloc(a, f, fa).");
    Ok &= E.addRule("aPt(a, b) :- store(x, y), vpt(x, a), vpt(y, b).");
    Ok &= E.addRule("vpt(d, b) :- load(d, s), vpt(s, a), eql(a, a2), "
                    "aPt(a2, b).");
    Ok &= E.addRule("eql(ya, da) :- store(x, y), vpt(x, xa), vpt(y, ya), "
                    "load(d, q), vpt(q, qa), vpt(d, da), eql(xa, qa).");
    Ok &= E.addRule("eql(f1, f2) :- fieldAlloc(a1, f, f1), "
                    "fieldAlloc(a2, f, f2), eql(a1, a2).");
    Ok &= E.addRule("vpt(v, b) :- vpt(v, a), eql(a, b).");
  } else {
    // cclyzer++-style representative propagation: vpt carries one
    // representative per class (via the choice-style eql_repr relation),
    // keeping it near-linear. Loads still need the join modulo
    // equivalence that the paper identifies as an order of magnitude
    // slower than every other rule.
    Ok &= E.addRule("vpt(v, r) :- alloc(v, a), eql_repr(a, r).");
    Ok &= E.addRule("vpt(d, r) :- copy(d, s), vpt(s, a), eql_repr(a, r).");
    Ok &= E.addRule("eql(a, b) :- copy(d, s), vpt(d, a), vpt(s, b).");
    Ok &= E.addRule("eql(a, b) :- vpt(v, a), vpt(v, b).");
    Ok &= E.addRule("vpt(d, fr) :- gep(d, b, f), vpt(b, a), "
                    "fieldAlloc(a, f, fa), eql_repr(fa, fr).");
    Ok &= E.addRule("aPt(ar, br) :- store(x, y), vpt(x, a), eql_repr(a, ar), "
                    "vpt(y, b), eql_repr(b, br).");
    // Join modulo equivalence (the paper's slow rule).
    Ok &= E.addRule("vpt(d, br) :- load(d, s), vpt(s, a), eql(a, a2), "
                    "aPt(a2, b), eql_repr(b, br).");
    // The store/load unification rule adapted from the eqrel paper
    // (§6.1's displayed rule): if the store target and load source alias,
    // the stored value's pointees unify with the loaded value's pointees.
    Ok &= E.addRule("eql(ya, da) :- store(x, y), vpt(x, xa), vpt(y, ya), "
                    "load(d, q), vpt(q, qa), vpt(d, da), eql(xa, qa).");
    if (S == System::Patched) {
      // Congruence rules whose absence makes cclyzer++ unsound: contents
      // of equivalent cells unify (load/load and store/store), and fields
      // of equivalent allocations unify.
      Ok &= E.addRule("eql(da, ea) :- load(d, p), vpt(p, pa), vpt(d, da), "
                      "load(e, q), vpt(q, qa), vpt(e, ea), eql(pa, qa).");
      Ok &= E.addRule("eql(ya, za) :- store(x, y), vpt(x, xa), vpt(y, ya), "
                      "store(w, z), vpt(w, wa), vpt(z, za), eql(xa, wa).");
      Ok &= E.addRule("eql(f1, f2) :- fieldAlloc(a1, f, f1), "
                      "fieldAlloc(a2, f, f2), eql(a1, a2).");
    }
  }
  if (!Ok) {
    Result.TimedOut = true;
    return Result;
  }

  Timer Clock;
  for (auto [V, A] : P.Allocs)
    DB.relation("alloc").insert({V, A});
  for (auto [D, Src] : P.Copies)
    DB.relation("copy").insert({D, Src});
  for (auto [D, Src] : P.Loads)
    DB.relation("load").insert({D, Src});
  for (auto [D, Src] : P.Stores)
    DB.relation("store").insert({D, Src});
  for (auto [D, B, Fld] : P.Geps)
    DB.relation("gep").insert({D, B, Fld});
  for (uint32_t A = 0; A < P.NumBaseAllocs; ++A)
    for (uint32_t Fld = 0; Fld < P.NumFields; ++Fld)
      DB.relation("fieldAlloc").insert({A, Fld, P.fieldAlloc(A, Fld)});

  datalog::EvalOptions Opts;
  Opts.TimeoutSeconds = TimeoutSeconds;
  datalog::EvalStats Stats = E.run(Opts);
  Result.Seconds = Clock.seconds();
  Result.TimedOut = Stats.TimedOut;
  if (Result.TimedOut)
    return Result;

  // Extract the allocation partition from the eqrel.
  datalog::EqRel &Eql = DB.eqrel("eql");
  Result.AllocClass.assign(P.numAllAllocs(), 0);
  for (uint32_t A = 0; A < P.numAllAllocs(); ++A) {
    const std::vector<datalog::Val> &Members = Eql.members(A);
    uint32_t Min = A;
    for (datalog::Val M : Members)
      Min = std::min(Min, M);
    Result.AllocClass[A] = Min;
  }
  Result.VptSize = DB.relation("vpt").size();
  return Result;
}

} // namespace

AnalysisResult egglog::pointsto::runPointsTo(const Program &P, System S,
                                             double TimeoutSeconds,
                                             unsigned Threads) {
  switch (S) {
  case System::Egglog:
    return runEgglog(P, /*SemiNaive=*/true, TimeoutSeconds, Threads);
  case System::EgglogNI:
    return runEgglog(P, /*SemiNaive=*/false, TimeoutSeconds, Threads);
  case System::EqRelEncoding:
  case System::CClyzer:
  case System::Patched:
    return runDatalog(P, S, TimeoutSeconds);
  }
  return AnalysisResult();
}
