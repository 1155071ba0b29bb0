//===- tests/core/ExtractTest.cpp - Extraction subsystem tests -------------===//
//
// Part of egglog-cpp. Covers the persistent ExtractIndex: the warm-cache
// contract (zero cost-fixpoint row sweeps over an unchanged database),
// incremental refresh after inserts and merges, invalidation on deletion
// and pop, iterative term building at depths that would overflow a
// recursive builder, DAG versus tree cost, shortest round-trip f64
// rendering, and the negative-:cost diagnostics. The randomized driver
// holds the incremental index's costs identical to the from-scratch
// reference fixpoint (oracle/Reference.h) across union/insert/run/push/pop
// sequences.
//
//===----------------------------------------------------------------------===//

#include "core/Extract.h"
#include "core/Frontend.h"
#include "oracle/Reference.h"
#include "support/FailPoints.h"
#include "support/NumberFormat.h"

#include <gtest/gtest.h>

#include <random>

using namespace egglog;

namespace {

uint64_t rowsConsidered(EGraph &G) {
  return G.extractIndex().stats().RowsConsidered;
}

/// Builds S(S(...(Z)...)) of the given depth through the API (program text
/// would need Depth nested parentheses) and returns the root value.
Value buildChain(Frontend &F, size_t Depth) {
  EGraph &G = F.graph();
  FunctionId Zf = 0, Sf = 0;
  EXPECT_TRUE(G.lookupFunctionName("Z", Zf));
  EXPECT_TRUE(G.lookupFunctionName("S", Sf));
  Value Dummy, Cur;
  EXPECT_TRUE(G.getOrCreate(Zf, &Dummy, Cur));
  for (size_t I = 0; I < Depth; ++I) {
    Value Next;
    EXPECT_TRUE(G.getOrCreate(Sf, &Cur, Next));
    Cur = Next;
  }
  return Cur;
}

} // namespace

//===----------------------------------------------------------------------===
// Deep and degenerate terms
//===----------------------------------------------------------------------===

TEST(ExtractTest, DeepChainExtractsWithoutRecursion) {
  Frontend F;
  ASSERT_TRUE(F.execute("(datatype Chain (Z) (S Chain))")) << F.error();
  const size_t Depth = 70000; // would overflow a recursive term builder
  Value Root = buildChain(F, Depth);
  std::optional<ExtractedTerm> Term = extractTerm(F.graph(), Root);
  ASSERT_TRUE(Term.has_value());
  EXPECT_EQ(Term->Cost, static_cast<int64_t>(Depth) + 1);
  // A chain shares nothing, so DAG and tree cost agree.
  EXPECT_EQ(Term->DagCost, Term->Cost);
  EXPECT_EQ(Term->Text.size(), Depth * 3 + Depth + 1); // "(S " ... "Z" ")"*
  EXPECT_EQ(Term->Text.substr(0, 6), "(S (S ");
  EXPECT_EQ(Term->Text[Term->Text.size() - 1], ')');
}

TEST(ExtractTest, ValueWithoutTermIsNullopt) {
  Frontend F;
  ASSERT_TRUE(F.execute("(sort T)")) << F.error();
  SortId T = 0;
  ASSERT_TRUE(F.graph().sorts().lookup("T", T));
  Value Fresh = F.graph().freshId(T);
  EXPECT_FALSE(extractTerm(F.graph(), Fresh).has_value());
  EXPECT_FALSE(extractCost(F.graph(), Fresh).has_value());
}

//===----------------------------------------------------------------------===
// Warm-cache contract
//===----------------------------------------------------------------------===

TEST(ExtractTest, WarmRepeatedExtractionDoesZeroRowSweeps) {
  Frontend F;
  ASSERT_TRUE(F.execute(R"(
    (datatype Math (Num i64) (Add Math Math))
    (define e (Add (Num 1) (Add (Num 2) (Num 3))))
  )")) << F.error();
  Value Root;
  ASSERT_TRUE(F.evalGround("e", Root));
  ASSERT_TRUE(extractTerm(F.graph(), Root).has_value()); // cold fill

  const ExtractIndex::Stats &St = F.graph().extractIndex().stats();
  uint64_t Rows = St.RowsConsidered;
  uint64_t Warm = St.WarmHits;
  for (int I = 0; I < 5; ++I) {
    std::optional<ExtractedTerm> Term = extractTerm(F.graph(), Root);
    ASSERT_TRUE(Term.has_value());
    EXPECT_EQ(Term->Text, "(Add (Num 1) (Add (Num 2) (Num 3)))");
  }
  EXPECT_EQ(St.RowsConsidered, Rows) << "warm extracts must not sweep rows";
  EXPECT_EQ(St.WarmHits, Warm + 5);
}

TEST(ExtractTest, NonIdTableChangesStayWarm) {
  // Inserting into a table whose output is not an id sort cannot change
  // any class cost; the index must not even count it as dirty.
  Frontend F;
  ASSERT_TRUE(F.execute(R"(
    (datatype Math (Num i64))
    (relation seen (i64))
    (define e (Num 7))
  )")) << F.error();
  Value Root;
  ASSERT_TRUE(F.evalGround("e", Root));
  ASSERT_TRUE(extractTerm(F.graph(), Root).has_value());
  uint64_t Rows = rowsConsidered(F.graph());
  ASSERT_TRUE(F.execute("(seen 1) (seen 2)")) << F.error();
  ASSERT_TRUE(extractTerm(F.graph(), Root).has_value());
  EXPECT_EQ(rowsConsidered(F.graph()), Rows);
}

TEST(ExtractTest, IncrementalAppendScansOnlySuffix) {
  Frontend F;
  ASSERT_TRUE(F.execute("(datatype Chain (Z) (S Chain))")) << F.error();
  Value Root = buildChain(F, 4000);
  ASSERT_TRUE(extractTerm(F.graph(), Root).has_value());
  uint64_t Full = F.graph().extractIndex().stats().FullRebuilds;

  // Extend the chain; the next refresh must touch only the appended rows
  // (each is considered at scan plus once more when its class is queued).
  FunctionId Sf = 0;
  ASSERT_TRUE(F.graph().lookupFunctionName("S", Sf));
  Value Cur = Root;
  const size_t Added = 100;
  for (size_t I = 0; I < Added; ++I) {
    Value Next;
    ASSERT_TRUE(F.graph().getOrCreate(Sf, &Cur, Next));
    Cur = Next;
  }
  uint64_t Rows = rowsConsidered(F.graph());
  std::optional<ExtractedTerm> Term = extractTerm(F.graph(), Cur);
  ASSERT_TRUE(Term.has_value());
  EXPECT_EQ(Term->Cost, 4101);
  EXPECT_LE(rowsConsidered(F.graph()) - Rows, 2 * Added);
  EXPECT_EQ(F.graph().extractIndex().stats().FullRebuilds, Full)
      << "append must not trigger a from-scratch fixpoint";
}

//===----------------------------------------------------------------------===
// Merges, contexts, deletion
//===----------------------------------------------------------------------===

TEST(ExtractTest, ExtractionTracksMergesAcrossPushPop) {
  Frontend F;
  ASSERT_TRUE(F.execute(R"(
    (datatype Math (Num i64) (Add Math Math))
    (define e (Add (Num 1) (Num 2)))
    (extract e)
    (push)
    (rewrite (Add (Num a) (Num b)) (Num (+ a b)))
    (run 3)
    (extract e)
    (pop)
    (extract e)
  )")) << F.error();
  ASSERT_EQ(F.outputs().size(), 3u);
  EXPECT_EQ(F.outputs()[0], "(Add (Num 1) (Num 2))");
  EXPECT_EQ(F.outputs()[1], "(Num 3)");
  EXPECT_EQ(F.outputs()[2], "(Add (Num 1) (Num 2))")
      << "pop must restore the pre-merge cheapest term";
}

TEST(ExtractTest, DeleteInvalidatesAndRaisesCost) {
  Frontend F;
  ASSERT_TRUE(F.execute(R"(
    (datatype Math (Num i64 :cost 10) (Add Math Math))
    (Add (Num 1) (Num 2))
    (union (Add (Num 1) (Num 2)) (Num 99))
  )")) << F.error();
  Value Root;
  ASSERT_TRUE(F.evalGround("(Num 99)", Root));
  std::optional<ExtractedTerm> Before = extractTerm(F.graph(), Root);
  ASSERT_TRUE(Before.has_value());
  EXPECT_EQ(Before->Cost, 11); // (Num 99)
  EXPECT_EQ(Before->Text, "(Num 99)");
  // Deleting the cheapest entry must raise the class cost — exactly the
  // move the decrease-only incremental refresh cannot absorb, so it must
  // invalidate and recompute from scratch.
  ASSERT_TRUE(F.execute("(delete (Num 99))")) << F.error();
  std::optional<ExtractedTerm> After = extractTerm(F.graph(), Root);
  ASSERT_TRUE(After.has_value());
  EXPECT_EQ(After->Cost, 23); // (Add (Num 1) (Num 2))
  EXPECT_EQ(After->Text, "(Add (Num 1) (Num 2))");
  EXPECT_GE(F.graph().extractIndex().stats().FullRebuilds, 2u);
}

TEST(ExtractTest, NoOpDeleteStaysWarm) {
  Frontend F;
  ASSERT_TRUE(F.execute(R"(
    (datatype Math (Num i64))
    (Num 7)
  )")) << F.error();
  Value Root;
  ASSERT_TRUE(F.evalGround("(Num 7)", Root));
  ASSERT_TRUE(extractTerm(F.graph(), Root).has_value());
  const ExtractIndex::Stats &St = F.graph().extractIndex().stats();
  uint64_t Full = St.FullRebuilds;
  uint64_t Rows = St.RowsConsidered;
  // Deleting an absent key erases nothing; the index must stay warm.
  ASSERT_TRUE(F.execute("(delete (Num 12345))")) << F.error();
  ASSERT_TRUE(extractTerm(F.graph(), Root).has_value());
  EXPECT_EQ(St.FullRebuilds, Full);
  EXPECT_EQ(St.RowsConsidered, Rows);
}

//===----------------------------------------------------------------------===
// Variants
//===----------------------------------------------------------------------===

TEST(ExtractTest, ExtractVariantsCommandPrintsCheapestFirst) {
  Frontend F;
  ASSERT_TRUE(F.execute(R"(
    (datatype Math (Num i64) (Add Math Math))
    (define e (Add (Num 1) (Num 2)))
    (rewrite (Add a b) (Add b a))
    (rewrite (Add (Num a) (Num b)) (Num (+ a b)))
    (run 4)
    (extract e 3)
  )")) << F.error();
  ASSERT_EQ(F.outputs().size(), 3u);
  EXPECT_EQ(F.outputs()[0], "(Num 3)");
  // The two Add orientations follow, in deterministic order.
  EXPECT_TRUE(F.outputs()[1] == "(Add (Num 1) (Num 2))" ||
              F.outputs()[1] == "(Add (Num 2) (Num 1))");
  EXPECT_NE(F.outputs()[1], F.outputs()[2]);
}

TEST(ExtractTest, ExtractVariantsRejectsBadCount) {
  Frontend F;
  ASSERT_TRUE(F.execute(R"(
    (datatype Math (Num i64))
    (define e (Num 1))
  )")) << F.error();
  EXPECT_FALSE(F.execute("(extract e 0)"));
  Frontend F2;
  ASSERT_TRUE(F2.execute(R"(
    (datatype Math (Num i64))
    (define e (Num 1))
  )")) << F2.error();
  EXPECT_FALSE(F2.execute("(extract e 1 2)"));
}

TEST(ExtractTest, VariantPrefixesAreStableAcrossGrowingRequests) {
  Frontend F;
  ASSERT_TRUE(F.execute(R"(
    (datatype Math (Num i64) (Add Math Math))
    (define e (Add (Num 1) (Num 2)))
    (rewrite (Add a b) (Add b a))
    (run 2)
  )")) << F.error();
  Value Root;
  ASSERT_TRUE(F.evalGround("e", Root));
  std::vector<ExtractedTerm> Few = extractVariants(F.graph(), Root, 2);
  uint64_t Rows = rowsConsidered(F.graph());
  std::vector<ExtractedTerm> Many = extractVariants(F.graph(), Root, 10);
  EXPECT_EQ(rowsConsidered(F.graph()), Rows)
      << "the larger request must reuse the warm index";
  ASSERT_GE(Many.size(), Few.size());
  for (size_t I = 0; I < Few.size(); ++I)
    EXPECT_EQ(Few[I].Text, Many[I].Text);
}

//===----------------------------------------------------------------------===
// DAG cost
//===----------------------------------------------------------------------===

TEST(ExtractTest, DagCostCreditsSharing) {
  Frontend F;
  ASSERT_TRUE(F.execute(R"(
    (datatype Math (Num i64) (Add Math Math))
    (define t (Add (Num 1) (Num 2)))
    (define e (Add t t))
  )")) << F.error();
  Value Root;
  ASSERT_TRUE(F.evalGround("e", Root));
  std::optional<ExtractedTerm> Term = extractTerm(F.graph(), Root);
  ASSERT_TRUE(Term.has_value());
  // Tree: Add(1) + 2 * [Add(1) + Num(2) + Num(2)] = 11.
  EXPECT_EQ(Term->Cost, 11);
  // DAG: the shared subterm and each Num class pay once: 1 + 5 = 6.
  EXPECT_EQ(Term->DagCost, 6);
  std::optional<ExtractedTerm> Dag = extractTermDag(F.graph(), Root);
  ASSERT_TRUE(Dag.has_value());
  EXPECT_EQ(Dag->Cost, 6);
  EXPECT_EQ(Dag->Text, Term->Text);
}

TEST(ExtractTest, TiedCostMergeFoldCannotCreateRenderCycle) {
  // Regression: with a 0-cost constructor, merging two classes of EQUAL
  // cost could leave the kept best row referencing its own merged class
  // (w's best was (S u) at cost 1; u's class, also cost 1, then merged
  // in), and rendering diverged. The fold now detects the tie and rebuilds
  // from scratch, whose adoptions are acyclic.
  Frontend F;
  ASSERT_TRUE(F.execute(R"(
    (datatype N (A :cost 5) (B :cost 1) (S N :cost 0))
    (define w (A))
    (define u (B))
  )")) << F.error();
  Value W;
  ASSERT_TRUE(F.evalGround("w", W));
  std::optional<ExtractedTerm> T0 = extractTerm(F.graph(), W);
  ASSERT_TRUE(T0.has_value());
  EXPECT_EQ(T0->Text, "A");
  ASSERT_TRUE(F.execute("(union w (S u))")) << F.error();
  std::optional<ExtractedTerm> T1 = extractTerm(F.graph(), W);
  ASSERT_TRUE(T1.has_value());
  EXPECT_EQ(T1->Text, "(S B)");
  EXPECT_EQ(T1->Cost, 1);
  // The dangerous merge: both classes cost 1.
  ASSERT_TRUE(F.execute("(union w u)")) << F.error();
  std::optional<ExtractedTerm> T2 = extractTerm(F.graph(), W);
  ASSERT_TRUE(T2.has_value());
  EXPECT_EQ(T2->Text, "B");
  EXPECT_EQ(T2->Cost, 1);
}

TEST(ExtractTest, SelfReferentialVariantChargesChildSubtree) {
  // (Neg root) lies in root's own class; its DAG cost must include the
  // rendered child subtree (the class's best term), not skip it.
  Frontend F;
  ASSERT_TRUE(F.execute(R"(
    (datatype Math (Num i64) (Neg Math))
    (Num 0)
    (union (Num 0) (Neg (Num 0)))
  )")) << F.error();
  Value Root;
  ASSERT_TRUE(F.evalGround("(Num 0)", Root));
  std::vector<ExtractedTerm> Variants = extractVariants(F.graph(), Root, 4);
  ASSERT_EQ(Variants.size(), 2u);
  EXPECT_EQ(Variants[0].Text, "(Num 0)");
  EXPECT_EQ(Variants[0].DagCost, 2); // Num + base constant
  EXPECT_EQ(Variants[1].Text, "(Neg (Num 0))");
  EXPECT_EQ(Variants[1].Cost, 3);
  EXPECT_EQ(Variants[1].DagCost, 3); // Neg + the (Num 0) subtree
}

//===----------------------------------------------------------------------===
// f64 rendering
//===----------------------------------------------------------------------===

TEST(ExtractTest, F64FormattingRoundTrips) {
  const double Cases[] = {0.1,    1.0 / 3.0,  1e-300, 1e300,
                          0.5,    -2.5e-8,    0.0,    123456789.123456789,
                          3.0,    0.30000000000000004,
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()};
  for (double D : Cases) {
    std::string Text = formatF64(D);
    ParseResult Parsed = parseSExprs(Text);
    ASSERT_TRUE(Parsed.Ok && Parsed.Forms.size() == 1) << Text;
    ASSERT_TRUE(Parsed.Forms[0].isFloat())
        << Text << " must lex as a float literal";
    EXPECT_EQ(Parsed.Forms[0].FloatValue, D) << Text;
    // print -> parse -> print is a fixpoint.
    EXPECT_EQ(formatF64(Parsed.Forms[0].FloatValue), Text);
  }
}

TEST(ExtractTest, F64ExtractionPreservesPrecision) {
  Frontend F;
  ASSERT_TRUE(F.execute(R"(
    (datatype W (Wrap f64))
    (define e (Wrap 0.30000000000000004))
    (extract e)
  )")) << F.error();
  ASSERT_EQ(F.outputs().size(), 1u);
  // std::to_string would have printed 0.300000 and lost the value.
  EXPECT_EQ(F.outputs()[0], "(Wrap 0.30000000000000004)");
}

//===----------------------------------------------------------------------===
// :cost validation
//===----------------------------------------------------------------------===

TEST(ExtractTest, NegativeCostsAreRejectedAtDeclaration) {
  {
    Frontend F;
    EXPECT_FALSE(F.execute("(datatype M (Mk i64 :cost -1))"));
    EXPECT_NE(F.error().find("non-negative"), std::string::npos) << F.error();
  }
  {
    Frontend F;
    ASSERT_TRUE(F.execute("(sort T)"));
    EXPECT_FALSE(F.execute("(function f () T :cost -2)"));
    EXPECT_NE(F.error().find("non-negative"), std::string::npos) << F.error();
  }
  {
    Frontend F;
    ASSERT_TRUE(F.execute("(datatype M (Num i64))"));
    EXPECT_FALSE(F.execute("(define x (Num 1) :cost -3)"));
    EXPECT_NE(F.error().find("non-negative"), std::string::npos) << F.error();
  }
}

//===----------------------------------------------------------------------===
// Randomized differential: incremental index vs from-scratch fixpoint
//===----------------------------------------------------------------------===

namespace {

/// Random driver over one database: term insertion, unions, rule runs,
/// push/pop. After every batch the incremental index's cost for every
/// class must equal the from-scratch reference.
class ExtractDifferential {
public:
  explicit ExtractDifferential(uint32_t Seed) : Rng(Seed) {
    // Constructor costs 1..4 exercise non-uniform cost arithmetic; the
    // rewrites churn merges through run()/rebuild().
    EXPECT_TRUE(F.execute(R"(
      (datatype T (A) (B :cost 2) (F T :cost 3) (G T T :cost 4))
      (rewrite (F (F x)) x)
      (rewrite (G x y) (G y x))
    )")) << F.error();
    EXPECT_TRUE(F.graph().sorts().lookup("T", Sort));
    Value Root;
    EXPECT_TRUE(F.evalGround("(A)", Root) || makeLeaf("A", Root));
  }

  void run(unsigned Steps) {
    for (unsigned Step = 0; Step < Steps; ++Step) {
      switch (pick(12)) {
      case 0:
      case 1:
      case 2:
        makeUnary();
        break;
      case 3:
      case 4:
        makeBinary();
        break;
      case 5:
        leaf();
        break;
      case 6:
      case 7:
        unite();
        break;
      case 8:
        runRules();
        break;
      case 9:
        push();
        break;
      case 10:
        pop();
        break;
      default:
        break;
      }
      if (Step % 7 == 0)
        check();
    }
    check();
  }

private:
  Frontend F;
  SortId Sort = 0;
  std::vector<Value> Values;
  size_t ContextDepth = 0;
  std::vector<size_t> ValueMarks;
  std::mt19937 Rng;

  size_t pick(size_t N) { return Rng() % N; }

  bool makeLeaf(const std::string &Name, Value &Out) {
    FunctionId Func = 0;
    if (!F.graph().lookupFunctionName(Name, Func))
      return false;
    Value Dummy;
    if (!F.graph().getOrCreate(Func, &Dummy, Out))
      return false;
    Values.push_back(Out);
    return true;
  }

  Value randomValue() {
    if (Values.empty()) {
      Value Out;
      EXPECT_TRUE(makeLeaf("A", Out));
      return Out;
    }
    return Values[pick(Values.size())];
  }

  void leaf() {
    Value Out;
    EXPECT_TRUE(makeLeaf(pick(2) ? "A" : "B", Out));
  }

  void makeUnary() {
    FunctionId Func = 0;
    ASSERT_TRUE(F.graph().lookupFunctionName("F", Func));
    Value Arg = randomValue();
    Value Out;
    ASSERT_TRUE(F.graph().getOrCreate(Func, &Arg, Out));
    Values.push_back(Out);
  }

  void makeBinary() {
    FunctionId Func = 0;
    ASSERT_TRUE(F.graph().lookupFunctionName("G", Func));
    Value Args[2] = {randomValue(), randomValue()};
    Value Out;
    ASSERT_TRUE(F.graph().getOrCreate(Func, Args, Out));
    Values.push_back(Out);
  }

  void unite() {
    Value A = randomValue(), B = randomValue();
    F.graph().unionValues(A, B);
    F.graph().rebuild();
    ASSERT_FALSE(F.graph().failed()) << F.graph().errorMessage();
  }

  void runRules() {
    RunOptions Opts;
    Opts.Iterations = 1;
    F.engine().run(Opts);
    ASSERT_FALSE(F.graph().failed()) << F.graph().errorMessage();
  }

  void push() {
    if (ContextDepth >= 4)
      return;
    F.pushContext();
    ValueMarks.push_back(Values.size());
    ++ContextDepth;
  }

  void pop() {
    if (ContextDepth == 0)
      return;
    ASSERT_TRUE(F.popContext());
    // Values minted inside the abandoned context are gone.
    Values.resize(ValueMarks.back());
    ValueMarks.pop_back();
    --ContextDepth;
  }

  void check() {
    EGraph &G = F.graph();
    if (G.needsRebuild())
      G.rebuild();
    std::unordered_map<uint64_t, int64_t> Reference =
        oracle::extractCostsReference(G);
    // Refresh once, then compare every class both ways: each reference
    // entry must match, and every id without a reference entry must be
    // Infinity in the index too.
    ExtractIndex &Idx = G.extractIndex();
    Idx.refresh(G);
    for (const auto &[Class, Cost] : Reference) {
      EXPECT_EQ(Idx.costOf(G, Value(Sort, Class)), Cost)
          << "class " << Class << " diverged";
    }
    for (uint64_t Id = 0; Id < G.unionFind().size(); ++Id) {
      uint64_t Root = G.unionFind().find(Id);
      auto It = Reference.find(Root);
      int64_t Expected =
          It == Reference.end() ? ExtractIndex::Infinity : It->second;
      EXPECT_EQ(Idx.costOf(G, Value(Sort, Id)), Expected)
          << "id " << Id << " diverged";
    }
  }
};

} // namespace

TEST(ExtractTest, RandomizedDifferentialMatchesReference) {
  for (uint32_t Seed : {11u, 23u, 37u, 59u, 101u}) {
    ExtractDifferential Driver(Seed);
    Driver.run(220);
  }
}

#if EGGLOG_FAILPOINTS_ENABLED

TEST(ExtractTest, InjectedFaultDuringExtractRollsBack) {
  // A fault swept across every hit of (extract e) — the command entry,
  // the pre-extract rebuild, and the index's scan and drain rows — must
  // leave no trace: content hash unchanged, no output emitted, and the
  // eventual clean extraction equal to a never-faulted one. The index is
  // invalidated before every attempt so each extraction is from-scratch
  // (among equal-cost terms the winner depends on the index's maintenance
  // history, so only from-scratch runs are comparable).
  struct Disarm {
    ~Disarm() { failpoints::disarm(); }
  } Guard;

  Frontend F;
  ASSERT_TRUE(F.execute(R"(
    (datatype Math (Num i64) (Add Math Math))
    (rewrite (Add a b) (Add b a))
    (rewrite (Add (Num x) (Num y)) (Num (+ x y)))
    (define e (Add (Num 1) (Add (Num 2) (Num 3))))
    (run 3)
  )")) << F.error();
  F.graph().governor().setCheckpointInterval(1);

  F.graph().extractIndex().invalidate();
  ASSERT_TRUE(F.execute("(extract e)")) << F.error();
  ASSERT_EQ(F.outputs().size(), 1u);
  std::string Expected = F.outputs().back();
  F.clearOutputs();

  uint64_t Before = F.graph().liveContentHash();
  size_t Faults = 0;
  for (uint64_t K = 1;; K = K < 8 ? K + 1 : K + (K >> 1)) {
    F.graph().extractIndex().invalidate();
    failpoints::arm(nullptr, K);
    bool Ok = F.execute("(extract e)");
    failpoints::disarm();
    if (Ok)
      break;
    ++Faults;
    ASSERT_NE(F.error().find("injected fault"), std::string::npos)
        << F.error();
    EXPECT_EQ(F.graph().liveContentHash(), Before) << "hit " << K;
    EXPECT_TRUE(F.outputs().empty()) << "hit " << K;
  }
  EXPECT_GT(Faults, 2u);
  ASSERT_EQ(F.outputs().size(), 1u);
  EXPECT_EQ(F.outputs().back(), Expected);
}

#endif // EGGLOG_FAILPOINTS_ENABLED
