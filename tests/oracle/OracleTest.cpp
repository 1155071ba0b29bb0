//===- tests/oracle/OracleTest.cpp - Engine vs. reference oracle -----------===//
//
// Part of egglog-cpp. The first differential that does not check the engine
// against a mode of itself: every seeded program (ProgramGen.h) runs on two
// Frontends. Frontend E is the engine (generic join, semi-naïve delta
// variants, worklist rebuild; at 4 match threads for every fourth seed).
// Frontend R executes every command the same way except (run ...), which
// goes through referenceRun (Reference.h): naive evaluation with a
// nested-loop join and a brute-force sweep rebuild.
//
// After every run both databases must be canonical (no live row holds a
// value the union-find has merged away), and they must agree on
//   * the live row count of every function,
//   * the exact row set of every function whose columns are all i64/unit,
//   * for every pair of defined names, whether the two are equal.
// Fresh ids legitimately differ between the two sides (naive evaluation
// applies matches in another order and mints ids in another order), so no
// raw id of an id sort is ever compared.
//
// After every run the engine's incremental ExtractIndex must also give
// every class the cost of the from-scratch fixpoint
// (extractCostsReference), over whatever history of runs, unions, pushes
// and pops the program had.
//
//===----------------------------------------------------------------------===//

#include "core/Extract.h"
#include "oracle/ProgramGen.h"
#include "oracle/Reference.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <unordered_map>

using namespace egglog;
using namespace egglog::oracle;

namespace {

bool isBaseSort(SortId Sort) {
  return Sort == SortTable::I64Sort || Sort == SortTable::UnitSort;
}

/// The live rows of \p Func as raw bits.
std::set<std::vector<uint64_t>> rowSet(EGraph &G, FunctionId Func) {
  std::set<std::vector<uint64_t>> Rows;
  const Table &T = *G.function(Func).Storage;
  for (size_t Row = 0; Row < T.rowCount(); ++Row) {
    if (!T.isLive(Row))
      continue;
    std::vector<uint64_t> Cells;
    for (unsigned C = 0; C < T.rowWidth(); ++C)
      Cells.push_back(T.cell(Row, C).Bits);
    Rows.insert(std::move(Cells));
  }
  return Rows;
}

/// The first live row of \p G holding a non-canonical value, described;
/// empty when every row is canonical (the state a run must end in).
std::string staleRow(EGraph &G) {
  for (FunctionId F = 0; F < G.numFunctions(); ++F) {
    const Table &T = *G.function(F).Storage;
    for (size_t Row = 0; Row < T.rowCount(); ++Row) {
      if (!T.isLive(Row))
        continue;
      for (unsigned C = 0; C < T.rowWidth(); ++C)
        if (G.canonicalize(T.cell(Row, C)) != T.cell(Row, C))
          return "stale row in '" + G.function(F).Decl.Name + "'";
    }
  }
  return "";
}

/// Describes the first disagreement between the two databases, or returns
/// the empty string when they agree.
std::string compare(Frontend &E, Frontend &R) {
  EGraph &GE = E.graph(), &GR = R.graph();
  if (std::string Stale = staleRow(GE); !Stale.empty())
    return "engine: " + Stale;
  if (std::string Stale = staleRow(GR); !Stale.empty())
    return "reference: " + Stale;
  if (GE.numFunctions() != GR.numFunctions())
    return "function counts differ";
  std::vector<FunctionId> Defines;
  for (FunctionId F = 0; F < GE.numFunctions(); ++F) {
    const FunctionDecl &Decl = GE.function(F).Decl;
    if (GE.functionSize(F) != GR.functionSize(F))
      return "live count of '" + Decl.Name + "': engine " +
             std::to_string(GE.functionSize(F)) + ", reference " +
             std::to_string(GR.functionSize(F));
    bool AllBase = isBaseSort(Decl.OutSort);
    for (SortId Arg : Decl.ArgSorts)
      AllBase &= isBaseSort(Arg);
    if (AllBase && rowSet(GE, F) != rowSet(GR, F))
      return "rows of '" + Decl.Name + "' differ";
    if (Decl.ArgSorts.empty())
      Defines.push_back(F);
  }
  // Defined names: nullary functions. Equal on one side iff on the other.
  for (size_t I = 0; I < Defines.size(); ++I) {
    for (size_t J = I + 1; J < Defines.size(); ++J) {
      const std::string &A = GE.function(Defines[I]).Decl.Name;
      const std::string &B = GE.function(Defines[J]).Decl.Name;
      Value EA, EB, RA, RB;
      bool EqE = E.evalGround(A, EA) && E.evalGround(B, EB) && EA == EB;
      bool EqR = R.evalGround(A, RA) && R.evalGround(B, RB) && RA == RB;
      if (EqE != EqR)
        return A + " = " + B + ": engine " + (EqE ? "yes" : "no") +
               ", reference " + (EqR ? "yes" : "no");
    }
  }
  return "";
}

/// Describes the first class whose ExtractIndex cost differs from the
/// from-scratch reference, or returns the empty string.
std::string extractCostMismatch(EGraph &G) {
  const SortId *IdSort = nullptr;
  for (FunctionId F = 0; F < G.numFunctions() && !IdSort; ++F)
    if (G.sorts().isIdSort(G.function(F).Decl.OutSort))
      IdSort = &G.function(F).Decl.OutSort;
  if (!IdSort)
    return "";
  ExtractIndex &Idx = G.extractIndex();
  Idx.refresh(G);
  std::unordered_map<uint64_t, int64_t> Reference = extractCostsReference(G);
  for (uint64_t Id = 0; Id < G.unionFind().size(); ++Id) {
    auto It = Reference.find(G.unionFind().find(Id));
    int64_t Expected =
        It == Reference.end() ? ExtractIndex::Infinity : It->second;
    int64_t Got = Idx.costOf(G, Value(*IdSort, Id));
    if (Got != Expected)
      return "extraction cost of id " + std::to_string(Id) + ": index " +
             std::to_string(Got) + ", reference " + std::to_string(Expected);
  }
  return "";
}

std::string programText(const std::vector<GenCommand> &Program) {
  std::ostringstream Out;
  for (const GenCommand &C : Program)
    Out << C.Text << "\n";
  return Out.str();
}

/// Runs seed \p Seed on both sides; reports the first disagreement (with
/// the whole program, for reproduction) as a test failure.
void checkSeed(uint32_t Seed) {
  std::vector<GenCommand> Program = ProgramGen(Seed).generate();
  Frontend E, R;
  if (Seed % 4 == 0)
    E.engine().setThreads(4);
  for (size_t K = 0; K < Program.size(); ++K) {
    const GenCommand &C = Program[K];
    auto Where = [&] {
      return "seed " + std::to_string(Seed) + ", command " +
             std::to_string(K) + " " + C.Text + "\nprogram:\n" +
             programText(Program);
    };
    ASSERT_TRUE(E.execute(C.Text)) << E.error() << "\n" << Where();
    if (!C.IsRun) {
      ASSERT_TRUE(R.execute(C.Text)) << R.error() << "\n" << Where();
      continue;
    }
    RulesetId Ruleset = 0;
    ASSERT_TRUE(R.engine().lookupRuleset(C.Ruleset, Ruleset)) << Where();
    referenceRun(R, Ruleset, C.Iterations);
    ASSERT_FALSE(R.graph().failed())
        << R.graph().errorMessage() << "\n" << Where();
    std::string Diff = compare(E, R);
    ASSERT_TRUE(Diff.empty()) << Diff << "\n" << Where();
    std::string Costs = extractCostMismatch(E.graph());
    ASSERT_TRUE(Costs.empty()) << Costs << "\n" << Where();
  }
}

/// Seeds 1..200 in four shards, so ctest can run them side by side.
class OracleTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(OracleTest, EngineAgreesWithNaiveReference) {
  for (uint32_t Seed = GetParam() * 50 + 1; Seed <= GetParam() * 50 + 50;
       ++Seed) {
    checkSeed(Seed);
    if (HasFatalFailure())
      return;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, OracleTest, ::testing::Range(0u, 4u));

} // namespace
