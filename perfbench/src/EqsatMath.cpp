//===- perfbench/src/EqsatMath.cpp - The eqsat-math workload -------------===//
//
// Part of egglog-cpp's benchmark. The large e-graph case (Fig. 7): the
// math rules over the eight Fig. 7 seeds plus seeded generated terms,
// grown under BackOff with a raised match limit, then one extraction of
// every root. Rebuild, congruence and one big ExtractIndex refresh all
// get real work.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "MathTerms.h"

#include "core/Extract.h"

#include <algorithm>
#include <cstdio>

using namespace egglog;

namespace pb {
namespace {

/// Sizing (see README.md): the eight Fig. 7 seeds grown for 30 BackOff
/// iterations at a 128000 match limit reach ~816k tuples. The match limit,
/// not NodeLimit, bounds growth, because the node limit is only checked
/// between iterations. Growth is very sensitive to extra terms (64 more
/// random roots shrink the graph to ~45k tuples, 1000 at a 512000 limit
/// grow it past 1M), so the seed does not add terms: it renames the
/// object-language variables and shuffles the order the roots are
/// inserted in, which changes every id and hash but not the amount of
/// work.
constexpr unsigned Iterations = 30;
constexpr uint64_t MatchLimit = 128000;
/// The program is loaded this many times per repetition (setup_s is the
/// median), since one load of eight terms takes well under a millisecond.
constexpr unsigned SetupLoads = 5;

class EqsatMath : public Workload {
public:
  bool prepare(uint32_t Seed, const std::string &) override {
    std::mt19937 Rng(mixSeed(Seed, 0));
    std::vector<std::string> Terms = fig7Seeds();
    std::shuffle(Terms.begin(), Terms.end(), Rng);
    for (const char *Var : {"x", "y", "z", "a", "b", "c"}) {
      std::string From = std::string("(Sym \"") + Var + "\")";
      std::string To = "(Sym \"" + std::string(Var) + std::to_string(Rng()) +
                       "\")";
      for (std::string &Term : Terms)
        for (size_t At; (At = Term.find(From)) != std::string::npos;)
          Term.replace(At, From.size(), To);
    }
    Program = mathProgram();
    for (size_t I = 0; I < Terms.size(); ++I) {
      Program += "(set (root " + std::to_string(I) + ") " + Terms[I] + ")\n";
      RootCosts.push_back(treeCost(parseSExprs(Terms[I]).Forms[0]));
      RootQueries.push_back("(root " + std::to_string(I) + ")");
    }
    return true;
  }

  Rep run(Tracer *T, unsigned Threads) override {
    Rep R;
    std::unique_ptr<Frontend> Loaded;
    std::vector<double> Loads;
    for (unsigned I = 0; I < SetupLoads; ++I) {
      Clock::time_point LoadStart = Clock::now();
      Span S(T, "setup");
      Loaded = std::make_unique<Frontend>();
      if (!execText(*Loaded, Program, T, R))
        return R;
      Loads.push_back(secondsSince(LoadStart));
    }
    std::sort(Loads.begin(), Loads.end());
    R.SetupS = Loads[SetupLoads / 2];
    Clock::time_point Start = Clock::now();
    Frontend &F = *Loaded;
    F.engine().setThreads(Threads);
    EGraph &G = F.graph();

    RunOptions &Opts = F.runOptions();
    Opts.UseBackoff = true;
    Opts.BackoffMatchLimit = MatchLimit;
    Opts.TimeoutSeconds = 120;
    size_t TuplesBefore = G.liveTupleCount();
    uint64_t UnionsBefore = G.unionFind().unionCount();
    IndexCache::Stats IndexBefore = G.indexStats();
    Clock::time_point SolveStart = Clock::now();
    {
      Span S(T, "solve");
      Span Run(T, "engine.run");
      if (!execForm(F, RunForm, R))
        return R;
      Run.count("live_tuples", static_cast<double>(G.liveTupleCount()));
    }
    R.SolveS = secondsSince(SolveStart);
    addRunReport(R, F.lastRun(), TuplesBefore, UnionsBefore, G);
    addIndexDelta(R, IndexBefore, G.indexStats());
    size_t Tuples = G.liveTupleCount();
    R.add("graph.live_tuples", static_cast<double>(Tuples));
    R.add("graph.approx_mb", G.approxBytes() / (1024.0 * 1024.0));

    // Answer: one refresh of the persistent ExtractIndex, then the best
    // term of every root.
    ExtractCounters XBefore = extractCounters(G);
    std::vector<Value> Roots(RootQueries.size());
    std::vector<ExtractedTerm> Best(RootQueries.size());
    Clock::time_point AnswerStart = Clock::now();
    {
      Span S(T, "answer");
      {
        Span Refresh(T, "extract.refresh");
        G.extractIndex().refresh(G);
      }
      Span Render(T, "extract.render");
      for (size_t I = 0; I < RootQueries.size(); ++I) {
        ++R.Attempted;
        std::optional<ExtractedTerm> Term;
        if (F.evalGround(RootQueries[I], Roots[I]))
          Term = extractTerm(G, Roots[I]);
        if (!Term) {
          ++R.Failed;
          R.error("no term extracted for " + RootQueries[I]);
          continue;
        }
        Best[I] = std::move(*Term);
      }
    }
    R.AnswerS = secondsSince(AnswerStart);
    R.TotalS = R.SetupS + secondsSince(Start);
    ExtractCounters XAfter = extractCounters(G);
    addExtractDelta(R, XBefore, XAfter);
    if (XAfter.Rows > XBefore.Rows)
      R.add("_extract.refreshed_tuples", static_cast<double>(Tuples));

    // Checks (untimed): every extracted term is in its root's class, its
    // reported cost is its tree cost, and it is no costlier than the term
    // the root started from.
    uint64_t CostSum = 0, CostDigest = 0xCBF29CE484222325ull;
    for (size_t I = 0; I < Best.size(); ++I) {
      if (Best[I].Text.empty())
        continue;
      Value Back;
      if (!F.evalGround(Best[I].Text, Back) ||
          G.canonicalize(Back) != G.canonicalize(Roots[I]))
        R.error(RootQueries[I] + ": extracted term is not in the root's class");
      ParseResult Parsed = parseSExprs(Best[I].Text);
      if (!Parsed.Ok || Parsed.Forms.size() != 1 ||
          treeCost(Parsed.Forms[0]) != Best[I].Cost)
        R.error(RootQueries[I] + ": reported cost is not the tree cost");
      if (Best[I].Cost > RootCosts[I])
        R.error(RootQueries[I] + ": extracted term costs more than the seed");
      CostSum += static_cast<uint64_t>(Best[I].Cost);
      CostDigest = (CostDigest ^ static_cast<uint64_t>(Best[I].Cost)) *
                   0x100000001B3ull;
    }
    R.Outputs["content_hash"] = hex64(G.liveContentHash());
    R.Outputs["live_tuples"] = std::to_string(Tuples);
    R.Outputs["root_cost_sum"] = std::to_string(CostSum);
    R.Outputs["root_cost_digest"] = hex64(CostDigest);
    return R;
  }

private:
  std::string Program;
  std::vector<std::string> RootQueries;
  std::vector<int64_t> RootCosts;
  SExpr RunForm =
      parseSExprs("(run " + std::to_string(Iterations) + ")").Forms[0];
};

} // namespace

std::unique_ptr<Workload> makeEqsatMath() {
  return std::make_unique<EqsatMath>();
}

} // namespace pb
