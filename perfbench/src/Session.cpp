//===- perfbench/src/Session.cpp - The session workload ------------------===//
//
// Part of egglog-cpp's benchmark. A warm start followed by a stream of
// what-if queries: load a snapshot of a grown math e-graph, then for each
// query (push), define a generated term, (run 2), (extract ...), (pop).
// It uses the Extract layer the opposite way from eqsat-math (many small
// refreshes interleaved with writes), and covers Snapshot load, contexts
// and the per-command Frontend path.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "MathTerms.h"

#include "core/Extract.h"

#include <cstdio>

using namespace egglog;

namespace pb {
namespace {

/// Sizing (see README.md): the snapshot is the Fig. 7 seeds grown for 14
/// BackOff iterations at a 128000 match limit (106150 tuples; the graph
/// is the same for every seed), and each query's (run 2) re-matches every
/// rule over all of it. The seed makes the query terms.
constexpr unsigned SnapshotIterations = 14;
constexpr uint64_t SnapshotMatchLimit = 128000;
constexpr unsigned Queries = 25;
constexpr unsigned QueryDepth = 4;

class Session : public Workload {
public:
  bool prepare(uint32_t Seed, const std::string &WorkDir) override {
    std::mt19937 Rng(mixSeed(Seed, 0));
    std::string Roots;
    for (size_t I = 0; I < fig7Seeds().size(); ++I)
      Roots += "(set (root " + std::to_string(I) + ") " + fig7Seeds()[I] +
               ")\n";
    for (unsigned I = 0; I < Queries; ++I)
      QueryTexts.push_back("(define q " + randomMathTerm(Rng, QueryDepth) +
                           ")");

    // The snapshot is built untimed with the same library code.
    SnapshotPath = WorkDir + "/session-" + std::to_string(Seed) + ".snap";
    Frontend F;
    F.runOptions().UseBackoff = true;
    F.runOptions().BackoffMatchLimit = SnapshotMatchLimit;
    Rep Scratch;
    if (!execText(F, mathProgram(), nullptr, Scratch) ||
        !execText(F, Roots, nullptr, Scratch) ||
        !execText(F,
                  "(run " + std::to_string(SnapshotIterations) + ")",
                  nullptr, Scratch)) {
      std::fprintf(stderr, "session: snapshot build failed: %s\n",
                   F.error().c_str());
      return false;
    }
    SnapshotTuples = F.graph().liveTupleCount();
    Clock::time_point SaveStart = Clock::now();
    if (!execText(F, "(save \"" + SnapshotPath + "\")", nullptr, Scratch)) {
      std::fprintf(stderr, "session: %s\n", F.error().c_str());
      return false;
    }
    SaveSeconds = secondsSince(SaveStart);
    LoadForm = parseSExprs("(load \"" + SnapshotPath + "\")").Forms[0];
    if (std::FILE *Snap = std::fopen(SnapshotPath.c_str(), "rb")) {
      std::fseek(Snap, 0, SEEK_END);
      SnapshotMb = std::ftell(Snap) / (1024.0 * 1024.0);
      std::fclose(Snap);
    }
    return true;
  }

  Rep run(Tracer *T, unsigned Threads) override {
    Rep R;
    R.add("snapshot.save_s", SaveSeconds);
    R.add("snapshot.mb", SnapshotMb);
    Clock::time_point Start = Clock::now();
    Frontend F;
    F.engine().setThreads(Threads);
    EGraph &G = F.graph();
    {
      Span S(T, "setup");
      if (!execText(F, mathProgram(), T, R) ||
          !execForm(F, LoadForm, R, T, "snapshot.load"))
        return R;
    }
    R.SetupS = secondsSince(Start);
    Clock::time_point HashStart = Clock::now();
    uint64_t Loaded = G.liveContentHash();
    // Seconds spent in checks, excluded from total_s.
    double Unchecked = secondsSince(HashStart);
    size_t Tuples = G.liveTupleCount();
    if (Tuples != SnapshotTuples)
      R.error("snapshot reloaded with a different tuple count");
    R.add("graph.live_tuples", static_cast<double>(Tuples));
    R.add("graph.approx_mb", G.approxBytes() / (1024.0 * 1024.0));

    F.runOptions().UseBackoff = true;
    F.runOptions().TimeoutSeconds = 120;
    uint64_t TextDigest = 0xCBF29CE484222325ull;
    for (const std::string &Query : QueryTexts) {
      Span QuerySpan(T, "query");
      if (!execForm(F, PushForm, R, T, "context.push"))
        return R;
      ParseResult Define;
      {
        Span Parse(T, "frontend.parse");
        Define = parseSExprs(Query);
      }
      if (!execForm(F, Define.Forms[0], R, T, "frontend.exec"))
        return R;

      size_t TuplesBefore = G.liveTupleCount();
      uint64_t UnionsBefore = G.unionFind().unionCount();
      IndexCache::Stats IndexBefore = G.indexStats();
      Clock::time_point SolveStart = Clock::now();
      if (!execForm(F, RunForm, R, T, "engine.run"))
        return R;
      R.SolveS += secondsSince(SolveStart);
      addRunReport(R, F.lastRun(), TuplesBefore, UnionsBefore, G);
      addIndexDelta(R, IndexBefore, G.indexStats());

      ExtractCounters XBefore = extractCounters(G);
      Clock::time_point AnswerStart = Clock::now();
      {
        Span Refresh(T, "extract.refresh");
        G.extractIndex().refresh(G);
      }
      F.clearOutputs();
      if (!execForm(F, ExtractForm, R, T, "extract.render"))
        return R;
      R.AnswerS += secondsSince(AnswerStart);
      ExtractCounters XAfter = extractCounters(G);
      addExtractDelta(R, XBefore, XAfter);
      if (XAfter.Rows > XBefore.Rows)
        R.add("_extract.refreshed_tuples",
              static_cast<double>(G.liveTupleCount()));

      Clock::time_point CheckStart = Clock::now();
      const std::string Text = F.outputs().empty() ? "" : F.outputs().back();
      Value Want, Got;
      if (!F.evalGround("q", Want) || !F.evalGround(Text, Got) ||
          G.canonicalize(Want) != G.canonicalize(Got))
        R.error("query extract is not in the query's class: " + Text);
      for (char C : Text)
        TextDigest = (TextDigest ^ static_cast<unsigned char>(C)) *
                     0x100000001B3ull;
      Unchecked += secondsSince(CheckStart);

      if (!execForm(F, PopForm, R, T, "context.pop"))
        return R;
    }
    R.TotalS = secondsSince(Start) - Unchecked;
    if (G.liveContentHash() != Loaded)
      R.error("content hash after the queries differs from the loaded one");
    R.Outputs["loaded_hash"] = hex64(Loaded);
    R.Outputs["live_tuples"] = std::to_string(Tuples);
    R.Outputs["extract_digest"] = hex64(TextDigest);
    return R;
  }

private:
  std::string SnapshotPath;
  size_t SnapshotTuples = 0;
  double SaveSeconds = 0, SnapshotMb = 0;
  std::vector<std::string> QueryTexts;
  SExpr LoadForm, PushForm = parseSExprs("(push)").Forms[0],
                  PopForm = parseSExprs("(pop)").Forms[0],
                  RunForm = parseSExprs("(run 2)").Forms[0],
                  ExtractForm = parseSExprs("(extract q)").Forms[0];
};

} // namespace

std::unique_ptr<Workload> makeSession() {
  return std::make_unique<Session>();
}

} // namespace pb
