//===- tools/egglog_run.cpp - The egglog command-line interpreter -------------===//
//
// Part of egglog-cpp. Runs egglog programs from files or standard input,
// mirroring the paper's language-first design (§5.2: "Users can write
// egglog programs in a text format, and the tool parses, typechecks,
// compiles, and executes them").
//
// Usage: egglog-run [file.egg ...]        run programs
//        egglog-run                        read one program from stdin
//        egglog-run --no-seminaive ...     disable semi-naive evaluation
//        egglog-run --backoff ...          enable the BackOff scheduler
//        egglog-run --threads N ...        match rules on N threads
//        egglog-run --timeout S ...        per-command wall-clock budget
//        egglog-run --max-memory MB ...    approximate memory ceiling
//        egglog-run --keep-going ...       report errors, keep executing
//        egglog-run --lint ...             static-analysis pre-pass per file
//        egglog-run --Werror ...           lint diagnostics fail the run
//        egglog-run --stats ...            dump per-phase timing at exit
//        egglog-run --extract ...          dump extraction-cache stats at exit
//        egglog-run --snapshot-in F ...    load a database snapshot first
//        egglog-run --snapshot-out F ...   save a snapshot after success
//
// Exit codes: 0 success, 1 user error (parse/type/runtime/io), 2 resource
// limit or cancellation, 3 internal error. Errors go to stderr as
// "file:line:col: kind: message". Failed commands roll back, so with
// --keep-going the remaining program still runs against a consistent
// database (batch linting).
//
//===----------------------------------------------------------------------===//

#include "core/Extract.h"
#include "core/Frontend.h"
#include "support/Errors.h"
#include "support/NumberFormat.h"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace egglog;

namespace {

void reportError(const std::string &Label, const EggError &E,
                 const std::string &Fallback) {
  const char *Kind = errKindName(E.Kind == ErrKind::None ? ErrKind::Runtime
                                                         : E.Kind);
  const std::string &Message = E.Message.empty() ? Fallback : E.Message;
  if (E.Line > 0)
    std::fprintf(stderr, "%s:%u:%u: %s: %s\n", Label.c_str(), E.Line, E.Col,
                 Kind, Message.c_str());
  else
    std::fprintf(stderr, "%s: %s: %s\n", Label.c_str(), Kind,
                 Message.c_str());
}

int runProgram(Frontend &F, const std::string &Source,
               const std::string &Label, bool KeepGoing) {
  size_t OutputsBefore = F.outputs().size();
  int Status = 0;
  if (!KeepGoing) {
    if (!F.execute(Source)) {
      reportError(Label, F.lastError(), F.error());
      Status = std::max(1, errExitCode(F.lastError().Kind));
    }
  } else {
    // Parse once, then execute form by form: each failed command reports
    // its error and rolls back, and execution continues with the next one.
    ParseResult Parsed = parseSExprs(Source);
    if (!Parsed.Ok) {
      EggError E{ErrKind::Parse, Parsed.Error, Parsed.ErrorLine,
                 Parsed.ErrorCol};
      reportError(Label, E, Parsed.Error);
      Status = errExitCode(ErrKind::Parse);
    } else {
      for (const SExpr &Form : Parsed.Forms)
        if (!F.executeForm(Form)) {
          reportError(Label, F.lastError(), F.error());
          Status = std::max(Status,
                            std::max(1, errExitCode(F.lastError().Kind)));
        }
    }
  }
  for (size_t I = OutputsBefore; I < F.outputs().size(); ++I)
    std::printf("%s\n", F.outputs()[I].c_str());
  return Status;
}

/// --stats: per-phase totals over every (run ...) the programs executed,
/// on stderr so program output stays pipeable. The match time includes
/// its serial prepare step, shown in parentheses.
void dumpStats(Frontend &F) {
  const Frontend::PhaseTotals &T = F.phaseTotals();
  std::fprintf(stderr,
               "phase stats: threads %u, iterations %zu, matches %zu\n"
               "  match   %9.6fs (prepare %9.6fs)\n"
               "  apply   %9.6fs\n"
               "  rebuild %9.6fs\n",
               F.engine().threads(), T.Iterations, T.Matches,
               T.SearchSeconds, T.WarmSeconds, T.ApplySeconds,
               T.RebuildSeconds);
}

/// --extract: the extraction cache's maintenance counters as a single-line
/// JSON record on stderr (same channel as --stats), so driver scripts can
/// track warm-hit rates across program runs.
void dumpExtractStats(Frontend &F) {
  const ExtractIndex *Idx = F.graph().extractIndexIfBuilt();
  ExtractIndex::Stats St = Idx ? Idx->stats() : ExtractIndex::Stats{};
  std::fprintf(stderr,
               "{\"bench\": \"extract\", \"refreshes\": %llu, \"warm_hits\": "
               "%llu, \"incrementals\": %llu, \"full_rebuilds\": %llu, "
               "\"rows_considered\": %llu, \"merges_folded\": %llu}\n",
               static_cast<unsigned long long>(St.Refreshes),
               static_cast<unsigned long long>(St.WarmHits),
               static_cast<unsigned long long>(St.Incrementals),
               static_cast<unsigned long long>(St.FullRebuilds),
               static_cast<unsigned long long>(St.RowsConsidered),
               static_cast<unsigned long long>(St.MergesFolded));
}

/// The --lint pre-pass: a mirror Frontend walks each file in analysis mode
/// (declarations and facts execute, run/check/extract are typechecked but
/// skipped) before the real Frontend runs it, and the static lints
/// (src/analysis) report on the accumulated program. Pre-pass execution
/// errors are suppressed — the real pass reports them with proper exit
/// codes, including exit 1 for files that only fail to parse. Diagnostics
/// are deduplicated by rendered line, so a library file included in every
/// pre-pass reports each finding once.
class LintPrePass {
public:
  /// Returns the lint contribution to the exit status: 1 when Werror and
  /// new diagnostics appeared, else 0.
  int runOn(const std::string &Source, const std::string &Label,
            bool Werror) {
    Mirror.setAnalysisMode(true);
    Mirror.setSourceLabel(Label);
    ParseResult Parsed = parseSExprs(Source);
    if (!Parsed.Ok)
      return 0;
    for (const SExpr &Form : Parsed.Forms)
      Mirror.executeForm(Form);
    int Status = 0;
    for (const LintDiagnostic &D : Mirror.lintProgram()) {
      std::string Line =
          (D.Unit.empty() ? Label : D.Unit) + ":" + D.render();
      if (!Seen.insert(Line).second)
        continue;
      std::fprintf(stderr, "%s\n", Line.c_str());
      if (Werror)
        Status = 1;
    }
    return Status;
  }

private:
  Frontend Mirror;
  std::set<std::string> Seen;
};

/// Runs (load "path") / (save "path") through the normal command path, so
/// snapshot I/O gets the same transactional rollback and io-kind error
/// reporting as in-program commands. The form is built directly (not
/// parsed), so paths never need escaping.
int runSnapshotCommand(Frontend &F, const char *Command,
                       const std::string &Path) {
  SExpr Form = SExpr::makeList(
      {SExpr::makeSymbol(Command), SExpr::makeString(Path)});
  if (F.executeForm(Form))
    return 0;
  reportError(Path, F.lastError(), F.error());
  return std::max(1, errExitCode(F.lastError().Kind));
}

} // namespace

int main(int argc, char **argv) {
  Frontend F;
  std::vector<std::string> Files;
  std::string SnapshotIn, SnapshotOut;
  bool Stats = false;
  bool ExtractStats = false;
  bool KeepGoing = false;
  bool LintMode = false;
  bool Werror = false;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--no-seminaive") == 0)
      F.runOptions().SemiNaive = false;
    else if (std::strcmp(argv[I], "--backoff") == 0)
      F.runOptions().UseBackoff = true;
    else if (std::strcmp(argv[I], "--stats") == 0)
      Stats = true;
    else if (std::strcmp(argv[I], "--extract") == 0)
      ExtractStats = true;
    else if (std::strcmp(argv[I], "--keep-going") == 0)
      KeepGoing = true;
    else if (std::strcmp(argv[I], "--lint") == 0)
      LintMode = true;
    else if (std::strcmp(argv[I], "--Werror") == 0)
      Werror = true;
    else if (std::strcmp(argv[I], "--threads") == 0) {
      long long N = 0;
      if (I + 1 >= argc || !parseWhole(argv[++I], N) || N < 1 ||
          N > INT_MAX) {
        std::fprintf(stderr, "--threads expects a positive integer\n");
        return 1;
      }
      F.engine().setThreads(static_cast<unsigned>(N));
    } else if (std::strcmp(argv[I], "--timeout") == 0) {
      double S = 0;
      if (I + 1 >= argc || !parseWhole(argv[++I], S) || !(S >= 0)) {
        std::fprintf(stderr, "--timeout expects a non-negative number of "
                             "seconds\n");
        return 1;
      }
      F.graph().governor().setTimeout(S);
    } else if (std::strcmp(argv[I], "--max-memory") == 0) {
      // Beyond SIZE_MAX >> 20 the byte count would wrap on the shift.
      long long MB = 0;
      if (I + 1 >= argc || !parseWhole(argv[++I], MB) || MB < 0 ||
          static_cast<unsigned long long>(MB) > (SIZE_MAX >> 20)) {
        std::fprintf(stderr, "--max-memory expects a non-negative number of "
                             "megabytes\n");
        return 1;
      }
      F.graph().governor().setMaxBytes(static_cast<size_t>(MB) << 20);
    } else if (std::strcmp(argv[I], "--snapshot-in") == 0) {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "--snapshot-in expects a file path\n");
        return 1;
      }
      SnapshotIn = argv[++I];
    } else if (std::strcmp(argv[I], "--snapshot-out") == 0) {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "--snapshot-out expects a file path\n");
        return 1;
      }
      SnapshotOut = argv[++I];
    } else if (std::strcmp(argv[I], "--help") == 0) {
      std::printf(
          "usage: egglog-run [--no-seminaive] [--backoff] [--threads N]\n"
          "                  [--timeout S] [--max-memory MB] [--keep-going]\n"
          "                  [--lint] [--Werror] [--stats] [--extract]\n"
          "                  [--snapshot-in F] [--snapshot-out F]\n"
          "                  [file.egg ...]\n"
          "--snapshot-in loads a database snapshot before the programs run;\n"
          "--snapshot-out saves one after they all succeed.\n"
          "--lint runs the static-analysis pre-pass over each file before\n"
          "executing it (diagnostics on stderr); --Werror makes lint\n"
          "diagnostics fail the run.\n"
          "exit codes: 0 success, 1 user error, 2 limit/cancelled, "
          "3 internal\n");
      return 0;
    } else {
      Files.push_back(argv[I]);
    }
  }

  int Status = 0;
  if (!SnapshotIn.empty()) {
    Status = runSnapshotCommand(F, "load", SnapshotIn);
    if (Status)
      return Status;
  }
  LintPrePass Lint;
  if (Files.empty()) {
    std::string Source(std::istreambuf_iterator<char>(std::cin.rdbuf()), {});
    if (LintMode)
      Status = std::max(Status, Lint.runOn(Source, "<stdin>", Werror));
    Status = std::max(Status, runProgram(F, Source, "<stdin>", KeepGoing));
  } else {
    for (const std::string &Path : Files) {
      std::ifstream Stream(Path);
      if (!Stream) {
        EggError E{ErrKind::IO, "cannot open file", 0, 0};
        reportError(Path, E, "cannot open file");
        Status = std::max(Status, errExitCode(ErrKind::IO));
        if (!KeepGoing)
          break;
        continue;
      }
      std::stringstream Buffer;
      Buffer << Stream.rdbuf();
      // The lint pre-pass runs once per file regardless of --keep-going;
      // its own errors stay silent (the real pass below reports them, and
      // a file that only fails to parse exits 1 through that path).
      if (LintMode)
        Status = std::max(Status, Lint.runOn(Buffer.str(), Path, Werror));
      int FileStatus = runProgram(F, Buffer.str(), Path, KeepGoing);
      Status = std::max(Status, FileStatus);
      if (Status && !KeepGoing)
        break;
    }
  }
  if (Status == 0 && !SnapshotOut.empty())
    Status = runSnapshotCommand(F, "save", SnapshotOut);
  if (Stats)
    dumpStats(F);
  if (ExtractStats)
    dumpExtractStats(F);
  return Status;
}
