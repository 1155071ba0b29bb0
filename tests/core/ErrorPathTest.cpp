//===- tests/core/ErrorPathTest.cpp - Command error-path coverage ----------===//
//
// Part of egglog-cpp. Every command's error paths: each usage string in
// Frontend.cpp is triggered at least once (a census test reads the source
// and fails when a new usage string appears without a case here), error
// kinds and locations are structured (lastError()), and a failed command
// rolls back atomically — no partial declarations, no stray outputs.
//
//===----------------------------------------------------------------------===//

#include "core/Frontend.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

using namespace egglog;

namespace {

struct StateFingerprint {
  uint64_t ContentHash;
  size_t LiveTuples;
  uint64_t Unions;
  size_t Functions;
  size_t Sorts;
  size_t Rules;
  size_t Rulesets;

  bool operator==(const StateFingerprint &) const = default;
};

StateFingerprint fingerprint(Frontend &F) {
  return StateFingerprint{F.graph().liveContentHash(),
                          F.graph().liveTupleCount(),
                          F.graph().unionFind().unionCount(),
                          F.graph().numFunctions(),
                          F.graph().sorts().size(),
                          F.engine().numRules(),
                          F.engine().numRulesets()};
}

/// One error-path case: optional setup (must succeed), a failing command,
/// and the substring its error message must contain.
struct ErrorCase {
  const char *Setup;
  const char *Command;
  const char *ExpectedSubstring;
};

void expectError(const ErrorCase &Case, ErrKind ExpectedKind = ErrKind::None) {
  Frontend F;
  if (Case.Setup && *Case.Setup)
    ASSERT_TRUE(F.execute(Case.Setup)) << Case.Setup << ": " << F.error();
  StateFingerprint Before = fingerprint(F);
  size_t OutputsBefore = F.outputs().size();
  EXPECT_FALSE(F.execute(Case.Command)) << Case.Command;
  EXPECT_NE(F.error().find(Case.ExpectedSubstring), std::string::npos)
      << Case.Command << " produced: " << F.error();
  EXPECT_TRUE(F.lastError()) << Case.Command;
  if (ExpectedKind != ErrKind::None)
    EXPECT_EQ(F.lastError().Kind, ExpectedKind) << Case.Command;
  // The failed command must leave no trace.
  EXPECT_EQ(fingerprint(F), Before) << Case.Command;
  EXPECT_EQ(F.outputs().size(), OutputsBefore) << Case.Command;
}

/// Usage strings from Frontend.cpp mapped to a program that triggers each.
const std::map<std::string, ErrorCase> &usageCases() {
  static const std::map<std::string, ErrorCase> Cases = {
      {"usage: (sort Name) or (sort Name (Set Elem))",
       {"", "(sort)", "usage: (sort"}},
      {"usage: (datatype Name ctors...)", {"", "(datatype)", "usage:"}},
      {"usage: (function Name (ArgSorts...) OutSort ...)",
       {"", "(function f)", "usage: (function"}},
      {"usage: (relation Name (ArgSorts...))",
       {"", "(relation r)", "usage: (relation"}},
      {"usage: (rule (facts...) (actions...))", {"", "(rule)", "usage: (rule"}},
      {"usage: (rewrite lhs rhs [:when (conds...)])",
       {"", "(rewrite x)", "usage: (rewrite"}},
      {"usage: (define name expr)", {"", "(define x)", "usage: (define"}},
      {"usage: (ruleset name)", {"", "(ruleset)", "usage: (ruleset"}},
      {"usage: (run [ruleset] [n] [:until (facts...)])",
       {"", "(run -1)", "usage: (run ["}},
      {"usage: (repeat n schedules...)",
       {"", "(run-schedule (repeat))", "usage: (repeat"}},
      {"usage: (run-schedule schedules...)",
       {"", "(run-schedule)", "usage: (run-schedule"}},
      {"usage: (set-option :option value)",
       {"", "(set-option)", "usage: (set-option"}},
      {"usage: (push) or (push n)", {"", "(push 0)", "usage: (push"}},
      {"usage: (pop) or (pop n)", {"", "(pop 0)", "usage: (pop"}},
      {"usage: (check fact...)", {"", "(check)", "usage: (check"}},
      {"usage: (extract expr [n])", {"", "(extract)", "usage: (extract"}},
      {"usage: (print-size function)",
       {"", "(print-size)", "usage: (print-size"}},
      {"usage: (set (f args...) value)", {"", "(set)", "usage: (set ("}},
      {"usage: (union a b)", {"", "(union)", "usage: (union"}},
      {"usage: (let name expr)",
       {"(sort S)", "(rule ((= x 1)) ((let y)))", "usage: (let"}},
      {"usage: (delete (f args...))", {"", "(delete)", "usage: (delete"}},
      {"usage: (save <file>) with a string path",
       {"", "(save)", "usage: (save"}},
      {"usage: (load <file>) with a string path",
       {"", "(load unquoted)", "usage: (load"}},
      {"usage: (check-program)",
       {"", "(check-program 1)", "usage: (check-program)"}},
  };
  return Cases;
}

} // namespace

// Census: every `usage:` string in the frontend source has a covering case
// above. Adding a new command with a usage string without adding an
// error-path test here fails this test.
TEST(ErrorPathTest, EveryUsageStringHasACoveringCase) {
  std::ifstream Stream(EGGLOG_SOURCE_DIR "/src/core/Frontend.cpp");
  ASSERT_TRUE(Stream.is_open());
  std::stringstream Buffer;
  Buffer << Stream.rdbuf();
  std::string Source = Buffer.str();

  std::set<std::string> Found;
  for (size_t Pos = Source.find("usage: "); Pos != std::string::npos;
       Pos = Source.find("usage: ", Pos + 1)) {
    size_t End = Source.find('"', Pos);
    ASSERT_NE(End, std::string::npos);
    Found.insert(Source.substr(Pos, End - Pos));
  }
  EXPECT_GE(Found.size(), 20u);
  for (const std::string &Usage : Found)
    EXPECT_TRUE(usageCases().count(Usage))
        << "no error-path case covers: " << Usage;
}

// Census over the command-line tools: every flag a tool's argv loop
// matches must appear in its --help usage text. Adding a flag without
// documenting it fails this test.
TEST(ErrorPathTest, EveryToolFlagIsDocumentedInItsUsageText) {
  const char *Tools[] = {EGGLOG_SOURCE_DIR "/tools/egglog_run.cpp",
                         EGGLOG_SOURCE_DIR "/tools/egglog_lint.cpp"};
  for (const char *Path : Tools) {
    SCOPED_TRACE(Path);
    std::ifstream Stream(Path);
    ASSERT_TRUE(Stream.is_open());
    std::stringstream Buffer;
    Buffer << Stream.rdbuf();
    std::string Source = Buffer.str();

    // Flags are matched as std::strcmp(argv[I], "--flag") == 0.
    std::set<std::string> Flags;
    const std::string Needle = "argv[I], \"";
    for (size_t Pos = Source.find(Needle); Pos != std::string::npos;
         Pos = Source.find(Needle, Pos + 1)) {
      size_t Start = Pos + Needle.size();
      size_t End = Source.find('"', Start);
      ASSERT_NE(End, std::string::npos);
      Flags.insert(Source.substr(Start, End - Start));
    }
    ASSERT_GE(Flags.size(), 2u);

    size_t UsageStart = Source.find("\"usage: egglog-");
    ASSERT_NE(UsageStart, std::string::npos);
    std::string UsageText = Source.substr(UsageStart);
    for (const std::string &Flag : Flags) {
      if (Flag == "--help")
        continue; // --help prints the text; listing itself is optional
      EXPECT_NE(UsageText.find(Flag), std::string::npos)
          << "flag " << Flag << " missing from the usage text";
    }
  }
}

TEST(ErrorPathTest, EveryUsageCaseTriggersItsMessage) {
  for (const auto &[Usage, Case] : usageCases()) {
    SCOPED_TRACE(Usage);
    expectError(Case);
  }
}

TEST(ErrorPathTest, NamedErrorPaths) {
  const ErrorCase Cases[] = {
      {"", "(relation r (Unknown))", "unknown sort 'Unknown'"},
      {"(sort S)", "(sort S)", "sort 'S' already declared"},
      {"(relation r (i64))", "(relation r (i64))",
       "function 'r' already declared"},
      {"(relation r (i64))", "(datatype T (r i64))",
       "function 'r' already declared"},
      {"", "(run foo)", "unknown ruleset 'foo'"},
      {"", "(set-option :wat 1)", "unknown option ':wat'"},
      {"", "(datatype T (C :cost -1))", ":cost must be non-negative"},
      {"", "(extract x)", "unbound variable 'x'"},
      {"", "(print-size f)", "unknown function 'f'"},
      {"(datatype M (N i64))", "(rule ((N x y)) ((N 1)))",
       "function 'N' expects 1 arguments"},
      {"(datatype M (N i64))", "(rewrite (f x) x)",
       "unknown function or primitive 'f'"},
      {"", "(set-option :threads 0)", ":threads expects a positive integer"},
      {"", "(set-option :node-limit -1)",
       ":node-limit expects a non-negative integer"},
      {"", "(set-option :timeout -1)", ":timeout expects a non-negative"},
      {"", "(set-option :max-nodes -1)",
       ":max-nodes expects a non-negative integer"},
      {"", "(set-option :max-memory-mb -1)",
       ":max-memory-mb expects a non-negative integer"},
      // 2^44 MiB is 2^64 bytes: the byte count would wrap to 0 (no limit).
      {"", "(set-option :max-memory-mb 17592186044416)",
       ":max-memory-mb expects a non-negative integer"},
      // 2^32 iterations or passes would wrap to 0 in the unsigned counters.
      {"(relation r (i64)) (rule ((r x)) ((r x)))", "(run 4294967296)",
       "usage: (run [ruleset] [n]"},
      {"(relation r (i64)) (rule ((r x)) ((r x)))",
       "(run-schedule (repeat 4294967296 (run 1)))",
       "usage: (repeat n schedules...)"},
  };
  for (const ErrorCase &Case : Cases) {
    SCOPED_TRACE(Case.Command);
    expectError(Case);
  }
}

TEST(ErrorPathTest, RuntimeErrorKinds) {
  expectError({"(datatype M (Num i64)) (define e (Num 1))",
               "(check (= e (Num 99)))", "check failed: "},
              ErrKind::Runtime);
  expectError({"(datatype M (Num i64)) (define e (Num 1))",
               "(check-fail (= e e))", "check-fail succeeded unexpectedly: "},
              ErrKind::Runtime);
  expectError({"", "(pop)", "without a matching"}, ErrKind::Runtime);
  expectError({"(push) (pop)", "(pop)", "without a matching"},
              ErrKind::Runtime);
}

TEST(ErrorPathTest, SnapshotIOErrorKinds) {
  // Path errors from (load)/(save) carry the io kind (exit code 1 through
  // the runner) and roll back like any other failed command.
  expectError({"", "(load \"/nonexistent/dir/f.snap\")", "cannot open"},
              ErrKind::IO);
  expectError({"(sort S)", "(save \"/nonexistent/dir/f.snap\")",
               "cannot create"},
              ErrKind::IO);
  expectError({"(push)", "(load \"/nonexistent/dir/f.snap\")",
               "inside a (push) context"},
              ErrKind::IO);
}

TEST(ErrorPathTest, ParseErrorsAreStructured) {
  Frontend F;
  EXPECT_FALSE(F.execute("(sort S"));
  EXPECT_EQ(F.lastError().Kind, ErrKind::Parse);
  EXPECT_GT(F.lastError().Line, 0u);
  EXPECT_GT(F.lastError().Col, 0u);
  EXPECT_NE(F.error().find("parse error"), std::string::npos);
}

TEST(ErrorPathTest, ErrorsCarrySourceLocation) {
  Frontend F;
  // The failing form starts on line 3, column 1.
  EXPECT_FALSE(F.execute("\n\n(pop)"));
  EXPECT_EQ(F.lastError().Line, 3u);
  EXPECT_EQ(F.lastError().Col, 1u);
  // The legacy rendered format is stable.
  EXPECT_EQ(F.error().rfind("line 3: ", 0), 0u) << F.error();
}

TEST(ErrorPathTest, FailedDatatypeRollsBackPartialDeclarations) {
  Frontend F;
  StateFingerprint Before = fingerprint(F);
  // T and C are declared before D's unknown sort fails the command; the
  // transaction must remove both again.
  EXPECT_FALSE(F.execute("(datatype T (C) (D Unknown))"));
  EXPECT_EQ(fingerprint(F), Before);
  SortId S;
  EXPECT_FALSE(F.graph().sorts().lookup("T", S));
  FunctionId Func;
  EXPECT_FALSE(F.graph().lookupFunctionName("C", Func));
  // The name is reusable: the corrected declaration succeeds.
  EXPECT_TRUE(F.execute("(datatype T (C) (D i64))")) << F.error();
}

TEST(ErrorPathTest, PanicRollsBackAndDatabaseStaysUsable) {
  Frontend F;
  ASSERT_TRUE(F.execute(R"(
    (datatype Math (Num i64) (Add Math Math))
    (rewrite (Add (Num x) (Num y)) (Num (+ x y)))
    (define e (Add (Num 1) (Num 2)))
  )")) << F.error();
  StateFingerprint Before = fingerprint(F);
  EXPECT_FALSE(F.execute("(panic \"boom\")"));
  EXPECT_NE(F.error().find("boom"), std::string::npos) << F.error();
  EXPECT_EQ(fingerprint(F), Before);
  ASSERT_TRUE(F.execute("(run 2) (check (= e (Num 3)))")) << F.error();
}

TEST(ErrorPathTest, OverdrawnPopKeepsContexts) {
  Frontend F;
  ASSERT_TRUE(F.execute("(sort S) (push)")) << F.error();
  EXPECT_FALSE(F.execute("(pop 2)"));
  EXPECT_EQ(F.lastError().Kind, ErrKind::Runtime);
  EXPECT_EQ(F.contextDepth(), 1u);
  EXPECT_TRUE(F.execute("(pop)")) << F.error();
}

TEST(ErrorPathTest, SuccessClearsLastError) {
  Frontend F;
  EXPECT_FALSE(F.execute("(pop)"));
  EXPECT_TRUE(F.lastError());
  EXPECT_TRUE(F.execute("(sort S)")) << F.error();
  EXPECT_FALSE(F.lastError());
  EXPECT_EQ(F.lastError().Kind, ErrKind::None);
}
