//===- datalog/Evaluator.h - Semi-naïve Datalog evaluation -----*- C++ -*-===//
//
// Part of egglog-cpp. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Rule representation and semi-naïve bottom-up evaluation for the Datalog
/// substrate. Rules are written in classic Datalog syntax:
///
///   path(x, z) :- path(x, y), edge(y, z).
///
/// Joins over explicit relations use lazily built column indexes; joins
/// over eqrel atoms enumerate union-find classes — including the quadratic
/// "join modulo equivalence" pattern the paper's §6.1 shows to be the
/// bottleneck of Datalog encodings of Steensgaard analysis.
///
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_DATALOG_EVALUATOR_H
#define EGGLOG_DATALOG_EVALUATOR_H

#include "datalog/Database.h"

#include <optional>
#include <string>
#include <vector>

namespace egglog {
namespace datalog {

/// A term in an atom: a rule variable or a constant.
struct Term {
  bool IsVar = false;
  uint32_t Var = 0;
  Val Const = 0;
};

/// One atom: relation name applied to terms.
struct Atom {
  std::string Rel;
  std::vector<Term> Terms;
};

/// head :- body. An empty body makes the rule a fact.
struct DatalogRule {
  Atom Head;
  std::vector<Atom> Body;
  uint32_t NumVars = 0;
};

/// Evaluation knobs and result statistics.
struct EvalOptions {
  bool SemiNaive = true;
  double TimeoutSeconds = 0;
  size_t MaxIterations = 0; ///< 0 = until fixpoint.
};

struct EvalStats {
  size_t Iterations = 0;
  double Seconds = 0;
  bool TimedOut = false;
};

/// Bottom-up evaluator over a Database.
class Evaluator {
public:
  explicit Evaluator(Database &DB) : DB(DB) {}

  /// Parses and adds a rule in textual Datalog syntax; all relations
  /// referenced must already be declared. Returns false (with error())
  /// on malformed input, unknown relations, arity mismatches, or unbound
  /// head variables.
  bool addRule(const std::string &Text);

  /// Adds an already-built rule.
  bool addRule(DatalogRule Rule);

  const std::string &error() const { return ErrorMsg; }
  size_t numRules() const { return Rules.size(); }

  /// Runs to fixpoint (or until limits).
  EvalStats run(const EvalOptions &Options = EvalOptions());

private:
  Database &DB;
  std::vector<DatalogRule> Rules;
  std::string ErrorMsg;

  /// Cooperative cancellation: checked inside joins every few thousand
  /// steps so a single explosive rule cannot overrun the timeout.
  double DeadlineSeconds = 0;
  const void *DeadlineClock = nullptr;
  uint64_t StepCount = 0;
  bool Cancelled = false;

  bool checkDeadline();

  /// Per-(relation,mask) lazily built column index.
  struct ColIndex {
    std::unordered_map<uint64_t, std::vector<uint32_t>> Buckets;
    size_t Built = 0;
  };
  std::unordered_map<std::string, std::unordered_map<uint32_t, ColIndex>>
      Indexes;

  void extendIndex(const std::string &Rel, uint32_t Mask, ColIndex &Index);

  /// Executes one rule variant. \p DeltaAtom selects which body atom reads
  /// the delta (SIZE_MAX = all atoms read everything).
  void runRuleVariant(const DatalogRule &Rule, size_t DeltaAtom);

  void joinFrom(const DatalogRule &Rule, size_t AtomIndex, size_t DeltaAtom,
                std::vector<std::optional<Val>> &Env);

  void emitHead(const DatalogRule &Rule,
                const std::vector<std::optional<Val>> &Env);
};

} // namespace datalog
} // namespace egglog

#endif // EGGLOG_DATALOG_EVALUATOR_H
