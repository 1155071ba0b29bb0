//===- core/Frontend.h - egglog language frontend --------------*- C++ -*-===//
//
// Part of egglog-cpp. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The egglog surface language (§3): parsing, static typechecking, and
/// command execution. The Frontend owns an EGraph and an Engine and
/// interprets programs in the s-expression syntax used throughout the
/// paper, including the desugarings it describes:
///
///   (relation r (A B))      => function r : A B -> Unit
///   (datatype T (C A) ...)  => sort T plus constructor functions
///   (rewrite lhs rhs)       => (rule ((= __root lhs)) ((union __root rhs)))
///   (define x e)            => nullary function x plus (set (x) e)
///
/// Rules are statically typechecked (§5.2: "egglog prevents common errors
/// by statically typechecking rules").
///
/// Phasing commands: (ruleset name) declares a ruleset, rules join one via
/// :ruleset, (run name n) runs one, (run-schedule ...) interprets a
/// saturate/seq/repeat schedule tree, and (push)/(pop) enter and abandon
/// database contexts (a transaction mark held open until the pop).
///
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_CORE_FRONTEND_H
#define EGGLOG_CORE_FRONTEND_H

#include "analysis/Lints.h"
#include "analysis/RuleGraph.h"
#include "core/EGraph.h"
#include "core/Engine.h"
#include "support/Errors.h"
#include "support/SExpr.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace egglog {

/// Interpreter for the egglog language; also the main library facade.
class Frontend {
public:
  Frontend() : Eng(Graph) {}

  /// Parses and executes a whole program. Returns false on the first
  /// error; error() describes it. Check failures are errors.
  bool execute(std::string_view Source);

  /// Executes a single already-parsed top-level form. Every mutating
  /// command runs inside an implicit transaction: on any error the
  /// database, the engine's scheduler state, and the output buffer are
  /// rolled back to their pre-command state, so a failed command leaves no
  /// trace. (push)/(pop) validate up front and run outside that
  /// transaction: a context is a transaction mark left open until its pop.
  bool executeForm(const SExpr &Form);

  const std::string &error() const { return ErrorMsg; }

  /// Structured form of the last error: kind (drives exit codes), message,
  /// and source location. Kind is None after a successful command.
  const EggError &lastError() const { return LastError; }

  /// Output lines produced by extract (and other printing commands).
  const std::vector<std::string> &outputs() const { return Outputs; }
  void clearOutputs() { Outputs.clear(); }

  EGraph &graph() { return Graph; }
  Engine &engine() { return Eng; }

  /// Options used by the (run ...) command; benchmarks flip SemiNaive or
  /// the scheduler here.
  RunOptions &runOptions() { return Options; }

  /// Report of the most recent (run ...) command.
  const RunReport &lastRun() const { return LastRun; }

  /// Cumulative per-phase engine timing over every (run ...) and
  /// (run-schedule ...) this frontend executed; the egglog_run tool's
  /// --stats flag dumps it.
  struct PhaseTotals {
    size_t Iterations = 0;
    size_t Matches = 0;
    /// The match phase's prepare share of SearchSeconds (see
    /// IterationStats::WarmSeconds).
    double WarmSeconds = 0;
    double SearchSeconds = 0;
    double ApplySeconds = 0;
    double RebuildSeconds = 0;
  };
  const PhaseTotals &phaseTotals() const { return Totals; }

  /// Evaluates a ground expression in the current database without
  /// creating terms; returns false if it is not present.
  bool evalGround(std::string_view ExprSource, Value &Out);

  /// Enters \p Count new database contexts over the current state (the
  /// (push n) command): opens one EGraph transaction mark and saves the
  /// Engine state so a later popContext() restores both exactly. O(1) in
  /// \p Count.
  void pushContext(uint64_t Count = 1);

  /// Abandons the \p Count innermost contexts (the (pop n) command);
  /// returns false, changing nothing, if fewer are open.
  bool popContext(uint64_t Count = 1);

  /// Number of open contexts.
  uint64_t contextDepth() const { return Depth; }

  //===--- static analysis (src/analysis) --------------------------------===

  /// Analysis mode: declarations, rules, and top-level actions execute
  /// normally (building the program picture, including base facts), but
  /// run/run-schedule forms are typechecked and recorded without running,
  /// and check/extract/save/load/print-size validate without evaluating.
  /// The lint drivers (egglog_lint, egglog_run --lint) use this to walk a
  /// whole program cheaply before — or instead of — executing it.
  void setAnalysisMode(bool Enabled) { AnalysisMode = Enabled; }

  /// Labels subsequently executed forms with a source unit (file path);
  /// rules and declarations record it so multi-file diagnostics point into
  /// the right file.
  void setSourceLabel(std::string Label) { UnitLabel = std::move(Label); }

  /// Builds the rule/function dependency graph for the rules declared so
  /// far (the foundation for the lints and for future demand/magic-set
  /// transformation work).
  RuleGraph ruleGraph() const;

  /// Runs every lint (analysis/Lints.h) over the declared program plus the
  /// schedule-reachability facts recorded from run forms seen so far.
  std::vector<LintDiagnostic> lintProgram() const;

private:
  EGraph Graph;
  Engine Eng;
  RunOptions Options;
  RunReport LastRun;
  PhaseTotals Totals;
  std::string ErrorMsg;
  EggError LastError;
  std::vector<std::string> Outputs;

  /// The (push)/(pop) context stack: an open database transaction mark and
  /// the engine-side rule state. The n contexts of one (push n) share an
  /// entry, since they all save the same state.
  struct SavedContext {
    EGraph::TxnMark GraphMark;
    Engine::Snapshot EngineState;
    uint64_t Count = 1;
  };
  std::vector<SavedContext> Contexts;
  /// Total open contexts: the sum of the entries' counts.
  uint64_t Depth = 0;

  bool AnalysisMode = false;
  std::string UnitLabel;
  /// Schedule-reachability facts for the lints, recorded by every
  /// run/run-schedule form (in both modes). Monotone per ruleset, so a
  /// rolled-back command can only make the lints more conservative.
  LintContext Lint;
  /// The form executeForm is currently running, for error sites that have
  /// no SExpr of their own (ensureRebuilt); null outside executeForm.
  const SExpr *CurrentForm = nullptr;

  //===--- typechecking context ------------------------------------------===

  /// A name binding inside a rule: either a query/let variable slot or a
  /// constant.
  struct Binding {
    VarOrConst Term;
    SortId Sort = 0;
  };

  /// State accumulated while typechecking one rule (or one top-level
  /// action treated as a rule with an empty query).
  struct RuleCtx {
    Query Q;
    std::unordered_map<std::string, Binding> Names;
    /// Total slots including action lets (starts equal to Q.NumVars).
    uint32_t NumSlots = 0;
    /// Surface name per slot ("" for compiler-introduced slots); becomes
    /// Rule::VarNames so the unused-variable lint can name slots.
    std::vector<std::string> SlotNames;

    uint32_t freshVar(SortId Sort) {
      uint32_t Slot = Q.NumVars++;
      Q.VarSorts.push_back(Sort);
      NumSlots = std::max(NumSlots, Q.NumVars);
      return Slot;
    }

    void nameSlot(uint32_t Slot, const std::string &Name) {
      if (SlotNames.size() <= Slot)
        SlotNames.resize(Slot + 1);
      if (SlotNames[Slot].empty())
        SlotNames[Slot] = Name;
    }
  };

  static constexpr SortId InvalidSort = UINT32_MAX;

  bool fail(const SExpr &At, const std::string &Message);
  bool failKind(const SExpr &At, ErrKind Kind, const std::string &Message);
  /// Propagates the EGraph's error (message and kind) as a frontend error
  /// located at \p At.
  bool failGraph(const SExpr &At);

  /// Dispatches one validated command form to its handler; called inside
  /// the per-command transaction by executeForm.
  bool dispatchCommand(const SExpr &Form);

  //===--- command handlers ----------------------------------------------===

  bool execSort(const SExpr &Form);
  bool execDatatype(const SExpr &Form);
  bool execFunction(const SExpr &Form);
  bool execRelation(const SExpr &Form);
  bool execRule(const SExpr &Form);
  bool execRewrite(const SExpr &Form, bool Bidirectional);
  bool execDefine(const SExpr &Form);
  bool execRun(const SExpr &Form);
  bool execRuleset(const SExpr &Form);
  bool execRunSchedule(const SExpr &Form);
  bool execSetOption(const SExpr &Form);
  bool execPush(const SExpr &Form);
  bool execPop(const SExpr &Form);
  bool execCheck(const SExpr &Form, bool ExpectFailure);
  bool execExtract(const SExpr &Form);
  bool execSave(const SExpr &Form);
  bool execLoad(const SExpr &Form);
  bool execCheckProgram(const SExpr &Form);
  bool execTopLevelAction(const SExpr &Form);

  /// Records that a run form selects \p Ruleset; \p Guarded is false only
  /// for a top-level (run ...) with neither a count nor :until.
  void recordRunTarget(RulesetId Ruleset, bool Guarded);
  /// Records every Run leaf of a schedule tree (always guarded: schedule
  /// leaves are bounded or saturate-wrapped).
  void recordScheduleTargets(const Schedule &S);
  /// Drops lint bookkeeping for rulesets a rollback or (pop) removed.
  void truncateLintState();

  /// Folds LastRun into Totals (called after every engine run).
  void accumulatePhaseTotals();

  bool makeRewriteRule(const SExpr &At, const SExpr &Lhs, const SExpr &Rhs,
                       const SExpr *WhenList, const std::string &Name,
                       RulesetId Ruleset);

  /// Resolves a :ruleset keyword value (or a bare ruleset name).
  bool parseRulesetName(const SExpr &Node, RulesetId &Out);

  /// Parses one schedule node of (run-schedule ...): a bare ruleset name,
  /// (run [ruleset] [n] [:until (facts...)]), (saturate s...), (seq s...),
  /// or (repeat n s...).
  bool parseSchedule(const SExpr &Node, Schedule &Out);

  /// Parses the operands of a (run ...) form into a Run leaf, shared by
  /// the top-level command and the schedule grammar (which differ only in
  /// the default iteration count, applied by the caller when \p HasCount
  /// comes back false).
  bool parseRunLeaf(const SExpr &Form, Schedule &Out, bool &HasCount);

  //===--- typechecking helpers ------------------------------------------===

  bool parseSortName(const SExpr &Node, SortId &Out);

  /// Flattens a query-side pattern, emitting atoms/prims into Ctx.
  bool flattenPattern(RuleCtx &Ctx, const SExpr &Pattern, SortId Expected,
                      Binding &Out);

  /// Flattens one query fact ((= a b), (!= a b), a call pattern, or a
  /// boolean primitive filter).
  bool flattenQueryFact(RuleCtx &Ctx, const SExpr &Fact);

  /// Typechecks an action-side expression into a TypedExpr.
  bool typecheckExpr(RuleCtx &Ctx, const SExpr &Expr, SortId Expected,
                     TypedExpr &Out);

  /// Typechecks one action form.
  bool typecheckAction(RuleCtx &Ctx, const SExpr &Form,
                       std::vector<Action> &Out);

  /// Typechecks a ground check fact.
  bool typecheckCheckFact(const SExpr &Fact, CheckFact &Out);

  /// Resolves (auto-registering generic overloads like != on demand).
  bool resolvePrim(const SExpr &At, const std::string &Name,
                   const std::vector<SortId> &ArgSorts, uint32_t &PrimId);

  /// Makes a literal for an integer token under an expected sort.
  Value literalFor(const SExpr &Node, SortId Expected);

  bool ensureRebuilt();
};

} // namespace egglog

#endif // EGGLOG_CORE_FRONTEND_H
