//===- tests/oracle/ProgramGen.h - Random well-typed egglog programs -*- C++ -*-===//
//
// Part of egglog-cpp. A seeded generator of well-typed egglog command lists
// for the reference-oracle differential (OracleTest.cpp). A program declares
// a fixed schema — a datatype, i64 relations, `:merge (min old new)`
// functions over i64, two named rulesets — then interleaves rules drawn from
// a template library (Datalog joins, repeated variables, guarded and
// failing arithmetic, rewrites, lattice analyses, analysis-driven unions)
// with facts, `define`, `union`, `delete`, `push`/`pop`, `(run n)` and
// `(run rs n)`.
//
// Restrictions, each keeping naive and semi-naïve evaluation equal:
//   * `delete` targets only functions no generated rule writes: naive
//     evaluation re-derives a deleted fact, semi-naïve does not.
//   * Rule actions read only the match's variables and constructors, never
//     a base-sort function lookup, which would fail or succeed depending on
//     facts outside the rule body.
//   * No BackOff (a generated program never turns it on).
//   * The only base sort is i64. String and Rational values are interned,
//     so their bits follow interning order, which apply order changes.
//
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_TESTS_ORACLE_PROGRAMGEN_H
#define EGGLOG_TESTS_ORACLE_PROGRAMGEN_H

#include <random>
#include <set>
#include <string>
#include <vector>

namespace egglog::oracle {

/// One generated top-level command.
struct GenCommand {
  std::string Text;
  /// (run ...) commands also carry their ruleset name ("" = default) and
  /// iteration count, so a reference runner need not parse them.
  bool IsRun = false;
  std::string Ruleset;
  unsigned Iterations = 0;
};

/// Builds one program per seed; the same seed always yields the same
/// program.
class ProgramGen {
public:
  explicit ProgramGen(uint32_t Seed) : Rng(Seed) {}

  std::vector<GenCommand> generate() {
    emit("(datatype E (Lit i64) (Add E E) (Mul E E) (Neg E))");
    emit("(relation edge (i64 i64))");
    emit("(relation path (i64 i64))");
    emit("(relation node (i64))");
    emit("(relation self (i64))");
    emit("(relation big (E))");
    emit("(function dist (i64 i64) i64 :merge (min old new))");
    emit("(function cost (i64) i64 :merge (min old new))");
    emit("(function val (E) i64 :merge (min old new))");
    emit("(ruleset rs0)");
    emit("(ruleset rs1)");

    // Rules up front (with a few more declared later, some inside push
    // contexts), so deletable functions are known before any delete.
    std::vector<std::string> Rules;
    for (unsigned I = 0, N = 6 + pick(7); I < N; ++I)
      Rules.push_back(rule());
    std::vector<std::string> Late;
    for (unsigned I = 0, N = pick(4); I < N; ++I)
      Late.push_back(rule());
    for (const char *Func : {"edge", "node", "dist", "cost"})
      if (!Written.count(Func))
        Deletable.push_back(Func);
    for (const std::string &R : Rules)
      emit(R);

    // A base database, so the first runs have something to match.
    for (unsigned I = 0, N = 6 + pick(8); I < N; ++I)
      emit("(edge " + num(10) + " " + num(10) + ")");
    for (unsigned I = 0, N = 2 + pick(3); I < N; ++I)
      emit("(node " + num(10) + ")");
    for (unsigned I = 0, N = 2 + pick(4); I < N; ++I)
      define();

    for (unsigned Step = 0, Steps = 30 + pick(20); Step < Steps; ++Step) {
      unsigned Op = pick(20);
      if (Op < 5)
        fact();
      else if (Op < 8)
        define();
      else if (Op < 9)
        unite();
      else if (Op < 10)
        deleteFact();
      else if (Op < 12)
        pushOrPop();
      else if (Op < 13 && !Late.empty()) {
        emit(Late.back());
        Late.pop_back();
      } else if (Op < 17)
        run();
      else
        fact();
    }
    run();
    return std::move(Commands);
  }

private:
  std::mt19937 Rng;
  std::vector<GenCommand> Commands;
  /// Functions some generated rule writes (never deleted).
  std::set<std::string> Written;
  std::vector<std::string> Deletable;
  /// Defined names per open context (index 0 = outside any push).
  std::vector<std::vector<std::string>> Defines = {{}};
  unsigned NextDefine = 0;

  unsigned pick(unsigned Bound) {
    return std::uniform_int_distribution<unsigned>(0, Bound - 1)(Rng);
  }
  std::string num(unsigned Bound) { return std::to_string(pick(Bound)); }

  void emit(std::string Text) {
    GenCommand C;
    C.Text = std::move(Text);
    Commands.push_back(std::move(C));
  }

  /// A random rule from the template library, in a random ruleset.
  std::string rule() {
    std::string C = std::to_string(2 + pick(6));
    std::string Text;
    auto Writes = [&](std::initializer_list<const char *> Funcs) {
      for (const char *F : Funcs)
        Written.insert(F);
    };
    switch (pick(27)) {
    // Datalog over i64 nodes.
    case 0:
      Text = "(rule ((edge x y)) ((path x y))";
      Writes({"path"});
      break;
    case 1:
      Text = "(rule ((path x y) (edge y z)) ((path x z))";
      Writes({"path"});
      break;
    case 2:
      Text = "(rule ((path x y) (path y z)) ((path x z))";
      Writes({"path"});
      break;
    case 3:
      Text = "(rule ((path x x)) ((self x))";
      Writes({"self"});
      break;
    case 4:
      // A repeated variable in an atom that joins with another atom.
      Text = "(rule ((node x) (path x x)) ((self x))";
      Writes({"self"});
      break;
    case 5:
      Text = "(rule ((edge x y) (edge y z) (edge z x)) ((node x))";
      Writes({"node"});
      break;
    case 6:
      // Guarded arithmetic: a bounded chain.
      Text = "(rule ((node x) (< x " + C + ")) ((node (+ x 1)))";
      Writes({"node"});
      break;
    case 7:
      Text = "(rule ((edge x y)) ((set (dist x y) (+ x y)))";
      Writes({"dist"});
      break;
    case 8:
      Text = "(rule ((= d (dist x y)) (edge y z) (< d " + C +
             ")) ((set (dist x z) (+ d 1)))";
      Writes({"dist"});
      break;
    case 9:
      Text = "(rule ((edge x y) (!= x y)) ((set (cost x) (- y x)))";
      Writes({"cost"});
      break;
    case 10:
      // Action-side failure: division by zero abandons the match.
      Text = "(rule ((= c (cost x)) (node x)) ((set (cost x) (/ " + C +
             " (+ c 1))))";
      Writes({"cost"});
      break;
    case 11:
      // Query-side primitive binding a variable.
      Text = "(rule ((edge x y) (= z (% x 3))) ((node z))";
      Writes({"node"});
      break;
    case 12:
      Text = "(rule ((path x y) (path y x) (!= x y)) ((node y))";
      Writes({"node"});
      break;
    case 13:
      Text = "(rule ((node x) (node y) (< x y) (< y " + C +
             ")) ((edge x y))";
      Writes({"edge"});
      break;
    case 14:
      Text = "(rule ((self x) (edge x y)) ((node y) (path y y))";
      Writes({"node", "path"});
      break;
    // Equality saturation over E.
    case 15:
      Text = "(rewrite (Add a b) (Add b a)";
      break;
    case 16:
      Text = "(rewrite (Mul a b) (Mul b a)";
      break;
    // Constant folding is guarded: a class that contains its own sum
    // (after a union) would otherwise mint ever larger literals.
    case 17:
      Text = "(rewrite (Add (Lit a) (Lit b)) (Lit (+ a b)) "
             ":when ((< (+ a b) 16) (> (+ a b) -16))";
      break;
    case 18:
      Text = "(rewrite (Mul (Lit a) (Lit b)) (Lit (* a b)) "
             ":when ((< (* a b) 16) (> (* a b) -16))";
      break;
    case 19:
      Text = "(rewrite (Neg (Neg a)) a";
      break;
    case 20:
      Text = "(rewrite (Neg (Lit a)) (Lit (- 0 a))";
      break;
    case 21:
      Text = "(rewrite (Add a (Lit 0)) a";
      break;
    // Lattice analyses over E and analysis-driven unions.
    case 22:
      Text = "(rule ((= e (Lit n))) ((set (val e) n))";
      Writes({"val"});
      break;
    case 23:
      Text = "(rule ((= e (Add a b)) (= x (val a)) (= y (val b))) "
             "((set (val e) (+ x y)))";
      Writes({"val"});
      break;
    case 24:
      Text = "(rule ((= e (Add a a)) (= x (val a))) ((set (val e) (* 2 x)))";
      Writes({"val"});
      break;
    case 25:
      Text = "(rule ((= x (val a)) (= x (val b)) (!= a b)) ((union a b))";
      break;
    case 26:
      // Fresh terms and unions minted by a rule.
      Text = "(rule ((node x) (< x " + C +
             ")) ((union (Lit x) (Add (Lit x) (Lit 0))) (big (Neg (Lit x))))";
      Writes({"big"});
      break;
    }
    switch (pick(4)) {
    case 0:
      return Text + " :ruleset rs0)";
    case 1:
      return Text + " :ruleset rs1)";
    default:
      return Text + ")";
    }
  }

  std::string term(unsigned Depth) {
    unsigned Kind = Depth == 0 ? 0 : pick(5);
    switch (Kind) {
    case 0:
    case 1:
      return "(Lit " + num(5) + ")";
    case 2:
      return "(Add " + term(Depth - 1) + " " + term(Depth - 1) + ")";
    case 3:
      return "(Mul " + term(Depth - 1) + " " + term(Depth - 1) + ")";
    default:
      return "(Neg " + term(Depth - 1) + ")";
    }
  }

  std::vector<std::string> liveDefines() const {
    std::vector<std::string> All;
    for (const std::vector<std::string> &Level : Defines)
      All.insert(All.end(), Level.begin(), Level.end());
    return All;
  }

  void fact() {
    switch (pick(5)) {
    case 0:
    case 1:
      emit("(edge " + num(10) + " " + num(10) + ")");
      break;
    case 2:
      emit("(node " + num(10) + ")");
      break;
    case 3:
      emit("(set (dist " + num(10) + " " + num(10) + ") " + num(20) + ")");
      break;
    default:
      emit("(set (cost " + num(10) + ") " + num(20) + ")");
      break;
    }
  }

  void define() {
    std::string Name = "d" + std::to_string(NextDefine++);
    emit("(define " + Name + " " + term(1 + pick(3)) + ")");
    Defines.back().push_back(Name);
  }

  void unite() {
    std::vector<std::string> Names = liveDefines();
    // Merging two literals cascades through every term built on them.
    if (Names.size() < 2 || pick(2) == 0)
      return emit("(union (Lit " + num(5) + ") (Lit " + num(5) + "))");
    emit("(union " + Names[pick(Names.size())] + " " +
         Names[pick(Names.size())] + ")");
  }

  void deleteFact() {
    if (Deletable.empty())
      return fact();
    const std::string &Func = Deletable[pick(Deletable.size())];
    if (Func == "edge" || Func == "dist")
      emit("(delete (" + Func + " " + num(10) + " " + num(10) + "))");
    else
      emit("(delete (" + Func + " " + num(10) + "))");
  }

  void pushOrPop() {
    if (Defines.size() > 1 && pick(2) == 0) {
      emit("(pop)");
      Defines.pop_back();
    } else if (Defines.size() < 4) {
      emit("(push)");
      Defines.emplace_back();
    }
  }

  void run() {
    GenCommand C;
    C.IsRun = true;
    C.Iterations = 1 + pick(6);
    if (pick(2) == 0) {
      C.Ruleset = pick(2) ? "rs0" : "rs1";
      C.Text = "(run " + C.Ruleset + " " + std::to_string(C.Iterations) + ")";
    } else {
      C.Text = "(run " + std::to_string(C.Iterations) + ")";
    }
    Commands.push_back(std::move(C));
  }
};

} // namespace egglog::oracle

#endif // EGGLOG_TESTS_ORACLE_PROGRAMGEN_H
