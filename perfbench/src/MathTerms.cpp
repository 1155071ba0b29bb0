//===- perfbench/src/MathTerms.cpp - Fig. 7 program and term generator ---===//
//
// Part of egglog-cpp's benchmark. See MathTerms.h for an overview.
//
//===----------------------------------------------------------------------===//

#include "MathTerms.h"

using namespace egglog;

namespace pb {

std::string mathProgram() {
  return R"(
    (datatype Math
      (Num i64)
      (Sym String)
      (Add Math Math)
      (Sub Math Math)
      (Mul Math Math)
      (Pow Math Math))
    (function root (i64) Math :cost 1000000)
    (rewrite (Add a b) (Add b a))
    (rewrite (Mul a b) (Mul b a))
    (rewrite (Add (Add a b) c) (Add a (Add b c)))
    (rewrite (Mul (Mul a b) c) (Mul a (Mul b c)))
    (rewrite (Sub a b) (Add a (Mul (Num -1) b)))
    (rewrite (Add a (Num 0)) a)
    (rewrite (Mul a (Num 0)) (Num 0))
    (rewrite (Mul a (Num 1)) a)
    (rewrite (Sub a a) (Num 0))
    (rewrite (Mul a (Add b c)) (Add (Mul a b) (Mul a c)))
    (rewrite (Add (Mul a b) (Mul a c)) (Mul a (Add b c)))
    (rewrite (Mul (Pow a b) (Pow a c)) (Pow a (Add b c)))
  )";
}

const std::vector<std::string> &fig7Seeds() {
  static const std::vector<std::string> Seeds = {
      R"((Add (Sym "x") (Add (Sym "x") (Add (Sym "x") (Sym "x")))))",
      R"((Mul (Add (Sym "x") (Sym "y")) (Add (Sym "y") (Sym "x"))))",
      R"((Sub (Add (Sym "x") (Sym "y")) (Add (Sym "x") (Sym "y"))))",
      R"((Mul (Mul (Sym "x") (Sym "y")) (Sym "z")))",
      R"((Add (Mul (Sym "x") (Add (Sym "y") (Num 1))) )"
      R"((Mul (Add (Sym "y") (Num 1)) (Sym "x"))))",
      R"((Sub (Mul (Add (Sym "a") (Sym "b")) (Sym "c")) )"
      R"((Mul (Sym "c") (Add (Sym "a") (Sym "b")))))",
      R"((Mul (Pow (Sym "x") (Num 2)) (Pow (Sym "x") (Num 3))))",
      R"((Add (Mul (Sym "a") (Num 0)) (Mul (Sym "b") (Num 1))))",
  };
  return Seeds;
}

std::string randomMathTerm(std::mt19937 &Rng, unsigned Depth) {
  static const char *Vars[] = {"x", "y", "z", "a", "b", "c"};
  static const int Consts[] = {-1, 0, 1, 2};
  static const char *Ops[] = {"Add", "Add", "Mul", "Mul", "Sub", "Pow"};
  std::uniform_int_distribution<unsigned> Pick(0, 99);
  if (Depth == 0 || Pick(Rng) < 25) {
    if (Pick(Rng) < 70)
      return std::string("(Sym \"") + Vars[Pick(Rng) % 6] + "\")";
    return "(Num " + std::to_string(Consts[Pick(Rng) % 4]) + ")";
  }
  const char *Op = Ops[Pick(Rng) % 6];
  std::string Lhs = randomMathTerm(Rng, Depth - 1);
  std::string Rhs = randomMathTerm(Rng, Depth - 1);
  return std::string("(") + Op + " " + Lhs + " " + Rhs + ")";
}

int64_t treeCost(const SExpr &Term) {
  if (!Term.isList())
    return 1;
  int64_t Cost = 1;
  for (size_t I = 1; I < Term.size(); ++I)
    Cost += treeCost(Term[I]);
  return Cost;
}

} // namespace pb
