//===- herbie/FPExpr.h - Floating-point expression language ----*- C++ -*-===//
//
// Part of egglog-cpp. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The real-expression language of mini-Herbie (§6.2): the operators
/// Herbie's motivating examples need (+ - * / neg sqrt cbrt fabs fma),
/// numeric constants and named variables. Expressions print as egglog
/// `Math` terms; ErrorModel.h compiles them for evaluation in binary64
/// (the candidate implementation) and double-double (the ground truth).
///
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_HERBIE_FPEXPR_H
#define EGGLOG_HERBIE_FPEXPR_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace egglog {
namespace herbie {

/// Operator kinds of the expression language.
enum class OpKind : uint8_t {
  Num,  ///< Constant (Constant field).
  Var,  ///< Named input (Name field).
  Add,
  Sub,
  Mul,
  Div,
  Neg,
  Sqrt,
  Cbrt,
  Fabs,
  Fma, ///< fma(a, b, c) = a*b + c with one rounding.
};

struct FPExpr;
using ExprPtr = std::shared_ptr<const FPExpr>;

/// An immutable expression tree node.
struct FPExpr {
  OpKind Op;
  double Constant = 0;
  std::string Name;
  std::vector<ExprPtr> Args;

  static ExprPtr num(double Value);
  static ExprPtr var(const std::string &Name);
  static ExprPtr make(OpKind Op, std::vector<ExprPtr> Args);

  /// Number of operator arguments expected for each kind.
  static unsigned arity(OpKind Op);
};

/// Collects the distinct variable names in an expression.
std::vector<std::string> freeVariables(const FPExpr &E);

/// Parses the s-expression surface syntax, e.g.
/// "(- (sqrt (+ x 1)) (sqrt x))". Bare symbols are variables; the operator
/// names are + - * / neg sqrt cbrt fabs fma. Returns nullptr on error.
ExprPtr parseFPExpr(const std::string &Source);

/// Prints in the surface syntax.
std::string toSurface(const FPExpr &E);

/// Prints as an egglog `Math` term, with constants as exact rationals:
/// (Sub (Sqrt (Add (Var "x") (Num (rational 1 1)))) (Sqrt (Var "x"))).
std::string toEgglogTerm(const FPExpr &E);

/// Parses a term printed by egglog extraction back into an expression.
/// Accepts (Num (rational p q)) with arbitrary-precision p/q.
ExprPtr parseEgglogTerm(const std::string &Source);

/// Expression size (operator count), the cost model used for extraction
/// sanity checks.
size_t exprSize(const FPExpr &E);

} // namespace herbie
} // namespace egglog

#endif // EGGLOG_HERBIE_FPEXPR_H
