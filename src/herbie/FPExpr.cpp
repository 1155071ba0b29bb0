//===- herbie/FPExpr.cpp - Floating-point expression language ----------------===//
//
// Part of egglog-cpp. See FPExpr.h for an overview.
//
//===----------------------------------------------------------------------===//

#include "herbie/FPExpr.h"

#include "support/NumberFormat.h"
#include "support/Rational.h"
#include "support/SExpr.h"

#include <cassert>
#include <set>

using namespace egglog;
using namespace egglog::herbie;

ExprPtr FPExpr::num(double Value) {
  auto Node = std::make_shared<FPExpr>();
  Node->Op = OpKind::Num;
  Node->Constant = Value;
  return Node;
}

ExprPtr FPExpr::var(const std::string &Name) {
  auto Node = std::make_shared<FPExpr>();
  Node->Op = OpKind::Var;
  Node->Name = Name;
  return Node;
}

ExprPtr FPExpr::make(OpKind Op, std::vector<ExprPtr> Args) {
  assert(Args.size() == arity(Op) && "wrong operator arity");
  auto Node = std::make_shared<FPExpr>();
  Node->Op = Op;
  Node->Args = std::move(Args);
  return Node;
}

unsigned FPExpr::arity(OpKind Op) {
  switch (Op) {
  case OpKind::Num:
  case OpKind::Var:
    return 0;
  case OpKind::Neg:
  case OpKind::Sqrt:
  case OpKind::Cbrt:
  case OpKind::Fabs:
    return 1;
  case OpKind::Add:
  case OpKind::Sub:
  case OpKind::Mul:
  case OpKind::Div:
    return 2;
  case OpKind::Fma:
    return 3;
  }
  return 0;
}

namespace {
void collectVars(const FPExpr &E, std::set<std::string> &Out) {
  if (E.Op == OpKind::Var)
    Out.insert(E.Name);
  for (const ExprPtr &Arg : E.Args)
    collectVars(*Arg, Out);
}
} // namespace

std::vector<std::string> egglog::herbie::freeVariables(const FPExpr &E) {
  std::set<std::string> Vars;
  collectVars(E, Vars);
  return std::vector<std::string>(Vars.begin(), Vars.end());
}

//===----------------------------------------------------------------------===
// Surface syntax
//===----------------------------------------------------------------------===

namespace {

std::optional<OpKind> surfaceOp(const std::string &Name) {
  if (Name == "+")
    return OpKind::Add;
  if (Name == "-")
    return OpKind::Sub;
  if (Name == "*")
    return OpKind::Mul;
  if (Name == "/")
    return OpKind::Div;
  if (Name == "neg")
    return OpKind::Neg;
  if (Name == "sqrt")
    return OpKind::Sqrt;
  if (Name == "cbrt")
    return OpKind::Cbrt;
  if (Name == "fabs")
    return OpKind::Fabs;
  if (Name == "fma")
    return OpKind::Fma;
  return std::nullopt;
}

const char *opSurfaceName(OpKind Op) {
  switch (Op) {
  case OpKind::Add:
    return "+";
  case OpKind::Sub:
    return "-";
  case OpKind::Mul:
    return "*";
  case OpKind::Div:
    return "/";
  case OpKind::Neg:
    return "neg";
  case OpKind::Sqrt:
    return "sqrt";
  case OpKind::Cbrt:
    return "cbrt";
  case OpKind::Fabs:
    return "fabs";
  case OpKind::Fma:
    return "fma";
  case OpKind::Num:
  case OpKind::Var:
    return "";
  }
  return "";
}

const char *opEgglogName(OpKind Op) {
  switch (Op) {
  case OpKind::Add:
    return "MAdd";
  case OpKind::Sub:
    return "MSub";
  case OpKind::Mul:
    return "MMul";
  case OpKind::Div:
    return "MDiv";
  case OpKind::Neg:
    return "MNeg";
  case OpKind::Sqrt:
    return "MSqrt";
  case OpKind::Cbrt:
    return "MCbrt";
  case OpKind::Fabs:
    return "MFabs";
  case OpKind::Fma:
    return "MFma";
  case OpKind::Num:
    return "MNum";
  case OpKind::Var:
    return "MVar";
  }
  return "";
}

std::optional<OpKind> egglogOp(const std::string &Name) {
  static const std::pair<const char *, OpKind> Table[] = {
      {"MAdd", OpKind::Add},   {"MSub", OpKind::Sub},
      {"MMul", OpKind::Mul},   {"MDiv", OpKind::Div},
      {"MNeg", OpKind::Neg},   {"MSqrt", OpKind::Sqrt},
      {"MCbrt", OpKind::Cbrt}, {"MFabs", OpKind::Fabs},
      {"MFma", OpKind::Fma},
  };
  for (const auto &[Text, Op] : Table)
    if (Name == Text)
      return Op;
  return std::nullopt;
}

ExprPtr convertSurface(const SExpr &Node) {
  if (Node.isInteger())
    return FPExpr::num(static_cast<double>(Node.IntValue));
  if (Node.isFloat())
    return FPExpr::num(Node.FloatValue);
  if (Node.isSymbol())
    return FPExpr::var(Node.Text);
  if (!Node.isList() || Node.size() < 2 || !Node[0].isSymbol())
    return nullptr;
  std::optional<OpKind> Op = surfaceOp(Node[0].Text);
  if (!Op || Node.size() - 1 != FPExpr::arity(*Op))
    return nullptr;
  std::vector<ExprPtr> Args;
  for (size_t I = 1; I < Node.size(); ++I) {
    ExprPtr Arg = convertSurface(Node[I]);
    if (!Arg)
      return nullptr;
    Args.push_back(std::move(Arg));
  }
  return FPExpr::make(*Op, std::move(Args));
}

} // namespace

ExprPtr egglog::herbie::parseFPExpr(const std::string &Source) {
  ParseResult Parsed = parseSExprs(Source);
  if (!Parsed.Ok || Parsed.Forms.size() != 1)
    return nullptr;
  return convertSurface(Parsed.Forms[0]);
}

std::string egglog::herbie::toSurface(const FPExpr &E) {
  switch (E.Op) {
  case OpKind::Num:
    return formatF64(E.Constant);
  case OpKind::Var:
    return E.Name;
  default: {
    std::string Result = "(";
    Result += opSurfaceName(E.Op);
    for (const ExprPtr &Arg : E.Args)
      Result += " " + toSurface(*Arg);
    return Result + ")";
  }
  }
}

std::string egglog::herbie::toEgglogTerm(const FPExpr &E) {
  switch (E.Op) {
  case OpKind::Num: {
    Rational R = Rational::fromDouble(E.Constant);
    return "(MNum (rational-big \"" + R.numerator().toString() + "\" \"" +
           R.denominator().toString() + "\"))";
  }
  case OpKind::Var:
    return "(MVar \"" + E.Name + "\")";
  default: {
    std::string Result = "(";
    Result += opEgglogName(E.Op);
    for (const ExprPtr &Arg : E.Args)
      Result += " " + toEgglogTerm(*Arg);
    return Result + ")";
  }
  }
}

namespace {

ExprPtr convertEgglog(const SExpr &Node) {
  if (!Node.isList() || Node.size() < 1 || !Node[0].isSymbol())
    return nullptr;
  const std::string &Head = Node[0].Text;
  if (Head == "MNum" && Node.size() == 2) {
    const SExpr &Payload = Node[1];
    // (rational p q) or (rational-big "p" "q").
    if (Payload.isCall("rational") && Payload.size() == 3 &&
        Payload[1].isInteger() && Payload[2].isInteger()) {
      return FPExpr::num(static_cast<double>(Payload[1].IntValue) /
                         static_cast<double>(Payload[2].IntValue));
    }
    if (Payload.isCall("rational-big") && Payload.size() == 3 &&
        Payload[1].isString() && Payload[2].isString()) {
      bool OkN = false, OkD = false;
      BigInt Num = BigInt::fromString(Payload[1].Text, OkN);
      BigInt Den = BigInt::fromString(Payload[2].Text, OkD);
      if (!OkN || !OkD || Den.isZero())
        return nullptr;
      return FPExpr::num(Rational(Num, Den).toDouble());
    }
    return nullptr;
  }
  if (Head == "MVar" && Node.size() == 2 && Node[1].isString())
    return FPExpr::var(Node[1].Text);
  std::optional<OpKind> Op = egglogOp(Head);
  if (!Op || Node.size() - 1 != FPExpr::arity(*Op))
    return nullptr;
  std::vector<ExprPtr> Args;
  for (size_t I = 1; I < Node.size(); ++I) {
    ExprPtr Arg = convertEgglog(Node[I]);
    if (!Arg)
      return nullptr;
    Args.push_back(std::move(Arg));
  }
  return FPExpr::make(*Op, std::move(Args));
}

} // namespace

ExprPtr egglog::herbie::parseEgglogTerm(const std::string &Source) {
  ParseResult Parsed = parseSExprs(Source);
  if (!Parsed.Ok || Parsed.Forms.size() != 1)
    return nullptr;
  return convertEgglog(Parsed.Forms[0]);
}

size_t egglog::herbie::exprSize(const FPExpr &E) {
  size_t Total = 1;
  for (const ExprPtr &Arg : E.Args)
    Total += exprSize(*Arg);
  return Total;
}
