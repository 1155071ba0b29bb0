//===- core/Primitives.cpp - Builtin primitive registry --------------------===//
//
// Part of egglog-cpp. See Primitives.h for an overview.
//
//===----------------------------------------------------------------------===//

#include "core/Primitives.h"

#include "core/EGraph.h"
#include "support/Rational.h"

#include <cmath>

using namespace egglog;

uint32_t PrimitiveRegistry::add(Primitive Prim) {
  uint32_t Id = static_cast<uint32_t>(Prims.size());
  ByName[Prim.Name].push_back(Id);
  Prims.push_back(std::move(Prim));
  return Id;
}

bool PrimitiveRegistry::resolve(const std::string &Name,
                                const std::vector<SortId> &Args,
                                uint32_t &PrimId) const {
  auto It = ByName.find(Name);
  if (It == ByName.end())
    return false;
  for (uint32_t Id : It->second) {
    const Primitive &P = Prims[Id];
    if (P.ArgSorts == Args) {
      PrimId = Id;
      return true;
    }
  }
  return false;
}

bool PrimitiveRegistry::resolveOrInstantiate(const std::string &Name,
                                             const std::vector<SortId> &Args,
                                             uint32_t &PrimId) {
  if (resolve(Name, Args, PrimId))
    return true;
  if ((Name != "==" && Name != "!=") || Args.size() != 2 ||
      Args[0] != Args[1])
    return false;
  bool Negated = Name == "!=";
  PrimId = add(Primitive{Name, Args, SortTable::BoolSort,
                         [Negated](EGraph &G, const Value *Args, Value &Out) {
                           bool Equal = G.canonicalize(Args[0]) ==
                                        G.canonicalize(Args[1]);
                           Out = G.mkBool(Negated ? !Equal : Equal);
                           return true;
                         }});
  return true;
}

namespace {

using Fn = std::function<bool(EGraph &, const Value *, Value &)>;

/// Shorthand for registering a fixed-signature primitive.
void prim(PrimitiveRegistry &R, const char *Name, std::vector<SortId> Args,
          SortId Out, Fn Apply) {
  R.add(Primitive{Name, std::move(Args), Out, std::move(Apply)});
}

} // namespace

void egglog::registerBuiltinPrimitives(PrimitiveRegistry &R) {
  const SortId I64 = SortTable::I64Sort;
  const SortId F64 = SortTable::F64Sort;
  const SortId Str = SortTable::StringSort;
  const SortId Rat = SortTable::RationalSort;
  const SortId Bool = SortTable::BoolSort;

  //===------------------------------------------------------------------===
  // i64 arithmetic (wrapping two's-complement, division guards)
  //===------------------------------------------------------------------===

  auto I64Bin = [&](const char *Name, auto Op) {
    prim(R, Name, {I64, I64}, I64,
         [Op](EGraph &G, const Value *A, Value &Out) {
           int64_t X = G.valueToI64(A[0]), Y = G.valueToI64(A[1]);
           int64_t Result = 0;
           if (!Op(X, Y, Result))
             return false;
           Out = G.mkI64(Result);
           return true;
         });
  };
  I64Bin("+", [](int64_t X, int64_t Y, int64_t &Result) {
    Result = static_cast<int64_t>(static_cast<uint64_t>(X) +
                                  static_cast<uint64_t>(Y));
    return true;
  });
  I64Bin("-", [](int64_t X, int64_t Y, int64_t &Result) {
    Result = static_cast<int64_t>(static_cast<uint64_t>(X) -
                                  static_cast<uint64_t>(Y));
    return true;
  });
  I64Bin("*", [](int64_t X, int64_t Y, int64_t &Result) {
    Result = static_cast<int64_t>(static_cast<uint64_t>(X) *
                                  static_cast<uint64_t>(Y));
    return true;
  });
  I64Bin("/", [](int64_t X, int64_t Y, int64_t &Result) {
    if (Y == 0 || (X == INT64_MIN && Y == -1))
      return false;
    Result = X / Y;
    return true;
  });
  I64Bin("%", [](int64_t X, int64_t Y, int64_t &Result) {
    if (Y == 0 || (X == INT64_MIN && Y == -1))
      return false;
    Result = X % Y;
    return true;
  });
  I64Bin("min", [](int64_t X, int64_t Y, int64_t &Result) {
    Result = X < Y ? X : Y;
    return true;
  });
  I64Bin("max", [](int64_t X, int64_t Y, int64_t &Result) {
    Result = X > Y ? X : Y;
    return true;
  });
  I64Bin("<<", [](int64_t X, int64_t Y, int64_t &Result) {
    if (Y < 0 || Y > 63)
      return false;
    Result = static_cast<int64_t>(static_cast<uint64_t>(X) << Y);
    return true;
  });
  I64Bin(">>", [](int64_t X, int64_t Y, int64_t &Result) {
    if (Y < 0 || Y > 63)
      return false;
    Result = X >> Y;
    return true;
  });
  prim(R, "abs", {I64}, I64, [](EGraph &G, const Value *A, Value &Out) {
    int64_t X = G.valueToI64(A[0]);
    if (X == INT64_MIN)
      return false;
    Out = G.mkI64(X < 0 ? -X : X);
    return true;
  });
  prim(R, "neg", {I64}, I64, [](EGraph &G, const Value *A, Value &Out) {
    int64_t X = G.valueToI64(A[0]);
    if (X == INT64_MIN)
      return false;
    Out = G.mkI64(-X);
    return true;
  });

  auto I64Cmp = [&](const char *Name, auto Op) {
    prim(R, Name, {I64, I64}, Bool,
         [Op](EGraph &G, const Value *A, Value &Out) {
           Out = G.mkBool(Op(G.valueToI64(A[0]), G.valueToI64(A[1])));
           return true;
         });
  };
  I64Cmp("<", [](int64_t X, int64_t Y) { return X < Y; });
  I64Cmp("<=", [](int64_t X, int64_t Y) { return X <= Y; });
  I64Cmp(">", [](int64_t X, int64_t Y) { return X > Y; });
  I64Cmp(">=", [](int64_t X, int64_t Y) { return X >= Y; });

  //===------------------------------------------------------------------===
  // f64 arithmetic
  //===------------------------------------------------------------------===

  auto F64Bin = [&](const char *Name, auto Op) {
    prim(R, Name, {F64, F64}, F64,
         [Op](EGraph &G, const Value *A, Value &Out) {
           double Result = Op(G.valueToF64(A[0]), G.valueToF64(A[1]));
           if (std::isnan(Result))
             return false;
           Out = G.mkF64(Result);
           return true;
         });
  };
  F64Bin("+", [](double X, double Y) { return X + Y; });
  F64Bin("-", [](double X, double Y) { return X - Y; });
  F64Bin("*", [](double X, double Y) { return X * Y; });
  F64Bin("/", [](double X, double Y) { return X / Y; });
  F64Bin("min", [](double X, double Y) { return X < Y ? X : Y; });
  F64Bin("max", [](double X, double Y) { return X > Y ? X : Y; });
  prim(R, "sqrt", {F64}, F64, [](EGraph &G, const Value *A, Value &Out) {
    double X = G.valueToF64(A[0]);
    if (X < 0)
      return false;
    Out = G.mkF64(std::sqrt(X));
    return true;
  });

  auto F64Cmp = [&](const char *Name, auto Op) {
    prim(R, Name, {F64, F64}, Bool,
         [Op](EGraph &G, const Value *A, Value &Out) {
           Out = G.mkBool(Op(G.valueToF64(A[0]), G.valueToF64(A[1])));
           return true;
         });
  };
  F64Cmp("<", [](double X, double Y) { return X < Y; });
  F64Cmp("<=", [](double X, double Y) { return X <= Y; });
  F64Cmp(">", [](double X, double Y) { return X > Y; });
  F64Cmp(">=", [](double X, double Y) { return X >= Y; });

  //===------------------------------------------------------------------===
  // bool connectives
  //===------------------------------------------------------------------===

  prim(R, "and", {Bool, Bool}, Bool,
       [](EGraph &G, const Value *A, Value &Out) {
         Out = G.mkBool(A[0].Bits && A[1].Bits);
         return true;
       });
  prim(R, "or", {Bool, Bool}, Bool, [](EGraph &G, const Value *A, Value &Out) {
    Out = G.mkBool(A[0].Bits || A[1].Bits);
    return true;
  });
  prim(R, "not", {Bool}, Bool, [](EGraph &G, const Value *A, Value &Out) {
    Out = G.mkBool(!A[0].Bits);
    return true;
  });

  //===------------------------------------------------------------------===
  // strings
  //===------------------------------------------------------------------===

  prim(R, "+", {Str, Str}, Str, [](EGraph &G, const Value *A, Value &Out) {
    Out = G.mkString(G.valueToString(A[0]) + G.valueToString(A[1]));
    return true;
  });

  //===------------------------------------------------------------------===
  // rationals (exact, arbitrary precision)
  //===------------------------------------------------------------------===

  prim(R, "rational", {I64, I64}, Rat,
       [](EGraph &G, const Value *A, Value &Out) {
         int64_t Num = G.valueToI64(A[0]), Den = G.valueToI64(A[1]);
         if (Den == 0)
           return false;
         Out = G.mkRational(Rational(BigInt(Num), BigInt(Den)));
         return true;
       });
  // Arbitrary-precision rational literal from decimal strings; used when a
  // rational's parts exceed i64 (the paper notes a Herbie benchmark
  // overflowed egglog's rational — this constructor cannot).
  prim(R, "rational-big", {Str, Str}, Rat,
       [](EGraph &G, const Value *A, Value &Out) {
         bool OkNum = false, OkDen = false;
         BigInt Num = BigInt::fromString(G.valueToString(A[0]), OkNum);
         BigInt Den = BigInt::fromString(G.valueToString(A[1]), OkDen);
         if (!OkNum || !OkDen || Den.isZero())
           return false;
         Out = G.mkRational(Rational(std::move(Num), std::move(Den)));
         return true;
       });
  auto RatBin = [&](const char *Name, auto Op) {
    prim(R, Name, {Rat, Rat}, Rat,
         [Op](EGraph &G, const Value *A, Value &Out) {
           Rational Result;
           if (!Op(G.valueToRational(A[0]), G.valueToRational(A[1]), Result))
             return false;
           Out = G.mkRational(Result);
           return true;
         });
  };
  // Interval endpoints can carry +/-inf (see the saturating rounding
  // primitives below), so the indeterminate forms fail the match instead
  // of computing: an abandoned analysis fact is always sound.
  RatBin("+", [](const Rational &X, const Rational &Y, Rational &Result) {
    if (!Rational::addDefined(X, Y))
      return false;
    Result = X + Y;
    return true;
  });
  RatBin("-", [](const Rational &X, const Rational &Y, Rational &Result) {
    if (!Rational::subDefined(X, Y))
      return false;
    Result = X - Y;
    return true;
  });
  RatBin("*", [](const Rational &X, const Rational &Y, Rational &Result) {
    if (!Rational::mulDefined(X, Y))
      return false;
    Result = X * Y;
    return true;
  });
  RatBin("/", [](const Rational &X, const Rational &Y, Rational &Result) {
    if (!Rational::divDefined(X, Y))
      return false;
    Result = X / Y;
    return true;
  });
  RatBin("min", [](const Rational &X, const Rational &Y, Rational &Result) {
    Result = Rational::min(X, Y);
    return true;
  });
  RatBin("max", [](const Rational &X, const Rational &Y, Rational &Result) {
    Result = Rational::max(X, Y);
    return true;
  });
  prim(R, "abs", {Rat}, Rat, [](EGraph &G, const Value *A, Value &Out) {
    Out = G.mkRational(G.valueToRational(A[0]).abs());
    return true;
  });
  prim(R, "neg", {Rat}, Rat, [](EGraph &G, const Value *A, Value &Out) {
    Out = G.mkRational(-G.valueToRational(A[0]));
    return true;
  });
  // Guaranteed lower/upper bounds for sqrt and cbrt, used by the interval
  // analysis rules of Fig. 10. Results are rounded outward to dyadics so
  // chained interval arithmetic stays cheap.
  //
  // All interval primitives saturate once a magnitude's representation
  // exceeds 1024 bits: the endpoint is rounded *outward* onto the capped
  // dyadic grid — to the saturation points +/-2^896, +/-2^-896, or 0
  // while a sound capped bound exists (see the margin argument below),
  // and all the way to +/-inf beyond that. Without the cap, saturating the
  // analysis over deep product terms (x^2, x^4, ... from the flip
  // rewrites) chains dyadics whose widths double per term level, and a
  // single iteration can take minutes of BigInt arithmetic; the earlier
  // fail-the-match behavior bounded the cost but silently dropped the
  // analysis fact, leaving guards blind on exactly the deep terms the
  // paper's sound rewrites need.
  auto TooWide = [](const Rational &X) {
    return X.numerator().bitWidth() > 1024 ||
           X.denominator().bitWidth() > 1024;
  };
  // Endpoints are rounded to 64 significant bits FIRST (which already
  // absorbs wide-but-moderate values like (2^2000+1)/2^2000), and only a
  // still-wide result — whose magnitude, not precision, is the problem —
  // saturates. A post-rounding wide value has a 64-bit side and a
  // >1024-bit side, so its magnitude is at least 2^960 (wide numerator) or
  // at most 2^-959 (wide denominator); the grid's saturation points
  // +/-2^896 and +/-2^-896 sit strictly inside those regimes (64+ bits of
  // margin), making Cap <= |huge| and |tiny| <= TinyCap sound, while their
  // own representations stay far under the 1024-bit cap.
  Rational Cap(BigInt(1).shiftLeft(896), BigInt(1));
  Rational TinyCap(BigInt(1), BigInt(1).shiftLeft(896));
  auto SaturateLo = [TooWide, Cap, TinyCap](const Rational &X) {
    if (!X.isFinite() || !TooWide(X))
      return X;
    bool Huge = X.numerator().bitWidth() > X.denominator().bitWidth();
    if (X.isNegative())
      return Huge ? Rational::negInfinity() : -TinyCap;
    return Huge ? Cap : Rational();
  };
  auto SaturateHi = [SaturateLo](const Rational &X) { return -SaturateLo(-X); };
  prim(R, "sqrt-lo", {Rat}, Rat,
       [SaturateLo](EGraph &G, const Value *A, Value &Out) {
         const Rational &X = G.valueToRational(A[0]);
         if (X.isNegative())
           return false;
         Out = G.mkRational(
             SaturateLo(X.roundDown()).sqrtLower(30).roundDown());
         return true;
       });
  prim(R, "sqrt-hi", {Rat}, Rat,
       [SaturateHi](EGraph &G, const Value *A, Value &Out) {
         const Rational &X = G.valueToRational(A[0]);
         if (X.isNegative())
           return false;
         Out = G.mkRational(SaturateHi(X.roundUp()).sqrtUpper(30).roundUp());
         return true;
       });
  prim(R, "cbrt-lo", {Rat}, Rat,
       [SaturateLo](EGraph &G, const Value *A, Value &Out) {
         const Rational &X = G.valueToRational(A[0]);
         Out = G.mkRational(
             SaturateLo(X.roundDown()).cbrtLower(30).roundDown());
         return true;
       });
  prim(R, "cbrt-hi", {Rat}, Rat,
       [SaturateHi](EGraph &G, const Value *A, Value &Out) {
         const Rational &X = G.valueToRational(A[0]);
         Out = G.mkRational(SaturateHi(X.roundUp()).cbrtUpper(30).roundUp());
         return true;
       });
  // Outward rounding for interval endpoints (sound: lo rounds down, hi
  // rounds up), saturating past the representation cap.
  prim(R, "round-lo", {Rat}, Rat,
       [SaturateLo](EGraph &G, const Value *A, Value &Out) {
         Out = G.mkRational(SaturateLo(G.valueToRational(A[0]).roundDown()));
         return true;
       });
  prim(R, "round-hi", {Rat}, Rat,
       [SaturateHi](EGraph &G, const Value *A, Value &Out) {
         Out = G.mkRational(SaturateHi(G.valueToRational(A[0]).roundUp()));
         return true;
       });
  prim(R, "to-f64", {Rat}, F64, [](EGraph &G, const Value *A, Value &Out) {
    Out = G.mkF64(G.valueToRational(A[0]).toDouble());
    return true;
  });
  prim(R, "from-i64", {I64}, Rat, [](EGraph &G, const Value *A, Value &Out) {
    Out = G.mkRational(Rational(G.valueToI64(A[0])));
    return true;
  });

  auto RatCmp = [&](const char *Name, auto Op) {
    prim(R, Name, {Rat, Rat}, Bool,
         [Op](EGraph &G, const Value *A, Value &Out) {
           Out = G.mkBool(
               Op(G.valueToRational(A[0]).compare(G.valueToRational(A[1]))));
           return true;
         });
  };
  RatCmp("<", [](int C) { return C < 0; });
  RatCmp("<=", [](int C) { return C <= 0; });
  RatCmp(">", [](int C) { return C > 0; });
  RatCmp(">=", [](int C) { return C >= 0; });
}
