//===- support/Rational.cpp - Exact rational arithmetic ------------------===//
//
// Part of egglog-cpp. See Rational.h for an overview.
//
//===----------------------------------------------------------------------===//

#include "support/Rational.h"

#include <cassert>
#include <cmath>

using namespace egglog;

Rational::Rational(BigInt Numerator, BigInt Denominator)
    : Num(std::move(Numerator)), Den(std::move(Denominator)) {
  assert(!Den.isZero() && "rational with zero denominator");
  normalize();
}

void Rational::normalize() {
  if (Den.isNegative()) {
    Num = -Num;
    Den = -Den;
  }
  if (Num.isZero()) {
    Den = BigInt(1);
    return;
  }
  if (Den.isOne())
    return;
  BigInt Divisor = BigInt::gcd(Num, Den);
  if (!Divisor.isOne()) {
    Num = Num / Divisor;
    Den = Den / Divisor;
  }
}

Rational Rational::fromDouble(double Value) {
  assert(std::isfinite(Value) && "rational from non-finite double");
  if (Value == 0.0)
    return Rational();
  int Exponent = 0;
  double Mantissa = std::frexp(Value, &Exponent);
  // Mantissa in [0.5, 1); scale out all 53 bits.
  int64_t Scaled = static_cast<int64_t>(std::ldexp(Mantissa, 53));
  Exponent -= 53;
  BigInt Num(Scaled), Den(1);
  if (Exponent >= 0)
    Num = Num.shiftLeft(static_cast<unsigned>(Exponent));
  else
    Den = Den.shiftLeft(static_cast<unsigned>(-Exponent));
  return Rational(std::move(Num), std::move(Den));
}

Rational Rational::posInfinity() { return infinity(1); }
Rational Rational::negInfinity() { return infinity(-1); }

Rational Rational::infinity(int Sign) {
  assert(Sign != 0 && "infinity needs a sign");
  // Bypasses the checked constructor: +/-1 over 0 is the one intentional
  // violation of the denominator invariant.
  Rational Result;
  Result.Num = BigInt(Sign > 0 ? 1 : -1);
  Result.Den = BigInt(0);
  return Result;
}

Rational Rational::operator-() const {
  Rational Result = *this;
  Result.Num = -Result.Num;
  return Result;
}

Rational Rational::operator+(const Rational &Other) const {
  if (!isFinite() || !Other.isFinite()) {
    assert(addDefined(*this, Other) && "inf + -inf is indeterminate");
    return isFinite() ? Other : *this;
  }
  return Rational(Num * Other.Den + Other.Num * Den, Den * Other.Den);
}

Rational Rational::operator-(const Rational &Other) const {
  if (!isFinite() || !Other.isFinite()) {
    assert(subDefined(*this, Other) && "inf - inf is indeterminate");
    return isFinite() ? -Other : *this;
  }
  return Rational(Num * Other.Den - Other.Num * Den, Den * Other.Den);
}

Rational Rational::operator*(const Rational &Other) const {
  if (!isFinite() || !Other.isFinite()) {
    assert(mulDefined(*this, Other) && "0 * inf is indeterminate");
    return infinity(sign() * Other.sign());
  }
  return Rational(Num * Other.Num, Den * Other.Den);
}

Rational Rational::operator/(const Rational &Other) const {
  assert(!Other.isZero() && "rational division by zero");
  if (!Other.isFinite()) {
    assert(isFinite() && "inf / inf is indeterminate");
    return Rational();
  }
  if (!isFinite())
    return infinity(sign() * Other.sign());
  return Rational(Num * Other.Den, Den * Other.Num);
}

Rational Rational::inverse() const {
  assert(!isZero() && "inverse of zero");
  if (!isFinite())
    return Rational();
  return Rational(Den, Num);
}

Rational Rational::abs() const { return isNegative() ? -*this : *this; }

Rational Rational::min(const Rational &A, const Rational &B) {
  return A.compare(B) <= 0 ? A : B;
}

Rational Rational::max(const Rational &A, const Rational &B) {
  return A.compare(B) >= 0 ? A : B;
}

int Rational::compare(const Rational &Other) const {
  // Two infinities compare by sign; a single infinity falls out of the
  // cross-multiplication below (the finite side collapses to zero).
  if (!isFinite() && !Other.isFinite())
    return sign() < Other.sign() ? -1 : (sign() > Other.sign() ? 1 : 0);
  return (Num * Other.Den).compare(Other.Num * Den);
}

Rational Rational::sqrtBound(unsigned Precision, bool RoundUp) const {
  assert(!isNegative() && "sqrt of a negative rational");
  if (!isFinite())
    return *this; // sqrt(+inf) = +inf, both bounds
  // sqrt(n/d) ~= isqrt(n * d * 4^p) / (d * 2^p). The floor of that integer
  // square root gives a lower bound; adding one gives an upper bound.
  BigInt Scaled = (Num * Den).shiftLeft(2 * Precision);
  BigInt Root = Scaled.isqrt();
  if (RoundUp && Root * Root != Scaled)
    Root = Root + BigInt(1);
  return Rational(std::move(Root), Den.shiftLeft(Precision));
}

Rational Rational::sqrtLower(unsigned Precision) const {
  return sqrtBound(Precision, /*RoundUp=*/false);
}

Rational Rational::sqrtUpper(unsigned Precision) const {
  return sqrtBound(Precision, /*RoundUp=*/true);
}

/// Integer cube root: greatest S with S^3 <= V (V >= 0).
static BigInt icbrt(const BigInt &V) {
  if (V.isZero())
    return BigInt();
  // Binary search over the bit width.
  unsigned Bits = (V.bitWidth() + 2) / 3 + 1;
  BigInt Low(0), High = BigInt(1).shiftLeft(Bits);
  while (Low < High) {
    BigInt Mid = (Low + High + BigInt(1)) / BigInt(2);
    if (Mid * Mid * Mid <= V)
      Low = Mid;
    else
      High = Mid - BigInt(1);
  }
  return Low;
}

Rational Rational::cbrtBound(unsigned Precision, bool RoundUp) const {
  // cbrt(n/d) = cbrt(n * d^2) / d, scaled by 8^p for precision. Handles
  // negative inputs by symmetry (cbrt is odd).
  if (!isFinite())
    return *this; // cbrt(+/-inf) = +/-inf, both bounds
  if (isNegative()) {
    Rational Positive = -*this;
    return -Positive.cbrtBound(Precision, !RoundUp);
  }
  BigInt Scaled = (Num * Den * Den).shiftLeft(3 * Precision);
  BigInt Root = icbrt(Scaled);
  if (RoundUp && Root * Root * Root != Scaled)
    Root = Root + BigInt(1);
  return Rational(std::move(Root), Den.shiftLeft(Precision));
}

Rational Rational::cbrtLower(unsigned Precision) const {
  return cbrtBound(Precision, /*RoundUp=*/false);
}

Rational Rational::cbrtUpper(unsigned Precision) const {
  return cbrtBound(Precision, /*RoundUp=*/true);
}

Rational Rational::pow(int64_t Exponent) const {
  assert(isFinite() && "pow of an infinity");
  if (Exponent < 0)
    return inverse().pow(-Exponent);
  return Rational(Num.pow(static_cast<uint64_t>(Exponent)),
                  Den.pow(static_cast<uint64_t>(Exponent)));
}

namespace {

/// Shared implementation: round to a dyadic with ~Bits significant bits,
/// downward (toward -inf) when Down, upward otherwise.
Rational roundDyadic(const Rational &V, unsigned Bits, bool Down) {
  const BigInt &Num = V.numerator();
  const BigInt &Den = V.denominator();
  if (Num.bitWidth() <= Bits && Den.bitWidth() <= Bits)
    return V;
  // Scale so the quotient keeps ~Bits significant bits:
  // p = floor_or_ceil(num * 2^k / den) with k chosen from the bit widths.
  int Shift = static_cast<int>(Bits) + static_cast<int>(Den.bitWidth()) -
              static_cast<int>(Num.bitWidth());
  BigInt ScaledNum =
      Shift >= 0 ? Num.shiftLeft(static_cast<unsigned>(Shift)) : Num;
  BigInt ScaledDen =
      Shift >= 0 ? Den : Den.shiftLeft(static_cast<unsigned>(-Shift));
  BigInt Quotient, Remainder;
  BigInt::divmod(ScaledNum, ScaledDen, Quotient, Remainder);
  // divmod truncates toward zero; fix the direction.
  if (!Remainder.isZero()) {
    bool Negative = ScaledNum.isNegative();
    if (Down && Negative)
      Quotient = Quotient - BigInt(1);
    if (!Down && !Negative)
      Quotient = Quotient + BigInt(1);
  }
  BigInt Power =
      Shift >= 0 ? BigInt(1).shiftLeft(static_cast<unsigned>(Shift))
                 : BigInt(1);
  BigInt NumOut =
      Shift >= 0 ? Quotient : Quotient.shiftLeft(static_cast<unsigned>(-Shift));
  return Rational(std::move(NumOut), std::move(Power));
}

} // namespace

Rational Rational::roundDown(unsigned Bits) const {
  if (!isFinite())
    return *this;
  return roundDyadic(*this, Bits, /*Down=*/true);
}

Rational Rational::roundUp(unsigned Bits) const {
  if (!isFinite())
    return *this;
  return roundDyadic(*this, Bits, /*Down=*/false);
}

double Rational::toDouble() const {
  if (!isFinite())
    return isNegative() ? -HUGE_VAL : HUGE_VAL;
  // Scale so the quotient has ~64 significant bits, then divide natively.
  if (isZero())
    return 0.0;
  int ShiftBits = static_cast<int>(Den.bitWidth()) + 64 -
                  static_cast<int>(Num.bitWidth());
  BigInt ScaledNum = Num;
  int Exp = 0;
  if (ShiftBits > 0) {
    ScaledNum = Num.shiftLeft(static_cast<unsigned>(ShiftBits));
    Exp = -ShiftBits;
  }
  BigInt Quotient = ScaledNum / Den;
  return std::ldexp(Quotient.toDouble(), Exp);
}

std::string Rational::toString() const {
  if (!isFinite())
    return isNegative() ? "-inf" : "inf";
  if (Den.isOne())
    return Num.toString();
  return Num.toString() + "/" + Den.toString();
}

size_t Rational::hash() const {
  return Num.hash() * 0x9e3779b97f4a7c15ull + Den.hash();
}
