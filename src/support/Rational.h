//===- support/Rational.h - Exact rational arithmetic ----------*- C++ -*-===//
//
// Part of egglog-cpp. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact rational numbers over BigInt. Backs egglog's `Rational` base sort
/// and the mini-Herbie interval analysis. The paper notes (§6.2) that one
/// Herbie benchmark overflowed egglog's fixed-width rational type; we avoid
/// that failure mode entirely by using arbitrary precision.
///
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_SUPPORT_RATIONAL_H
#define EGGLOG_SUPPORT_RATIONAL_H

#include "support/BigInt.h"

#include <string>

namespace egglog {

/// An exact rational number, extended with the two infinities. Invariants:
/// for finite values the denominator is positive and gcd(|num|, den) == 1,
/// zero is 0/1; the infinities are +/-1 over 0 and are only produced by
/// the factories below (never by the constructors, which still reject a
/// zero denominator). Infinities exist for the interval analyses: a bound
/// whose magnitude blows past the representation cap saturates outward to
/// +/-inf instead of failing, staying sound while staying cheap.
class Rational {
public:
  /// Constructs zero.
  Rational() : Num(0), Den(1) {}

  /// Constructs Numerator/Denominator; asserts Denominator != 0.
  Rational(BigInt Numerator, BigInt Denominator);

  /// Constructs an integer rational.
  Rational(int64_t Value) : Num(Value), Den(1) {}

  /// Constructs the exact value of a finite double. Asserts the input is
  /// finite (doubles are scaled binary rationals, so this is lossless).
  static Rational fromDouble(double Value);

  /// The extended-real infinities (the interval lattice's bottom bounds).
  static Rational posInfinity();
  static Rational negInfinity();
  /// Infinity with the sign of \p Sign (which must be nonzero).
  static Rational infinity(int Sign);

  const BigInt &numerator() const { return Num; }
  const BigInt &denominator() const { return Den; }

  bool isFinite() const { return !Den.isZero(); }

  bool isZero() const { return Num.isZero(); }
  bool isNegative() const { return Num.isNegative(); }
  bool isInteger() const { return Den.isOne(); }
  int sign() const { return Num.sign(); }

  /// Arithmetic follows the extended reals where defined. The
  /// indeterminate forms — inf - inf, 0 * inf, inf / inf — assert;
  /// callers that can meet them (the interval primitives) must test with
  /// the *Defined predicates first and fail their match instead.
  Rational operator-() const;
  Rational operator+(const Rational &Other) const;
  Rational operator-(const Rational &Other) const;
  Rational operator*(const Rational &Other) const;
  /// Asserts Other != 0 and not inf/inf. A finite value over an infinity
  /// is exactly 0 (the outward-rounded interval endpoint).
  Rational operator/(const Rational &Other) const;

  static bool addDefined(const Rational &A, const Rational &B) {
    return A.isFinite() || B.isFinite() || A.isNegative() == B.isNegative();
  }
  static bool subDefined(const Rational &A, const Rational &B) {
    return A.isFinite() || B.isFinite() || A.isNegative() != B.isNegative();
  }
  static bool mulDefined(const Rational &A, const Rational &B) {
    return !(!A.isFinite() && B.isZero()) && !(!B.isFinite() && A.isZero());
  }
  static bool divDefined(const Rational &A, const Rational &B) {
    return !B.isZero() && (A.isFinite() || B.isFinite());
  }

  /// Reciprocal; asserts the value is nonzero (1/inf is exactly 0).
  Rational inverse() const;

  /// Absolute value.
  Rational abs() const;

  /// Smaller / larger of two rationals.
  static Rational min(const Rational &A, const Rational &B);
  static Rational max(const Rational &A, const Rational &B);

  /// A lower bound on the square root, accurate to within 2^-Precision.
  /// Asserts the value is non-negative.
  Rational sqrtLower(unsigned Precision = 48) const;
  /// An upper bound on the square root. Asserts the value is non-negative.
  Rational sqrtUpper(unsigned Precision = 48) const;

  /// A lower bound on the cube root, accurate to within 2^-Precision.
  Rational cbrtLower(unsigned Precision = 48) const;
  /// An upper bound on the cube root.
  Rational cbrtUpper(unsigned Precision = 48) const;

  /// Raises to an integer power (negative exponents invert; asserts nonzero
  /// base for negative exponents).
  Rational pow(int64_t Exponent) const;

  /// Outward rounding to a dyadic rational with at most \p Bits of
  /// precision: roundDown returns the largest such value <= *this,
  /// roundUp the smallest >= *this. Chained exact interval arithmetic
  /// grows numerators/denominators without bound; rounding bounds the cost
  /// while keeping interval endpoints conservative.
  Rational roundDown(unsigned Bits = 64) const;
  Rational roundUp(unsigned Bits = 64) const;

  int compare(const Rational &Other) const;
  bool operator==(const Rational &Other) const {
    return Num == Other.Num && Den == Other.Den;
  }
  bool operator!=(const Rational &Other) const { return !(*this == Other); }
  bool operator<(const Rational &Other) const { return compare(Other) < 0; }
  bool operator<=(const Rational &Other) const { return compare(Other) <= 0; }
  bool operator>(const Rational &Other) const { return compare(Other) > 0; }
  bool operator>=(const Rational &Other) const { return compare(Other) >= 0; }

  /// Nearest double (round-to-nearest via long-division of the parts).
  double toDouble() const;

  /// Renders as "num" or "num/den".
  std::string toString() const;

  size_t hash() const;

private:
  BigInt Num;
  BigInt Den;

  void normalize();
  /// Square root bound helper: returns floor or ceiling of sqrt(*this)
  /// scaled by 2^Precision.
  Rational sqrtBound(unsigned Precision, bool RoundUp) const;
  Rational cbrtBound(unsigned Precision, bool RoundUp) const;
};

} // namespace egglog

#endif // EGGLOG_SUPPORT_RATIONAL_H
