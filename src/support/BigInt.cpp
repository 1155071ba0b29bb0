//===- support/BigInt.cpp - Arbitrary-precision signed integers ----------===//
//
// Part of egglog-cpp. See BigInt.h for an overview.
//
//===----------------------------------------------------------------------===//

#include "support/BigInt.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <numeric>

using namespace egglog;

namespace {

/// Divides the magnitude \p Work by \p Divisor in place (one pass of
/// 64-by-32 divides); returns the remainder.
uint32_t divideSmall(std::vector<uint32_t> &Work, uint32_t Divisor) {
  uint64_t Remainder = 0;
  for (size_t I = Work.size(); I-- > 0;) {
    uint64_t Current = (Remainder << 32) | Work[I];
    Work[I] = static_cast<uint32_t>(Current / Divisor);
    Remainder = Current % Divisor;
  }
  while (!Work.empty() && Work.back() == 0)
    Work.pop_back();
  return static_cast<uint32_t>(Remainder);
}

/// Knuth's Algorithm D on magnitudes: returns U / V and sets \p Remainder
/// to U % V (both possibly with leading zero limbs). Requires U >= V and at
/// least two limbs in V.
std::vector<uint32_t> divideKnuth(const std::vector<uint32_t> &U,
                                  const std::vector<uint32_t> &V,
                                  std::vector<uint32_t> &Remainder) {
  assert(V.size() >= 2 && U.size() >= V.size() && V.back() != 0);
  const uint64_t Base = static_cast<uint64_t>(1) << 32;
  size_t N = V.size(), M = U.size() - N;
  // D1: normalize so the divisor's top limb has its high bit set; the
  // quotient is unchanged and the remainder comes out shifted by S.
  unsigned S = static_cast<unsigned>(std::countl_zero(V.back()));
  auto ShiftedLimb = [S](const std::vector<uint32_t> &X, size_t I) {
    uint32_t High = I < X.size() ? X[I] : 0;
    uint32_t Low = I > 0 ? X[I - 1] : 0;
    return S == 0 ? High : (High << S) | (Low >> (32 - S));
  };
  std::vector<uint32_t> Vn(N), Un(U.size() + 1);
  for (size_t I = 0; I < N; ++I)
    Vn[I] = ShiftedLimb(V, I);
  for (size_t I = 0; I <= U.size(); ++I)
    Un[I] = ShiftedLimb(U, I);
  std::vector<uint32_t> Quotient(M + 1);
  uint64_t Top = Vn[N - 1], Next = Vn[N - 2];
  for (size_t J = M + 1; J-- > 0;) {
    // D3: estimate the quotient limb from the top two limbs; the
    // correction runs at most twice and leaves QHat exact or one too big.
    uint64_t Head = (static_cast<uint64_t>(Un[J + N]) << 32) | Un[J + N - 1];
    uint64_t QHat = Head / Top, RHat = Head % Top;
    while (QHat >= Base || QHat * Next > ((RHat << 32) | Un[J + N - 2])) {
      --QHat;
      RHat += Top;
      if (RHat >= Base)
        break;
    }
    // D4: multiply and subtract QHat * Vn from the window Un[J..J+N].
    uint64_t Carry = 0, Borrow = 0;
    for (size_t I = 0; I < N; ++I) {
      uint64_t Product = QHat * Vn[I] + Carry;
      Carry = Product >> 32;
      uint64_t Subtrahend = (Product & 0xffffffffu) + Borrow;
      uint32_t Limb = Un[I + J];
      Un[I + J] = static_cast<uint32_t>(Limb - Subtrahend);
      Borrow = Limb < Subtrahend;
    }
    uint64_t Subtrahend = Carry + Borrow;
    uint32_t Limb = Un[J + N];
    Un[J + N] = static_cast<uint32_t>(Limb - Subtrahend);
    // D6: the rare negative case (probability ~2/2^32): QHat was one too
    // big, so add the divisor back; the carry out cancels the borrow.
    if (Limb < Subtrahend) {
      --QHat;
      Carry = 0;
      for (size_t I = 0; I < N; ++I) {
        uint64_t Sum = static_cast<uint64_t>(Un[I + J]) + Vn[I] + Carry;
        Un[I + J] = static_cast<uint32_t>(Sum);
        Carry = Sum >> 32;
      }
      Un[J + N] += static_cast<uint32_t>(Carry);
    }
    Quotient[J] = static_cast<uint32_t>(QHat);
  }
  // D8: the remainder is Un[0..N) shifted back down by S.
  if (S != 0)
    for (size_t I = 0; I < N; ++I)
      Un[I] = (Un[I] >> S) | (Un[I + 1] << (32 - S));
  Un.resize(N);
  Remainder = std::move(Un);
  return Quotient;
}

} // namespace

BigInt::BigInt(int64_t Value) {
  Negative = Value < 0;
  // Avoid UB on INT64_MIN by negating in unsigned space.
  uint64_t Magnitude =
      Negative ? ~static_cast<uint64_t>(Value) + 1 : static_cast<uint64_t>(Value);
  if (Magnitude != 0)
    Limbs.push_back(static_cast<uint32_t>(Magnitude));
  if (Magnitude >> 32)
    Limbs.push_back(static_cast<uint32_t>(Magnitude >> 32));
  normalize();
}

void BigInt::normalize() {
  while (!Limbs.empty() && Limbs.back() == 0)
    Limbs.pop_back();
  if (Limbs.empty())
    Negative = false;
}

BigInt BigInt::fromString(std::string_view Text, bool &Ok) {
  Ok = false;
  BigInt Result;
  size_t Index = 0;
  bool Neg = false;
  if (Index < Text.size() && (Text[Index] == '-' || Text[Index] == '+')) {
    Neg = Text[Index] == '-';
    ++Index;
  }
  if (Index >= Text.size())
    return Result;
  BigInt Ten(10);
  for (; Index < Text.size(); ++Index) {
    char C = Text[Index];
    if (C < '0' || C > '9')
      return BigInt();
    Result = Result * Ten + BigInt(C - '0');
  }
  Result.Negative = Neg && !Result.isZero();
  Ok = true;
  return Result;
}

bool BigInt::fitsInt64() const {
  if (Limbs.size() > 2)
    return false;
  uint64_t Magnitude = 0;
  if (!Limbs.empty())
    Magnitude = Limbs[0];
  if (Limbs.size() == 2)
    Magnitude |= static_cast<uint64_t>(Limbs[1]) << 32;
  if (Negative)
    return Magnitude <= static_cast<uint64_t>(1) << 63;
  return Magnitude <= static_cast<uint64_t>(INT64_MAX);
}

int64_t BigInt::toInt64() const {
  assert(fitsInt64() && "BigInt does not fit in int64_t");
  uint64_t Magnitude = 0;
  if (!Limbs.empty())
    Magnitude = Limbs[0];
  if (Limbs.size() == 2)
    Magnitude |= static_cast<uint64_t>(Limbs[1]) << 32;
  if (Negative)
    return static_cast<int64_t>(~Magnitude + 1);
  return static_cast<int64_t>(Magnitude);
}

double BigInt::toDouble() const {
  double Result = 0;
  for (size_t I = Limbs.size(); I-- > 0;)
    Result = Result * 4294967296.0 + Limbs[I];
  return Negative ? -Result : Result;
}

std::string BigInt::toString() const {
  if (isZero())
    return "0";
  // Repeated division by 10^9 to peel off decimal chunks.
  std::vector<uint32_t> Work = Limbs;
  std::string Digits;
  while (!Work.empty()) {
    uint32_t Remainder = divideSmall(Work, 1000000000u);
    for (int I = 0; I < 9; ++I) {
      Digits.push_back(static_cast<char>('0' + Remainder % 10));
      Remainder /= 10;
    }
  }
  while (Digits.size() > 1 && Digits.back() == '0')
    Digits.pop_back();
  if (Negative)
    Digits.push_back('-');
  std::reverse(Digits.begin(), Digits.end());
  return Digits;
}

int BigInt::compareMagnitude(const std::vector<uint32_t> &A,
                             const std::vector<uint32_t> &B) {
  if (A.size() != B.size())
    return A.size() < B.size() ? -1 : 1;
  for (size_t I = A.size(); I-- > 0;)
    if (A[I] != B[I])
      return A[I] < B[I] ? -1 : 1;
  return 0;
}

int BigInt::compare(const BigInt &Other) const {
  if (Negative != Other.Negative)
    return Negative ? -1 : 1;
  int MagnitudeOrder = compareMagnitude(Limbs, Other.Limbs);
  return Negative ? -MagnitudeOrder : MagnitudeOrder;
}

std::vector<uint32_t> BigInt::addMagnitude(const std::vector<uint32_t> &A,
                                           const std::vector<uint32_t> &B) {
  std::vector<uint32_t> Result;
  Result.reserve(std::max(A.size(), B.size()) + 1);
  uint64_t Carry = 0;
  for (size_t I = 0; I < std::max(A.size(), B.size()); ++I) {
    uint64_t Sum = Carry;
    if (I < A.size())
      Sum += A[I];
    if (I < B.size())
      Sum += B[I];
    Result.push_back(static_cast<uint32_t>(Sum));
    Carry = Sum >> 32;
  }
  if (Carry)
    Result.push_back(static_cast<uint32_t>(Carry));
  return Result;
}

std::vector<uint32_t> BigInt::subMagnitude(const std::vector<uint32_t> &A,
                                           const std::vector<uint32_t> &B) {
  assert(compareMagnitude(A, B) >= 0 && "subtraction would underflow");
  std::vector<uint32_t> Result;
  Result.reserve(A.size());
  int64_t Borrow = 0;
  for (size_t I = 0; I < A.size(); ++I) {
    int64_t Diff = static_cast<int64_t>(A[I]) - Borrow;
    if (I < B.size())
      Diff -= B[I];
    if (Diff < 0) {
      Diff += static_cast<int64_t>(1) << 32;
      Borrow = 1;
    } else {
      Borrow = 0;
    }
    Result.push_back(static_cast<uint32_t>(Diff));
  }
  while (!Result.empty() && Result.back() == 0)
    Result.pop_back();
  return Result;
}

std::vector<uint32_t> BigInt::mulMagnitude(const std::vector<uint32_t> &A,
                                           const std::vector<uint32_t> &B) {
  if (A.empty() || B.empty())
    return {};
  std::vector<uint32_t> Result(A.size() + B.size(), 0);
  for (size_t I = 0; I < A.size(); ++I) {
    uint64_t Carry = 0;
    for (size_t J = 0; J < B.size(); ++J) {
      uint64_t Current = static_cast<uint64_t>(A[I]) * B[J] + Result[I + J] +
                         Carry;
      Result[I + J] = static_cast<uint32_t>(Current);
      Carry = Current >> 32;
    }
    size_t K = I + B.size();
    while (Carry) {
      uint64_t Current = Result[K] + Carry;
      Result[K] = static_cast<uint32_t>(Current);
      Carry = Current >> 32;
      ++K;
    }
  }
  while (!Result.empty() && Result.back() == 0)
    Result.pop_back();
  return Result;
}

BigInt BigInt::operator-() const {
  BigInt Result = *this;
  if (!Result.isZero())
    Result.Negative = !Result.Negative;
  return Result;
}

BigInt BigInt::operator+(const BigInt &Other) const {
  BigInt Result;
  if (Negative == Other.Negative) {
    Result.Limbs = addMagnitude(Limbs, Other.Limbs);
    Result.Negative = Negative;
  } else if (compareMagnitude(Limbs, Other.Limbs) >= 0) {
    Result.Limbs = subMagnitude(Limbs, Other.Limbs);
    Result.Negative = Negative;
  } else {
    Result.Limbs = subMagnitude(Other.Limbs, Limbs);
    Result.Negative = Other.Negative;
  }
  Result.normalize();
  return Result;
}

BigInt BigInt::operator-(const BigInt &Other) const { return *this + (-Other); }

BigInt BigInt::operator*(const BigInt &Other) const {
  BigInt Result;
  Result.Limbs = mulMagnitude(Limbs, Other.Limbs);
  Result.Negative = Negative != Other.Negative && !Result.Limbs.empty();
  return Result;
}

void BigInt::divmod(const BigInt &Dividend, const BigInt &Divisor,
                    BigInt &Quotient, BigInt &Remainder) {
  assert(!Divisor.isZero() && "division by zero");
  // Word-level long division on the magnitudes: Knuth's Algorithm D (TAOCP
  // vol. 2, 4.3.1) over 32-bit limbs with 64-bit intermediates. Each
  // quotient limb costs one 64-by-32 divide plus an O(n) multiply-subtract,
  // so dividing m+n limbs by n limbs is O(m * n) limb operations and a
  // fixed number of allocations (the quotient and shifted working copies of
  // both operands; the dividend's copy becomes the remainder).
  // Quotient and Remainder may alias the operands, so the results are
  // built in locals and moved out at the end.
  const std::vector<uint32_t> &U = Dividend.Limbs, &V = Divisor.Limbs;
  BigInt Quot, Rem;
  if (compareMagnitude(U, V) < 0) {
    Rem = Dividend;
  } else if (V.size() == 1) {
    Quot.Limbs = U;
    if (uint32_t Low = divideSmall(Quot.Limbs, V[0]))
      Rem.Limbs.push_back(Low);
  } else {
    Quot.Limbs = divideKnuth(U, V, Rem.Limbs);
  }
  Quot.normalize();
  Rem.normalize();
  Quot.Negative = Dividend.Negative != Divisor.Negative && !Quot.isZero();
  Rem.Negative = Dividend.Negative && !Rem.isZero();
  Quotient = std::move(Quot);
  Remainder = std::move(Rem);
}

BigInt BigInt::operator/(const BigInt &Other) const {
  BigInt Quotient, Remainder;
  divmod(*this, Other, Quotient, Remainder);
  return Quotient;
}

BigInt BigInt::operator%(const BigInt &Other) const {
  BigInt Quotient, Remainder;
  divmod(*this, Other, Quotient, Remainder);
  return Remainder;
}

BigInt BigInt::gcd(BigInt A, BigInt B) {
  A.Negative = false;
  B.Negative = false;
  // Euclid on BigInts until both operands fit in 64 bits, then natively.
  while (!B.isZero() && (A.Limbs.size() > 2 || B.Limbs.size() > 2)) {
    BigInt Remainder = A % B;
    A = std::move(B);
    B = std::move(Remainder);
  }
  if (B.isZero())
    return A;
  auto Low64 = [](const BigInt &X) {
    uint64_t Value = 0;
    for (size_t I = X.Limbs.size(); I-- > 0;)
      Value = Value << 32 | X.Limbs[I];
    return Value;
  };
  uint64_t X = std::gcd(Low64(A), Low64(B));
  BigInt Result;
  Result.Limbs = {static_cast<uint32_t>(X), static_cast<uint32_t>(X >> 32)};
  Result.normalize();
  return Result;
}

BigInt BigInt::pow(uint64_t Exponent) const {
  BigInt Result(1), Base = *this;
  while (Exponent) {
    if (Exponent & 1)
      Result = Result * Base;
    Base = Base * Base;
    Exponent >>= 1;
  }
  return Result;
}

BigInt BigInt::isqrt() const {
  assert(!Negative && "isqrt of a negative value");
  if (isZero())
    return BigInt();
  // Newton's method starting from a power-of-two overestimate.
  unsigned Bits = bitWidth();
  BigInt X = BigInt(1).shiftLeft((Bits + 1) / 2);
  while (true) {
    BigInt Y = (X + *this / X) / BigInt(2);
    if (Y.compare(X) >= 0)
      break;
    X = std::move(Y);
  }
  return X;
}

BigInt BigInt::shiftLeft(unsigned Bits) const {
  if (isZero() || Bits == 0)
    return *this;
  BigInt Result;
  unsigned LimbShift = Bits / 32, BitShift = Bits % 32;
  Result.Limbs.assign(LimbShift, 0);
  uint32_t Carry = 0;
  for (uint32_t Limb : Limbs) {
    if (BitShift == 0) {
      Result.Limbs.push_back(Limb);
    } else {
      Result.Limbs.push_back((Limb << BitShift) | Carry);
      Carry = Limb >> (32 - BitShift);
    }
  }
  if (Carry)
    Result.Limbs.push_back(Carry);
  Result.Negative = Negative;
  Result.normalize();
  return Result;
}

unsigned BigInt::bitWidth() const {
  if (Limbs.empty())
    return 0;
  unsigned TopBits = 32;
  uint32_t Top = Limbs.back();
  while (TopBits > 0 && !(Top & (1u << (TopBits - 1))))
    --TopBits;
  return static_cast<unsigned>((Limbs.size() - 1) * 32) + TopBits;
}

size_t BigInt::hash() const {
  size_t Result = Negative ? 0x9e3779b97f4a7c15ull : 0;
  for (uint32_t Limb : Limbs)
    Result = Result * 1099511628211ull + Limb;
  return Result;
}
