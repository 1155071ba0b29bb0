//===- tests/support/BigIntTest.cpp - BigInt unit tests --------------------===//
//
// Part of egglog-cpp. Unit and property tests for arbitrary-precision
// integers, checked against native 64-bit arithmetic oracles.
//
//===----------------------------------------------------------------------===//

#include "support/BigInt.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <vector>

using egglog::BigInt;

TEST(BigIntTest, ZeroBasics) {
  BigInt Zero;
  EXPECT_TRUE(Zero.isZero());
  EXPECT_FALSE(Zero.isNegative());
  EXPECT_EQ(Zero.sign(), 0);
  EXPECT_EQ(Zero.toString(), "0");
  EXPECT_EQ(Zero.toInt64(), 0);
  EXPECT_EQ(Zero, BigInt(0));
  EXPECT_EQ((-Zero), Zero);
}

TEST(BigIntTest, SmallValues) {
  EXPECT_EQ(BigInt(42).toString(), "42");
  EXPECT_EQ(BigInt(-42).toString(), "-42");
  EXPECT_EQ(BigInt(42).toInt64(), 42);
  EXPECT_EQ(BigInt(-42).toInt64(), -42);
  EXPECT_TRUE(BigInt(1).isOne());
  EXPECT_FALSE(BigInt(-1).isOne());
}

TEST(BigIntTest, Int64Extremes) {
  BigInt Min(INT64_MIN), Max(INT64_MAX);
  EXPECT_TRUE(Min.fitsInt64());
  EXPECT_TRUE(Max.fitsInt64());
  EXPECT_EQ(Min.toInt64(), INT64_MIN);
  EXPECT_EQ(Max.toInt64(), INT64_MAX);
  EXPECT_EQ(Min.toString(), "-9223372036854775808");
  EXPECT_EQ(Max.toString(), "9223372036854775807");
  // One beyond INT64_MAX no longer fits.
  BigInt Beyond = Max + BigInt(1);
  EXPECT_FALSE(Beyond.fitsInt64());
  // INT64_MIN fits exactly; one below does not.
  EXPECT_FALSE((Min - BigInt(1)).fitsInt64());
}

TEST(BigIntTest, FromString) {
  bool Ok = false;
  EXPECT_EQ(BigInt::fromString("123456789012345678901234567890", Ok).toString(),
            "123456789012345678901234567890");
  EXPECT_TRUE(Ok);
  EXPECT_EQ(BigInt::fromString("-987654321", Ok), BigInt(-987654321));
  EXPECT_TRUE(Ok);
  BigInt Bad = BigInt::fromString("12x3", Ok);
  EXPECT_FALSE(Ok);
  BigInt Empty = BigInt::fromString("", Ok);
  EXPECT_FALSE(Ok);
  BigInt JustSign = BigInt::fromString("-", Ok);
  EXPECT_FALSE(Ok);
  (void)Bad;
  (void)Empty;
  (void)JustSign;
}

TEST(BigIntTest, NegativeZeroNormalizes) {
  bool Ok = false;
  BigInt NegZero = BigInt::fromString("-0", Ok);
  EXPECT_TRUE(Ok);
  EXPECT_FALSE(NegZero.isNegative());
  EXPECT_EQ(NegZero, BigInt(0));
}

TEST(BigIntTest, LargeMultiplication) {
  bool Ok = false;
  BigInt A = BigInt::fromString("123456789012345678901234567890", Ok);
  BigInt B = BigInt::fromString("987654321098765432109876543210", Ok);
  BigInt Product = A * B;
  EXPECT_EQ(Product.toString(),
            "121932631137021795226185032733622923332237463801111263526900");
}

TEST(BigIntTest, DivisionTruncatesTowardZero) {
  EXPECT_EQ(BigInt(7) / BigInt(2), BigInt(3));
  EXPECT_EQ(BigInt(-7) / BigInt(2), BigInt(-3));
  EXPECT_EQ(BigInt(7) / BigInt(-2), BigInt(-3));
  EXPECT_EQ(BigInt(-7) / BigInt(-2), BigInt(3));
  EXPECT_EQ(BigInt(7) % BigInt(2), BigInt(1));
  EXPECT_EQ(BigInt(-7) % BigInt(2), BigInt(-1));
  EXPECT_EQ(BigInt(7) % BigInt(-2), BigInt(1));
  EXPECT_EQ(BigInt(-7) % BigInt(-2), BigInt(-1));
}

TEST(BigIntTest, Gcd) {
  EXPECT_EQ(BigInt::gcd(BigInt(12), BigInt(18)), BigInt(6));
  EXPECT_EQ(BigInt::gcd(BigInt(-12), BigInt(18)), BigInt(6));
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(5)), BigInt(5));
  EXPECT_EQ(BigInt::gcd(BigInt(5), BigInt(0)), BigInt(5));
  EXPECT_EQ(BigInt::gcd(BigInt(17), BigInt(13)), BigInt(1));
}

TEST(BigIntTest, Pow) {
  EXPECT_EQ(BigInt(2).pow(10), BigInt(1024));
  EXPECT_EQ(BigInt(10).pow(0), BigInt(1));
  EXPECT_EQ(BigInt(3).pow(40).toString(), "12157665459056928801");
  EXPECT_EQ(BigInt(-2).pow(3), BigInt(-8));
  EXPECT_EQ(BigInt(-2).pow(4), BigInt(16));
}

TEST(BigIntTest, Isqrt) {
  EXPECT_EQ(BigInt(0).isqrt(), BigInt(0));
  EXPECT_EQ(BigInt(1).isqrt(), BigInt(1));
  EXPECT_EQ(BigInt(15).isqrt(), BigInt(3));
  EXPECT_EQ(BigInt(16).isqrt(), BigInt(4));
  EXPECT_EQ(BigInt(17).isqrt(), BigInt(4));
  BigInt Big = BigInt(123456789).pow(2);
  EXPECT_EQ(Big.isqrt(), BigInt(123456789));
  EXPECT_EQ((Big + BigInt(1)).isqrt(), BigInt(123456789));
  EXPECT_EQ((Big - BigInt(1)).isqrt(), BigInt(123456788));
}

TEST(BigIntTest, ShiftLeft) {
  EXPECT_EQ(BigInt(1).shiftLeft(0), BigInt(1));
  EXPECT_EQ(BigInt(1).shiftLeft(10), BigInt(1024));
  EXPECT_EQ(BigInt(3).shiftLeft(33).toString(), "25769803776");
  EXPECT_EQ(BigInt(-1).shiftLeft(4), BigInt(-16));
  EXPECT_EQ(BigInt(0).shiftLeft(100), BigInt(0));
}

TEST(BigIntTest, BitWidth) {
  EXPECT_EQ(BigInt(0).bitWidth(), 0u);
  EXPECT_EQ(BigInt(1).bitWidth(), 1u);
  EXPECT_EQ(BigInt(2).bitWidth(), 2u);
  EXPECT_EQ(BigInt(255).bitWidth(), 8u);
  EXPECT_EQ(BigInt(256).bitWidth(), 9u);
  EXPECT_EQ(BigInt(1).shiftLeft(100).bitWidth(), 101u);
}

TEST(BigIntTest, ToDouble) {
  EXPECT_DOUBLE_EQ(BigInt(12345).toDouble(), 12345.0);
  EXPECT_DOUBLE_EQ(BigInt(-12345).toDouble(), -12345.0);
  BigInt Big = BigInt(1).shiftLeft(64);
  EXPECT_DOUBLE_EQ(Big.toDouble(), 18446744073709551616.0);
}

/// Property sweep: random 64-bit pairs agree with __int128 oracles for
/// + - * and with int64 oracles for divmod.
class BigIntPropertyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BigIntPropertyTest, ArithmeticMatchesNativeOracle) {
  std::mt19937_64 Rng(GetParam());
  std::uniform_int_distribution<int64_t> Dist(-1000000000LL, 1000000000LL);
  for (int Trial = 0; Trial < 200; ++Trial) {
    int64_t X = Dist(Rng), Y = Dist(Rng);
    BigInt A(X), B(Y);
    EXPECT_EQ((A + B).toInt64(), X + Y);
    EXPECT_EQ((A - B).toInt64(), X - Y);
    __int128 Product = static_cast<__int128>(X) * Y;
    BigInt P = A * B;
    EXPECT_EQ(P.toDouble(), static_cast<double>(Product));
    if (Y != 0) {
      EXPECT_EQ((A / B).toInt64(), X / Y);
      EXPECT_EQ((A % B).toInt64(), X % Y);
    }
    EXPECT_EQ(A.compare(B), X < Y ? -1 : (X == Y ? 0 : 1));
  }
}

TEST_P(BigIntPropertyTest, DivModRoundTrips) {
  std::mt19937_64 Rng(GetParam() * 7919 + 13);
  std::uniform_int_distribution<int64_t> Dist(-1000000000LL, 1000000000LL);
  for (int Trial = 0; Trial < 100; ++Trial) {
    BigInt A = BigInt(Dist(Rng)) * BigInt(Dist(Rng)) + BigInt(Dist(Rng));
    BigInt B = BigInt(Dist(Rng));
    if (B.isZero())
      continue;
    BigInt Q, R;
    BigInt::divmod(A, B, Q, R);
    EXPECT_EQ(Q * B + R, A) << "divmod must round-trip";
    // |R| < |B| and R carries the dividend's sign (or is zero).
    BigInt AbsR = R.isNegative() ? -R : R;
    BigInt AbsB = B.isNegative() ? -B : B;
    EXPECT_LT(AbsR.compare(AbsB), 0);
    if (!R.isZero())
      EXPECT_EQ(R.sign(), A.sign());
  }
}

TEST_P(BigIntPropertyTest, IsqrtBounds) {
  std::mt19937_64 Rng(GetParam() * 104729 + 7);
  std::uniform_int_distribution<int64_t> Dist(0, 1000000000LL);
  for (int Trial = 0; Trial < 100; ++Trial) {
    BigInt V = BigInt(Dist(Rng)) * BigInt(Dist(Rng));
    BigInt S = V.isqrt();
    EXPECT_LE((S * S).compare(V), 0);
    BigInt Next = S + BigInt(1);
    EXPECT_GT((Next * Next).compare(V), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 1234u));

//===----------------------------------------------------------------------===
// Division: word-level long division against the defining identities.
//===----------------------------------------------------------------------===

namespace {

/// Builds a value from little-endian 32-bit limbs with public operations
/// only (no division), so the oracle does not depend on the code under test.
BigInt fromLimbs(const std::vector<uint32_t> &Limbs, bool Negative = false) {
  BigInt Result;
  for (size_t I = Limbs.size(); I-- > 0;)
    Result = Result.shiftLeft(32) + BigInt(static_cast<int64_t>(Limbs[I]));
  return Negative ? -Result : Result;
}

BigInt absOf(const BigInt &X) { return X.isNegative() ? -X : X; }

/// Truncated division is the unique (Q, R) with Q*V + R == U, |R| < |V|,
/// and R zero or carrying U's sign; checks divmod, / and % against that,
/// and that divmod tolerates its outputs aliasing its inputs.
void expectTruncatedDivision(const BigInt &U, const BigInt &V) {
  BigInt Q, R;
  BigInt::divmod(U, V, Q, R);
  EXPECT_EQ(Q * V + R, U) << U.toString() << " / " << V.toString();
  EXPECT_LT(absOf(R).compare(absOf(V)), 0)
      << U.toString() << " / " << V.toString();
  if (!R.isZero()) {
    EXPECT_EQ(R.sign(), U.sign()) << U.toString() << " / " << V.toString();
  }
  EXPECT_EQ(U / V, Q);
  EXPECT_EQ(U % V, R);
  BigInt AliasQ = U, AliasR = V;
  BigInt::divmod(AliasQ, AliasR, AliasQ, AliasR);
  EXPECT_EQ(AliasQ, Q);
  EXPECT_EQ(AliasR, R);
}

/// A random limb biased toward the patterns that stress Algorithm D:
/// all-zero and all-ones limbs, and the top bit alone.
uint32_t randomLimb(std::mt19937_64 &Rng) {
  switch (Rng() % 5) {
  case 0:
    return 0;
  case 1:
    return 0xffffffffu;
  case 2:
    return 0x80000000u;
  default:
    return static_cast<uint32_t>(Rng());
  }
}

BigInt randomBigInt(std::mt19937_64 &Rng, size_t MaxLimbs) {
  std::vector<uint32_t> Limbs(Rng() % (MaxLimbs + 1));
  for (uint32_t &Limb : Limbs)
    Limb = randomLimb(Rng);
  return fromLimbs(Limbs, Rng() & 1);
}

/// Euclid over operator% all the way down: the reference for gcd's
/// native 64-bit tail.
BigInt referenceGcd(BigInt A, BigInt B) {
  A = absOf(A);
  B = absOf(B);
  while (!B.isZero()) {
    BigInt Remainder = A % B;
    A = std::move(B);
    B = std::move(Remainder);
  }
  return A;
}

} // namespace

TEST(BigIntDivisionTest, HackersDelightVectors) {
  // The divmnu test vectors of Hacker's Delight (2nd ed., 9-2): several
  // need the q-hat correction, several the rare add-back step. Limbs are
  // little-endian; the quotient and remainder are exact.
  struct Vector {
    std::vector<uint32_t> U, V, Q, R;
  };
  const Vector Vectors[] = {
      {{0x00000003}, {0x00000002}, {0x00000001}, {0x00000001}},
      {{0x00000003}, {0x00000003}, {0x00000001}, {}},
      {{0x00000003}, {0x00000004}, {}, {0x00000003}},
      {{0x00000000}, {0xffffffff}, {}, {}},
      {{0xffffffff}, {0x00000001}, {0xffffffff}, {}},
      {{0xffffffff}, {0xffffffff}, {0x00000001}, {}},
      {{0xffffffff}, {0x00000003}, {0x55555555}, {}},
      {{0xffffffff, 0xffffffff}, {0x00000001}, {0xffffffff, 0xffffffff}, {}},
      {{0xffffffff, 0xffffffff}, {0xffffffff}, {0x00000001, 0x00000001}, {}},
      {{0xffffffff, 0xfffffffe}, {0xffffffff}, {0xffffffff}, {0xfffffffe}},
      {{0x00005678, 0x00001234}, {0x00009abc}, {0x1e1dba76}, {0x00006bd0}},
      {{0x00000000, 0x00000000}, {0x00000000, 0x00000001}, {}, {}},
      {{0x00000000, 0x00000007},
       {0x00000000, 0x00000003},
       {0x00000002},
       {0x00000000, 0x00000001}},
      {{0x00000005, 0x00000007},
       {0x00000000, 0x00000003},
       {0x00000002},
       {0x00000005, 0x00000001}},
      {{0x00000000, 0x00000006}, {0x00000000, 0x00000002}, {0x00000003}, {}},
      {{0x80000000}, {0x40000001}, {0x00000001}, {0x3fffffff}},
      {{0x00000000, 0x80000000},
       {0x40000001},
       {0xfffffff8, 0x00000001},
       {0x00000008}},
      {{0x00000000, 0x80000000},
       {0x00000001, 0x40000000},
       {0x00000001},
       {0xffffffff, 0x3fffffff}},
      {{0x0000789a, 0x0000bcde}, {0x0000789a, 0x0000bcde}, {0x00000001}, {}},
      {{0x0000789b, 0x0000bcde},
       {0x0000789a, 0x0000bcde},
       {0x00000001},
       {0x00000001}},
      {{0x00007899, 0x0000bcde},
       {0x0000789a, 0x0000bcde},
       {},
       {0x00007899, 0x0000bcde}},
      {{0x0000ffff, 0x0000ffff}, {0x0000ffff, 0x0000ffff}, {0x00000001}, {}},
      {{0x0000ffff, 0x0000ffff},
       {0x00000000, 0x00010000},
       {},
       {0x0000ffff, 0x0000ffff}},
      {{0x000089ab, 0x00004567, 0x00000123},
       {0x00000000, 0x00000001},
       {0x00004567, 0x00000123},
       {0x000089ab}},
      {{0x00000000, 0x0000fffe, 0x00008000},
       {0x0000ffff, 0x00008000},
       {0xffffffff},
       {0x0000ffff, 0x00007fff}},
      {{0x00000003, 0x00000000, 0x00000000, 0x80000000},
       {0x00000001, 0x00000000, 0x20000000},
       {0xffffffff, 0x00000003},
       {0x00000004, 0xfffffffc, 0x1fffffff}},
      {{0x00000003, 0x00000000, 0x00008000, 0x00008000},
       {0x00000001, 0x00000000, 0x00008000},
       {0x00000000, 0x00000001},
       {0x00000003, 0xffffffff, 0x00007fff}},
      {{0x00000000, 0x00000000, 0x00008000, 0x00007fff},
       {0x00000001, 0x00000000, 0x00008000},
       {0xfffe0000},
       {0x00020000, 0xffffffff, 0x00007fff}},
      {{0x00000000, 0x0000fffe, 0x00000000, 0x00008000},
       {0x0000ffff, 0x00000000, 0x00008000},
       {0xffffffff},
       {0x0000ffff, 0xffffffff, 0x00007fff}},
      {{0x00000000, 0xfffffffe, 0x00000000, 0x80000000},
       {0x0000ffff, 0x00000000, 0x80000000},
       {0x00000000, 0x00000001},
       {0x00000000, 0xfffeffff}},
      {{0x00000000, 0xfffffffe, 0x00000000, 0x80000000},
       {0xffffffff, 0x00000000, 0x80000000},
       {0xffffffff},
       {0xffffffff, 0xffffffff, 0x7fffffff}},
  };
  for (const Vector &T : Vectors) {
    BigInt U = fromLimbs(T.U), V = fromLimbs(T.V);
    BigInt Q, R;
    BigInt::divmod(U, V, Q, R);
    EXPECT_EQ(Q, fromLimbs(T.Q)) << U.toString() << " / " << V.toString();
    EXPECT_EQ(R, fromLimbs(T.R)) << U.toString() << " % " << V.toString();
    for (bool NegU : {false, true})
      for (bool NegV : {false, true})
        expectTruncatedDivision(NegU ? -U : U, NegV ? -V : V);
  }
}

TEST(BigIntDivisionTest, LimbBoundaries) {
  // 2^32 and 2^64 boundaries, INT64_MIN, and mixed signs, in decimal:
  // dividend, divisor, quotient, remainder (truncated division).
  struct Case {
    const char *U, *V, *Q, *R;
  };
  const Case Cases[] = {
      {"18446744073709551616", "4294967296", "4294967296", "0"},
      {"18446744073709551615", "4294967295", "4294967297", "0"},
      {"18446744073709551616", "18446744073709551615", "1", "1"},
      {"79228162514264337593543950336", "18446744073709551617",
       "4294967295", "18446744069414584321"},
      {"18446744073709551615", "4294967296", "4294967295", "4294967295"},
      {"4294967296", "4294967295", "1", "1"},
      {"-9223372036854775808", "-1", "9223372036854775808", "0"},
      {"-9223372036854775808", "4294967296", "-2147483648", "0"},
      {"340282366920938463463374607431768211455", "18446744073709551615",
       "18446744073709551617", "0"},
      {"-79228162514264337593543950335", "8589934599",
       "-9223372029338583046", "-1073741781"},
  };
  for (const Case &C : Cases) {
    bool Ok = true;
    BigInt U = BigInt::fromString(C.U, Ok), V = BigInt::fromString(C.V, Ok);
    BigInt Q, R;
    BigInt::divmod(U, V, Q, R);
    EXPECT_EQ(Q.toString(), C.Q) << C.U << " / " << C.V;
    EXPECT_EQ(R.toString(), C.R) << C.U << " % " << C.V;
    expectTruncatedDivision(U, V);
  }
}

TEST(BigIntDivisionTest, EqualAndSmallerDividends) {
  std::mt19937_64 Rng(17);
  for (int Trial = 0; Trial < 200; ++Trial) {
    BigInt V = randomBigInt(Rng, 9);
    if (V.isZero())
      continue;
    // U == V divides to one with no remainder.
    BigInt Q, R;
    BigInt::divmod(V, V, Q, R);
    EXPECT_EQ(Q, BigInt(1));
    EXPECT_TRUE(R.isZero());
    // |U| < |V| gives a zero quotient and U back as the remainder.
    BigInt Smaller = absOf(V) - BigInt(1);
    if (V.isNegative())
      Smaller = -Smaller;
    BigInt::divmod(Smaller, V, Q, R);
    EXPECT_TRUE(Q.isZero());
    EXPECT_EQ(R, Smaller);
    expectTruncatedDivision(Smaller, V);
  }
}

class BigIntDivisionPropertyTest
    : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BigIntDivisionPropertyTest, RandomOperandsUpToNineLimbs) {
  std::mt19937_64 Rng(GetParam());
  for (int Trial = 0; Trial < 10000; ++Trial) {
    BigInt U = randomBigInt(Rng, 9), V = randomBigInt(Rng, 9);
    if (V.isZero())
      continue;
    expectTruncatedDivision(U, V);
  }
}

TEST_P(BigIntDivisionPropertyTest, DoubleWidthDividends) {
  // Dividends twice the divisor's width: every quotient limb goes
  // through the estimate-and-correct step.
  std::mt19937_64 Rng(GetParam() * 31 + 5);
  for (int Trial = 0; Trial < 500; ++Trial) {
    BigInt V = randomBigInt(Rng, 9);
    if (V.isZero())
      continue;
    BigInt U = V * randomBigInt(Rng, 9) + randomBigInt(Rng, 9);
    expectTruncatedDivision(U, V);
  }
}

TEST_P(BigIntDivisionPropertyTest, GcdMatchesEuclid) {
  std::mt19937_64 Rng(GetParam() * 7 + 3);
  for (int Trial = 0; Trial < 300; ++Trial) {
    BigInt Common = randomBigInt(Rng, 3);
    BigInt A = randomBigInt(Rng, 6) * Common, B = randomBigInt(Rng, 6) * Common;
    BigInt G = BigInt::gcd(A, B);
    EXPECT_EQ(G, referenceGcd(A, B)) << A.toString() << ", " << B.toString();
    EXPECT_FALSE(G.isNegative());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntDivisionPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 1234u));
