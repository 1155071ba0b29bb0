//===- tests/herbie/FPExprTest.cpp - Expression language tests -------------===//
//
// Part of egglog-cpp. Tests for the mini-Herbie expression language,
// double-double ground truth, and the error model. The compiled evaluator
// is checked against a recursive tree walk kept here as the reference.
//
//===----------------------------------------------------------------------===//

#include "herbie/ErrorModel.h"
#include "herbie/Herbie.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <random>

using namespace egglog;
using namespace egglog::herbie;

namespace {

constexpr double NaN = std::numeric_limits<double>::quiet_NaN();

/// Named inputs for the reference evaluators; an unbound name reads NaN.
using RefPoint = std::map<std::string, double>;

/// Reference binary64 evaluation: one rounding per node, in tree order.
double refDouble(const FPExpr &E, const RefPoint &In) {
  auto Arg = [&](size_t I) { return refDouble(*E.Args[I], In); };
  switch (E.Op) {
  case OpKind::Num:
    return E.Constant;
  case OpKind::Var: {
    auto It = In.find(E.Name);
    return It == In.end() ? NaN : It->second;
  }
  case OpKind::Add:
    return Arg(0) + Arg(1);
  case OpKind::Sub:
    return Arg(0) - Arg(1);
  case OpKind::Mul:
    return Arg(0) * Arg(1);
  case OpKind::Div:
    return Arg(0) / Arg(1);
  case OpKind::Neg:
    return -Arg(0);
  case OpKind::Sqrt:
    return std::sqrt(Arg(0));
  case OpKind::Cbrt:
    return std::cbrt(Arg(0));
  case OpKind::Fabs:
    return std::fabs(Arg(0));
  case OpKind::Fma:
    return std::fma(Arg(0), Arg(1), Arg(2));
  }
  return NaN;
}

/// Reference double-double evaluation.
DoubleDouble refExact(const FPExpr &E, const RefPoint &In) {
  auto Arg = [&](size_t I) { return refExact(*E.Args[I], In); };
  switch (E.Op) {
  case OpKind::Num:
    return DoubleDouble(E.Constant);
  case OpKind::Var: {
    auto It = In.find(E.Name);
    return DoubleDouble(It == In.end() ? NaN : It->second);
  }
  case OpKind::Add:
    return Arg(0) + Arg(1);
  case OpKind::Sub:
    return Arg(0) - Arg(1);
  case OpKind::Mul:
    return Arg(0) * Arg(1);
  case OpKind::Div:
    return Arg(0) / Arg(1);
  case OpKind::Neg:
    return -Arg(0);
  case OpKind::Sqrt:
    return Arg(0).sqrt();
  case OpKind::Cbrt:
    return Arg(0).cbrt();
  case OpKind::Fabs:
    return Arg(0).abs();
  case OpKind::Fma:
    return fmaDD(Arg(0), Arg(1), Arg(2));
  }
  return DoubleDouble(NaN);
}

/// The reference sampler: samplePoints' draws, one named map per point.
struct RefSamples {
  std::vector<RefPoint> Points;
  std::vector<double> Exact;
};

RefSamples refSample(const FPExpr &E, const std::vector<VarRange> &Ranges,
                     unsigned Count, uint32_t Seed) {
  std::mt19937_64 Rng(Seed);
  RefSamples Samples;
  unsigned Attempts = 0;
  while (Samples.Points.size() < Count && Attempts < Count * 20) {
    ++Attempts;
    RefPoint Point;
    for (const VarRange &Range : Ranges) {
      std::uniform_real_distribution<double> Uniform(Range.Lo, Range.Hi);
      double Value = Uniform(Rng);
      if (Range.Lo > 0 && (Rng() & 1)) {
        std::uniform_real_distribution<double> LogU(std::log(Range.Lo),
                                                    std::log(Range.Hi));
        Value = std::exp(LogU(Rng));
      }
      Point[Range.Name] = Value;
    }
    DoubleDouble Exact = refExact(E, Point);
    if (!Exact.isFinite())
      continue;
    Samples.Points.push_back(std::move(Point));
    Samples.Exact.push_back(Exact.toDouble());
  }
  return Samples;
}

uint64_t bits(double X) { return std::bit_cast<uint64_t>(X); }

/// Bit-identical, except that any NaN matches any NaN: IEEE 754 leaves the
/// sign and payload of a NaN result unspecified (with two NaN operands the
/// compiler may commute them), and every NaN scores 64 bits of error.
::testing::AssertionResult sameBits(double Got, double Want) {
  if (bits(Got) == bits(Want) || (std::isnan(Got) && std::isnan(Want)))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << std::hexfloat << Got << " vs " << Want << std::defaultfloat;
}

/// A sample set over \p Vars holding \p Rows (one value per variable
/// each) and the ground truth \p Exact.
SampleSet makeSamples(std::vector<std::string> Vars,
                      const std::vector<std::vector<double>> &Rows,
                      std::vector<double> Exact) {
  SampleSet S;
  S.Vars = std::move(Vars);
  S.Points.Columns.resize(S.Vars.size());
  for (const std::vector<double> &Row : Rows)
    for (size_t Slot = 0; Slot < Row.size(); ++Slot)
      S.Points.Columns[Slot].push_back(Row[Slot]);
  S.Points.Count = Rows.size();
  S.Exact = std::move(Exact);
  return S;
}

RefPoint pointOf(const SampleSet &S, size_t P) {
  RefPoint Point;
  for (unsigned Slot = 0; Slot < S.Vars.size(); ++Slot)
    Point[S.Vars[Slot]] = S.Points.at(P, Slot);
  return Point;
}

std::vector<double> compiled(const FPExpr &E, const SampleSet &S) {
  std::vector<double> Out;
  FPProgram::compile(E, S.Vars).evalBinary64(S.Points, Out);
  return Out;
}

/// The compiled binary64 value of \p E at one named point.
double evalAt(const FPExpr &E, const RefPoint &Point) {
  std::vector<std::string> Vars;
  std::vector<double> Row;
  for (const auto &[Name, Value] : Point) {
    Vars.push_back(Name);
    Row.push_back(Value);
  }
  std::vector<double> Out =
      compiled(E, makeSamples(std::move(Vars), {Row}, {0.0}));
  EXPECT_EQ(Out.size(), 1u);
  return Out.empty() ? NaN : Out[0];
}

/// The reference average: bitsOfError summed in sample order.
double refAverage(const FPExpr &E, const SampleSet &S) {
  double Total = 0;
  for (size_t P = 0; P < S.Points.size(); ++P)
    Total += bitsOfError(refDouble(E, pointOf(S, P)), S.Exact[P]);
  return Total / static_cast<double>(S.Points.size());
}

/// Values that stress IEEE corner cases: NaN, infinities, signed zeros,
/// subnormals and the ends of the normal range.
const double Specials[] = {NaN,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           -0.0,
                           0.0,
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           1e-310,
                           -3e-320,
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::lowest(),
                           1.0,
                           -1.0};

/// A special value half the time, otherwise a random double of random
/// magnitude and sign.
double randomInput(std::mt19937_64 &Rng) {
  if (Rng() & 1)
    return Specials[Rng() % std::size(Specials)];
  std::uniform_real_distribution<double> Mantissa(-1.0, 1.0);
  return std::ldexp(Mantissa(Rng), static_cast<int>(Rng() % 240) - 120);
}

/// An ordinary input: a moderate magnitude, negative a quarter of the
/// time, so that deep expressions mostly stay numbers.
double ordinaryInput(std::mt19937_64 &Rng) {
  std::uniform_real_distribution<double> Magnitude(0.25, 4.0);
  return Rng() % 4 == 0 ? -Magnitude(Rng) : Magnitude(Rng);
}

/// Random expressions over every operator, on the variables x, y, z and,
/// when UnboundLeaves is set, (one leaf in sixteen) the never-bound w. gen(D) has depth exactly D:
/// one argument of each node continues the spine, the others are at most
/// two deep. Half the square roots take a fabs, so that not every deep
/// spine ends in NaN.
struct ExprGen {
  std::mt19937_64 Rng;
  std::vector<bool> SeenOps = std::vector<bool>(11, false);
  bool UnboundLeaves = false;

  explicit ExprGen(uint64_t Seed) : Rng(Seed) {}

  ExprPtr gen(unsigned Depth) {
    static const OpKind Ops[] = {OpKind::Add,  OpKind::Sub,  OpKind::Mul,
                                 OpKind::Div,  OpKind::Neg,  OpKind::Sqrt,
                                 OpKind::Cbrt, OpKind::Fabs, OpKind::Fma};
    static const char *Names[] = {"x", "y", "z"};
    ExprPtr E;
    if (Depth == 0) {
      if (UnboundLeaves && Rng() % 16 == 0)
        E = FPExpr::var("w");
      else if (Rng() % 3 == 0)
        E = FPExpr::num(Rng() & 1 ? randomInput(Rng) : ordinaryInput(Rng));
      else
        E = FPExpr::var(Names[Rng() % std::size(Names)]);
    } else {
      OpKind Op = Ops[Rng() % std::size(Ops)];
      unsigned Arity = FPExpr::arity(Op);
      unsigned Spine = static_cast<unsigned>(Rng() % Arity);
      std::vector<ExprPtr> Args;
      for (unsigned I = 0; I < Arity; ++I)
        Args.push_back(gen(I == Spine ? Depth - 1
                                      : std::min<unsigned>(Depth - 1,
                                                           Rng() % 3)));
      if (Op == OpKind::Sqrt && (Rng() & 1))
        Args[0] = FPExpr::make(OpKind::Fabs, {Args[0]});
      E = FPExpr::make(Op, std::move(Args));
    }
    SeenOps[static_cast<size_t>(E->Op)] = true;
    return E;
  }
};

} // namespace

TEST(FPExprTest, ParseAndEval) {
  ExprPtr E = parseFPExpr("(- (sqrt (+ x 1)) (sqrt x))");
  ASSERT_NE(E, nullptr);
  EXPECT_DOUBLE_EQ(evalAt(*E, {{"x", 4.0}}), std::sqrt(5.0) - 2.0);
}

TEST(FPExprTest, ParseRejectsMalformed) {
  EXPECT_EQ(parseFPExpr("(+ x)"), nullptr);       // arity
  EXPECT_EQ(parseFPExpr("(log x)"), nullptr);     // unknown op
  EXPECT_EQ(parseFPExpr("(+ x y) extra"), nullptr);
}

TEST(FPExprTest, SurfaceRoundTrip) {
  const char *Source = "(fma (neg a) (cbrt b) (fabs (/ a b)))";
  ExprPtr E = parseFPExpr(Source);
  ASSERT_NE(E, nullptr);
  ExprPtr E2 = parseFPExpr(toSurface(*E));
  ASSERT_NE(E2, nullptr);
  RefPoint Inputs = {{"a", 3.5}, {"b", 2.25}};
  EXPECT_DOUBLE_EQ(evalAt(*E, Inputs), evalAt(*E2, Inputs));
}

TEST(FPExprTest, EgglogTermRoundTrip) {
  ExprPtr E = parseFPExpr("(- (cbrt (+ v 1)) (cbrt v))");
  ASSERT_NE(E, nullptr);
  std::string Term = toEgglogTerm(*E);
  EXPECT_NE(Term.find("MCbrt"), std::string::npos);
  ExprPtr Back = parseEgglogTerm(Term);
  ASSERT_NE(Back, nullptr);
  RefPoint Inputs = {{"v", 100.0}};
  EXPECT_DOUBLE_EQ(evalAt(*E, Inputs), evalAt(*Back, Inputs));
}

TEST(FPExprTest, FreeVariables) {
  ExprPtr E = parseFPExpr("(+ (* a b) (- a c))");
  ASSERT_NE(E, nullptr);
  std::vector<std::string> Vars = freeVariables(*E);
  EXPECT_EQ(Vars, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(FPExprTest, CompiledProgramMatchesTreeWalkBitForBit) {
  // Depths 1..64 on fixed seeds; 37 points per expression (not a multiple
  // of any vector width). Odd trials draw the inputs from the IEEE corner
  // cases half the time, even trials use ordinary inputs.
  ExprGen Gen(20230415);
  std::mt19937_64 InputRng(7);
  const std::vector<std::string> Vars = {"x", "y", "z"};
  std::vector<DoubleDouble> Stack;
  size_t NonNaN = 0;
  for (unsigned Trial = 0; Trial < 256; ++Trial) {
    unsigned Depth = 1 + Trial % 64;
    Gen.UnboundLeaves = Trial % 4 == 3;
    ExprPtr E = Gen.gen(Depth);
    std::vector<std::vector<double>> Rows(37);
    for (std::vector<double> &Row : Rows)
      for (size_t V = 0; V < Vars.size(); ++V)
        Row.push_back(Trial % 2 ? randomInput(InputRng)
                                : ordinaryInput(InputRng));
    std::vector<double> Exact(Rows.size());
    for (double &X : Exact)
      X = randomInput(InputRng);
    SampleSet S = makeSamples(Vars, Rows, Exact);

    std::vector<double> Got = compiled(*E, S);
    ASSERT_EQ(Got.size(), Rows.size());
    FPProgram Program = FPProgram::compile(*E, Vars);
    for (size_t P = 0; P < Rows.size(); ++P) {
      RefPoint Point = pointOf(S, P);
      double Ref = refDouble(*E, Point);
      NonNaN += !std::isnan(Ref);
      ASSERT_TRUE(sameBits(Got[P], Ref))
          << "trial " << Trial << " point " << P << ": " << toSurface(*E);
      DoubleDouble Want = refExact(*E, Point);
      DoubleDouble Have = Program.evalDoubleDouble(Rows[P].data(), Stack);
      ASSERT_TRUE(sameBits(Have.Hi, Want.Hi))
          << "trial " << Trial << " point " << P << ": " << toSurface(*E);
      ASSERT_TRUE(sameBits(Have.Lo, Want.Lo))
          << "trial " << Trial << " point " << P << ": " << toSurface(*E);
    }
    EXPECT_EQ(bits(averageError(*E, S)), bits(refAverage(*E, S)))
        << "trial " << Trial << ": " << toSurface(*E);
  }
  for (size_t Op = 0; Op < Gen.SeenOps.size(); ++Op)
    EXPECT_TRUE(Gen.SeenOps[Op]) << "operator " << Op << " never generated";
  // Many results must be numbers, where the comparison is exact (about a
  // quarter are; the corner-case trials end mostly in NaN).
  EXPECT_GT(NonNaN, 256u * 37u / 5u) << NonNaN;
}

TEST(FPExprTest, UnboundVariableReadsNaN) {
  ExprPtr E = parseFPExpr("(+ x w)");
  ASSERT_NE(E, nullptr);
  SampleSet S = makeSamples({"x"}, {{1.0}, {2.0}}, {1.0, 2.0});
  for (double V : compiled(*E, S))
    EXPECT_TRUE(std::isnan(V));
  EXPECT_EQ(bits(averageError(*E, S)), bits(refAverage(*E, S)));
  EXPECT_DOUBLE_EQ(averageError(*E, S), 64.0);
  // The ground truth is NaN everywhere, so no point is valid.
  SampleSet Sampled = samplePoints(*E, {VarRange{"x", 1.0, 2.0}}, 16, 3);
  EXPECT_TRUE(Sampled.Points.empty());
  EXPECT_EQ(Sampled.Vars, std::vector<std::string>{"x"});
  EXPECT_EQ(averageError(*E, Sampled), 0.0);
}

TEST(FPExprTest, ExpressionWithoutVariables) {
  ExprPtr E = parseFPExpr("(- (sqrt 2) (/ 1 3))");
  ASSERT_NE(E, nullptr);
  SampleSet S = samplePoints(*E, {}, 5, 11);
  EXPECT_TRUE(S.Vars.empty());
  ASSERT_EQ(S.Points.size(), 5u);
  EXPECT_FALSE(S.Points.empty());
  double Want = refDouble(*E, {});
  for (double V : compiled(*E, S))
    EXPECT_EQ(bits(V), bits(Want));
  EXPECT_EQ(bits(S.Exact[0]), bits(refExact(*E, {}).toDouble()));
  EXPECT_EQ(bits(averageError(*E, S)), bits(refAverage(*E, S)));
}

TEST(FPExprTest, OneSample) {
  ExprPtr E = parseFPExpr("(/ (- (sqrt (+ x 1)) (sqrt x)) y)");
  ASSERT_NE(E, nullptr);
  SampleSet S = makeSamples({"x", "y"}, {{1e12, 3.0}}, {1.0 / 6e6});
  std::vector<double> Got = compiled(*E, S);
  ASSERT_EQ(Got.size(), 1u);
  EXPECT_EQ(bits(Got[0]), bits(refDouble(*E, pointOf(S, 0))));
  EXPECT_EQ(bits(averageError(*E, S)),
            bits(bitsOfError(refDouble(*E, pointOf(S, 0)), S.Exact[0])));
}

TEST(DoubleDoubleTest, CapturesRoundoff) {
  // 1e16 + 1 is not representable in binary64 but is in double-double.
  DoubleDouble Big(1e16);
  DoubleDouble Sum = Big + DoubleDouble(1.0);
  DoubleDouble Back = Sum - Big;
  EXPECT_DOUBLE_EQ(Back.toDouble(), 1.0);
  // In plain double arithmetic this degenerates:
  EXPECT_NE(1e16 + 1.0 - 1e16, 1.0);
}

TEST(DoubleDoubleTest, MulAndDiv) {
  DoubleDouble X(1.0);
  DoubleDouble Third = X / DoubleDouble(3.0);
  DoubleDouble One = Third * DoubleDouble(3.0);
  EXPECT_NEAR(One.toDouble(), 1.0, 1e-30);
  // Residual accuracy beyond double: (1/3)*3 - 1 should be ~0 in DD.
  DoubleDouble Err = One - X;
  EXPECT_LT(std::abs(Err.toDouble()), 1e-30);
}

TEST(DoubleDoubleTest, SqrtRefines) {
  DoubleDouble Two(2.0);
  DoubleDouble Root = Two.sqrt();
  DoubleDouble Square = Root * Root;
  EXPECT_LT(std::abs((Square - Two).toDouble()), 1e-30);
}

TEST(DoubleDoubleTest, CbrtHandlesNegatives) {
  DoubleDouble MinusEight(-8.0);
  EXPECT_NEAR(MinusEight.cbrt().toDouble(), -2.0, 1e-15);
  DoubleDouble Ten(10.0);
  DoubleDouble Root = Ten.cbrt();
  DoubleDouble Cube = Root * Root * Root;
  EXPECT_LT(std::abs((Cube - Ten).toDouble()), 1e-28);
}

TEST(ErrorModelTest, UlpDistanceBasics) {
  EXPECT_EQ(ulpDistance(1.0, 1.0), 0u);
  EXPECT_EQ(ulpDistance(1.0, std::nextafter(1.0, 2.0)), 1u);
  EXPECT_GT(ulpDistance(1.0, 2.0), 1u);
  EXPECT_GT(ulpDistance(-1.0, 1.0), ulpDistance(1.0, 2.0));
  EXPECT_EQ(ulpDistance(0.5, std::nan("")), UINT64_MAX);
}

TEST(ErrorModelTest, BitsOfError) {
  EXPECT_DOUBLE_EQ(bitsOfError(1.0, 1.0), 0.0);
  EXPECT_NEAR(bitsOfError(1.0, std::nextafter(1.0, 2.0)), 1.0, 0.01);
  EXPECT_DOUBLE_EQ(bitsOfError(std::nan(""), 1.0), 64.0);
}

TEST(ErrorModelTest, CancellationShowsHighError) {
  // sqrt(x+1) - sqrt(x) at large x loses most of its bits in binary64.
  ExprPtr Bad = parseFPExpr("(- (sqrt (+ x 1)) (sqrt x))");
  ExprPtr Good = parseFPExpr("(/ 1 (+ (sqrt (+ x 1)) (sqrt x)))");
  ASSERT_NE(Bad, nullptr);
  ASSERT_NE(Good, nullptr);
  SampleSet Samples =
      samplePoints(*Bad, {VarRange{"x", 1e10, 1e14}}, 100, 42);
  ASSERT_GT(Samples.Points.size(), 50u);
  double BadError = averageError(*Bad, Samples);
  double GoodError = averageError(*Good, Samples);
  EXPECT_GT(BadError, 10.0) << "naive form must lose many bits";
  EXPECT_LT(GoodError, 2.0) << "rationalized form must be accurate";
}

TEST(ErrorModelTest, SamplerRespectsRangesAndValidity) {
  ExprPtr E = parseFPExpr("(sqrt x)");
  SampleSet Samples = samplePoints(*E, {VarRange{"x", 1.0, 2.0}}, 64, 7);
  EXPECT_EQ(Samples.Points.size(), 64u);
  ASSERT_EQ(Samples.Vars, std::vector<std::string>{"x"});
  for (size_t P = 0; P < Samples.Points.size(); ++P) {
    double X = Samples.Points.at(P, 0);
    EXPECT_GE(X, 1.0);
    EXPECT_LE(X, 2.0);
  }
  // Deterministic in the seed.
  SampleSet Again = samplePoints(*E, {VarRange{"x", 1.0, 2.0}}, 64, 7);
  EXPECT_EQ(Samples.Points, Again.Points);
}

TEST(ErrorModelTest, SamplerAndScoresMatchTreeWalkOnTheSuite) {
  // Every suite benchmark: samplePoints keeps the reference sampler's
  // points and ground truth, and averageError is the reference sum.
  for (const Benchmark &B : herbieSuite()) {
    ExprPtr E = parseFPExpr(B.Expr);
    ASSERT_NE(E, nullptr) << B.Name;
    SampleSet Got = samplePoints(*E, B.Ranges, 200, 99);
    RefSamples Want = refSample(*E, B.Ranges, 200, 99);
    ASSERT_EQ(Got.Points.size(), Want.Points.size()) << B.Name;
    ASSERT_EQ(Got.Exact.size(), Want.Exact.size()) << B.Name;
    for (size_t P = 0; P < Want.Points.size(); ++P) {
      ASSERT_EQ(pointOf(Got, P), Want.Points[P]) << B.Name << " point " << P;
      ASSERT_EQ(bits(Got.Exact[P]), bits(Want.Exact[P]))
          << B.Name << " point " << P;
    }
    if (!Got.Points.empty()) {
      EXPECT_EQ(bits(averageError(*E, Got)), bits(refAverage(*E, Got)))
          << B.Name;
    }
  }
}

TEST(ErrorModelTest, RepeatedRangeNameKeepsTheLastDraw) {
  ExprPtr E = parseFPExpr("(* x y)");
  ASSERT_NE(E, nullptr);
  std::vector<VarRange> Ranges = {VarRange{"x", 1.0, 2.0},
                                  VarRange{"y", -1.0, 1.0},
                                  VarRange{"x", 3.0, 4.0}};
  SampleSet Got = samplePoints(*E, Ranges, 32, 5);
  RefSamples Want = refSample(*E, Ranges, 32, 5);
  EXPECT_EQ(Got.Vars, (std::vector<std::string>{"x", "y"}));
  ASSERT_EQ(Got.Points.size(), Want.Points.size());
  for (size_t P = 0; P < Want.Points.size(); ++P) {
    EXPECT_EQ(pointOf(Got, P), Want.Points[P]);
    EXPECT_GE(Got.Points.at(P, 0), 3.0);
  }
}
