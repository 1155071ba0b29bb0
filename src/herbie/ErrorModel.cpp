//===- herbie/ErrorModel.cpp - Bits-of-error measurement ---------------------===//
//
// Part of egglog-cpp. See ErrorModel.h for an overview.
//
//===----------------------------------------------------------------------===//

#include "herbie/ErrorModel.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <random>

using namespace egglog;
using namespace egglog::herbie;

namespace {

/// Maps a double onto a monotone unsigned 64-bit line: negatives fold
/// below positives so adjacent doubles are adjacent integers.
uint64_t orderedBits(double Value) {
  uint64_t Bits = std::bit_cast<uint64_t>(Value);
  if (Bits >> 63)
    return ~Bits;
  return Bits | (1ull << 63);
}

} // namespace

uint64_t egglog::herbie::ulpDistance(double A, double B) {
  if (std::isnan(A) || std::isnan(B))
    return UINT64_MAX;
  if (A == B)
    return 0;
  uint64_t Oa = orderedBits(A), Ob = orderedBits(B);
  return Oa > Ob ? Oa - Ob : Ob - Oa;
}

double egglog::herbie::bitsOfError(double Approx, double Exact) {
  uint64_t Distance = ulpDistance(Approx, Exact);
  if (Distance == UINT64_MAX)
    return 64.0;
  return std::log2(1.0 + static_cast<double>(Distance));
}

FPProgram FPProgram::compile(const FPExpr &E,
                             const std::vector<std::string> &Vars) {
  FPProgram Program;
  Program.emit(E, Vars, 0);
  return Program;
}

/// Appends \p E's postfix code; \p Height is the stack height before it.
void FPProgram::emit(const FPExpr &E, const std::vector<std::string> &Vars,
                     unsigned Height) {
  for (size_t I = 0; I < E.Args.size(); ++I)
    emit(*E.Args[I], Vars, Height + static_cast<unsigned>(I));
  Instr In{E.Op};
  if (E.Op == OpKind::Num) {
    In.Constant = E.Constant;
  } else if (E.Op == OpKind::Var) {
    auto It = std::find(Vars.begin(), Vars.end(), E.Name);
    if (It == Vars.end()) {
      In.Op = OpKind::Num;
      In.Constant = std::numeric_limits<double>::quiet_NaN();
    } else {
      In.Slot = static_cast<uint32_t>(It - Vars.begin());
    }
  }
  Code.push_back(In);
  Depth = std::max(Depth, Height + 1);
}

namespace {

/// A[i] = Fn(A[i]) over one column.
template <typename Fn> void mapColumn(double *A, size_t N, Fn F) {
  for (size_t I = 0; I < N; ++I)
    A[I] = F(A[I]);
}

/// A[i] = Fn(A[i], B[i]); A and B are distinct stack columns.
template <typename Fn>
void zipColumns(double *__restrict A, const double *__restrict B, size_t N,
                Fn F) {
  for (size_t I = 0; I < N; ++I)
    A[I] = F(A[I], B[I]);
}

} // namespace

void FPProgram::evalBinary64(const SampleColumns &Points,
                             std::vector<double> &Out) const {
  // The stack's columns live in Out, column K at K * N, so the result
  // (column 0) is already in place when Out is cut back to N.
  size_t N = Points.size();
  Out.resize(static_cast<size_t>(Depth) * N);
  double *Stack = Out.data();
  size_t Top = 0; // end of the topmost column
  auto Operand = [&](size_t FromTop) { return Stack + Top - FromTop * N; };
  for (const Instr &In : Code) {
    switch (In.Op) {
    case OpKind::Num:
      std::fill_n(Stack + Top, N, In.Constant);
      Top += N;
      break;
    case OpKind::Var:
      std::copy_n(Points.Columns[In.Slot].data(), N, Stack + Top);
      Top += N;
      break;
    case OpKind::Add:
      zipColumns(Operand(2), Operand(1), N,
                 [](double X, double Y) { return X + Y; });
      Top -= N;
      break;
    case OpKind::Sub:
      zipColumns(Operand(2), Operand(1), N,
                 [](double X, double Y) { return X - Y; });
      Top -= N;
      break;
    case OpKind::Mul:
      zipColumns(Operand(2), Operand(1), N,
                 [](double X, double Y) { return X * Y; });
      Top -= N;
      break;
    case OpKind::Div:
      zipColumns(Operand(2), Operand(1), N,
                 [](double X, double Y) { return X / Y; });
      Top -= N;
      break;
    case OpKind::Neg:
      mapColumn(Operand(1), N, [](double X) { return -X; });
      break;
    case OpKind::Sqrt:
      mapColumn(Operand(1), N, [](double X) { return std::sqrt(X); });
      break;
    case OpKind::Cbrt:
      mapColumn(Operand(1), N, [](double X) { return std::cbrt(X); });
      break;
    case OpKind::Fabs:
      mapColumn(Operand(1), N, [](double X) { return std::fabs(X); });
      break;
    case OpKind::Fma: {
      double *X = Operand(3);
      const double *Y = Operand(2), *Z = Operand(1);
      for (size_t I = 0; I < N; ++I)
        X[I] = std::fma(X[I], Y[I], Z[I]);
      Top -= 2 * N;
      break;
    }
    }
  }
  Out.resize(N);
}

DoubleDouble FPProgram::evalDoubleDouble(
    const double *Point, std::vector<DoubleDouble> &Stack) const {
  Stack.resize(Depth);
  size_t Top = 0; // number of values on the stack
  for (const Instr &In : Code) {
    DoubleDouble *S = Stack.data();
    switch (In.Op) {
    case OpKind::Num:
      S[Top++] = DoubleDouble(In.Constant);
      break;
    case OpKind::Var:
      S[Top++] = DoubleDouble(Point[In.Slot]);
      break;
    case OpKind::Add:
      --Top;
      S[Top - 1] = S[Top - 1] + S[Top];
      break;
    case OpKind::Sub:
      --Top;
      S[Top - 1] = S[Top - 1] - S[Top];
      break;
    case OpKind::Mul:
      --Top;
      S[Top - 1] = S[Top - 1] * S[Top];
      break;
    case OpKind::Div:
      --Top;
      S[Top - 1] = S[Top - 1] / S[Top];
      break;
    case OpKind::Neg:
      S[Top - 1] = -S[Top - 1];
      break;
    case OpKind::Sqrt:
      S[Top - 1] = S[Top - 1].sqrt();
      break;
    case OpKind::Cbrt:
      S[Top - 1] = S[Top - 1].cbrt();
      break;
    case OpKind::Fabs:
      S[Top - 1] = S[Top - 1].abs();
      break;
    case OpKind::Fma:
      Top -= 2;
      S[Top - 1] = fmaDD(S[Top - 1], S[Top], S[Top + 1]);
      break;
    }
  }
  return Stack[0];
}

SampleSet egglog::herbie::samplePoints(const FPExpr &E,
                                       const std::vector<VarRange> &Ranges,
                                       unsigned Count, uint32_t Seed) {
  SampleSet Samples;
  // One slot per distinct name; a repeated range overwrites its slot.
  std::vector<size_t> RangeSlot;
  for (const VarRange &Range : Ranges) {
    auto It = std::find(Samples.Vars.begin(), Samples.Vars.end(), Range.Name);
    RangeSlot.push_back(static_cast<size_t>(It - Samples.Vars.begin()));
    if (It == Samples.Vars.end())
      Samples.Vars.push_back(Range.Name);
  }
  SampleColumns &Points = Samples.Points;
  Points.Columns.resize(Samples.Vars.size());
  FPProgram Program = FPProgram::compile(E, Samples.Vars);
  std::vector<double> Point(Samples.Vars.size());
  std::vector<DoubleDouble> Stack;

  std::mt19937_64 Rng(Seed);
  unsigned Attempts = 0;
  while (Points.size() < Count && Attempts < Count * 20) {
    ++Attempts;
    for (size_t R = 0; R < Ranges.size(); ++R) {
      const VarRange &Range = Ranges[R];
      // Mix uniform and log-uniform sampling so both magnitudes and
      // cancellation-prone nearby values appear, as Herbie's sampler does.
      std::uniform_real_distribution<double> Uniform(Range.Lo, Range.Hi);
      double Value = Uniform(Rng);
      if (Range.Lo > 0 && (Rng() & 1)) {
        std::uniform_real_distribution<double> LogU(std::log(Range.Lo),
                                                    std::log(Range.Hi));
        Value = std::exp(LogU(Rng));
      }
      Point[RangeSlot[R]] = Value;
    }
    DoubleDouble Exact = Program.evalDoubleDouble(Point.data(), Stack);
    if (!Exact.isFinite())
      continue;
    for (size_t Slot = 0; Slot < Point.size(); ++Slot)
      Points.Columns[Slot].push_back(Point[Slot]);
    ++Points.Count;
    Samples.Exact.push_back(Exact.toDouble());
  }
  return Samples;
}

double egglog::herbie::averageError(const FPExpr &Candidate,
                                    const SampleSet &Samples) {
  if (Samples.Points.empty())
    return 0;
  std::vector<double> Approx;
  FPProgram::compile(Candidate, Samples.Vars)
      .evalBinary64(Samples.Points, Approx);
  double Total = 0;
  for (size_t I = 0; I < Approx.size(); ++I)
    Total += bitsOfError(Approx[I], Samples.Exact[I]);
  return Total / static_cast<double>(Approx.size());
}
