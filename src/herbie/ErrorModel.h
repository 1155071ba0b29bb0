//===- herbie/ErrorModel.h - Bits-of-error measurement ---------*- C++ -*-===//
//
// Part of egglog-cpp. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Herbie's accuracy metric (§6.2): sample input points, evaluate the
/// candidate in binary64 and the ground truth in double-double, and report
/// the average "bits of error" — log2 of the distance in ULPs between the
/// two results over the ordered encoding of doubles.
///
/// Both precisions run one evaluator: an expression is compiled once into
/// a flat postfix FPProgram whose variables are slot numbers. Candidates
/// run column-at-a-time over every sample; the ground truth runs one point
/// at a time while sampling.
///
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_HERBIE_ERRORMODEL_H
#define EGGLOG_HERBIE_ERRORMODEL_H

#include "herbie/FPExpr.h"
#include "support/DoubleDouble.h"

#include <cstdint>
#include <string>
#include <vector>

namespace egglog {
namespace herbie {

/// A variable range for sampling.
struct VarRange {
  std::string Name;
  double Lo = 0;
  double Hi = 1;
};

/// Distance between two doubles in units in the last place, over the
/// monotone ordered mapping of the binary64 encoding. NaNs are infinitely
/// far from everything.
uint64_t ulpDistance(double A, double B);

/// log2(1 + ulpDistance): 0 bits when exact, up to ~64 when sign/magnitude
/// are entirely wrong.
double bitsOfError(double Approx, double Exact);

/// Sampled input points stored by variable: Columns[Slot][P] is point P's
/// value of variable slot Slot.
struct SampleColumns {
  std::vector<std::vector<double>> Columns;
  /// Number of points (kept apart from Columns, which are empty when the
  /// expression has no variables).
  size_t Count = 0;

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  double at(size_t Point, unsigned Slot) const {
    return Columns[Slot][Point];
  }
  bool operator==(const SampleColumns &) const = default;
};

/// A set of sampled valid input points with their ground-truth values.
struct SampleSet {
  /// The variable names, once; a name's index is its slot in Points.
  std::vector<std::string> Vars;
  SampleColumns Points;
  /// Ground truth per point, in sample order.
  std::vector<double> Exact;
};

/// An expression compiled against a variable list: postfix instructions in
/// the tree's operation order, each variable resolved to its slot (a name
/// not in the list compiles to a NaN constant). Every operation is one
/// binary64 (or double-double) operation, as in the tree.
class FPProgram {
public:
  static FPProgram compile(const FPExpr &E,
                           const std::vector<std::string> &Vars);

  /// Evaluates in binary64 at every point of \p Points, writing one value
  /// per point to \p Out: each instruction runs across all points before
  /// the next, on a stack of point-wide columns.
  void evalBinary64(const SampleColumns &Points,
                    std::vector<double> &Out) const;

  /// Evaluates in double-double at one point; \p Point[Slot] is the
  /// input of each variable slot, and \p Stack is scratch.
  DoubleDouble evalDoubleDouble(const double *Point,
                                std::vector<DoubleDouble> &Stack) const;

private:
  struct Instr {
    OpKind Op;
    uint32_t Slot = 0;   ///< Var: the input slot.
    double Constant = 0; ///< Num: the value.
  };
  std::vector<Instr> Code;
  /// Stack height the program needs.
  unsigned Depth = 0;

  void emit(const FPExpr &E, const std::vector<std::string> &Vars,
            unsigned Height);
};

/// Samples \p Count points from the ranges, keeping only points where the
/// ground truth of \p E is finite. Deterministic in \p Seed.
SampleSet samplePoints(const FPExpr &E, const std::vector<VarRange> &Ranges,
                       unsigned Count, uint32_t Seed);

/// Average bits of error of \p Candidate against precomputed ground truth,
/// summed in sample order.
double averageError(const FPExpr &Candidate, const SampleSet &Samples);

} // namespace herbie
} // namespace egglog

#endif // EGGLOG_HERBIE_ERRORMODEL_H
