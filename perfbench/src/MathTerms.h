//===- perfbench/src/MathTerms.h - Fig. 7 program and term generator -*- C++ -*-===//
//
// Part of egglog-cpp's benchmark (see perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Fig. 7 math rules and seed terms in egglog syntax (the analysis-free
/// subset of egg's math suite, as bench/MathSuite.cpp renders it), plus a
/// seeded generator of further terms. Shared by the eqsat-math and session
/// workloads. The benchmark keeps its own copy of the rules so its
/// workload cannot change underneath a baseline.
///
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_PERFBENCH_MATHTERMS_H
#define EGGLOG_PERFBENCH_MATHTERMS_H

#include "support/SExpr.h"

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace pb {

/// The Math datatype, the `root` function holding every term to extract
/// (costly, so extraction never returns the root row itself), and the 12
/// rewrite rules.
std::string mathProgram();

/// The eight Fig. 7 seed terms, in egglog syntax.
const std::vector<std::string> &fig7Seeds();

/// A random term of at most \p Depth operator levels over the variables
/// x y z a b c and the constants -1 0 1 2.
std::string randomMathTerm(std::mt19937 &Rng, unsigned Depth);

/// Tree cost of a ground term under the default cost model (every
/// constructor and every base value costs 1), as ExtractIndex counts it.
int64_t treeCost(const egglog::SExpr &Term);

} // namespace pb

#endif // EGGLOG_PERFBENCH_MATHTERMS_H
