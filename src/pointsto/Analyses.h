//===- pointsto/Analyses.h - Steensgaard analysis encodings ----*- C++ -*-===//
//
// Part of egglog-cpp. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The five systems compared in Fig. 8 of the paper, all computing a
/// context-, flow-, path-insensitive and field-sensitive Steensgaard
/// points-to analysis:
///
///  * Egglog    — the native encoding: `vpt` is a function to an
///                uninterpreted Obj sort whose functional-dependency
///                repair is unification; canonicalization makes joins
///                plain equality joins (§6.1).
///  * EgglogNI  — the same encoding with semi-naïve evaluation disabled.
///  * EqRelEnc  — Datalog with an explicit eqrel and `vpt` closed under
///                equivalence (a pointer may point to many equivalent
///                allocations; the quadratic blow-up the paper describes).
///  * CClyzer   — the cclyzer++-style encoding: representative
///                propagation, one join-modulo-equivalence rule for
///                loads, and *without* the congruence rules — which makes
///                it unsound (it computes a different, finer partition).
///  * Patched   — CClyzer plus the congruence rules restored through the
///                eqrel (sound; agrees with egglog).
///
/// The comparison metric is the partition of allocation ids into
/// equivalence classes (canonicalized to the smallest member), which all
/// sound systems must agree on.
///
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_POINTSTO_ANALYSES_H
#define EGGLOG_POINTSTO_ANALYSES_H

#include "pointsto/ProgramGenerator.h"

#include <cstdint>
#include <string>
#include <vector>

namespace egglog {
namespace pointsto {

/// Which analysis implementation to run.
enum class System {
  Egglog,
  EgglogNI,
  EqRelEncoding,
  CClyzer,
  Patched,
};

const char *systemName(System S);

/// Canonical analysis outcome plus timing.
struct AnalysisResult {
  bool TimedOut = false;
  double Seconds = 0;
  /// Seconds spent in the engine's match phase (egglog systems only;
  /// zero for the Datalog and classic baselines): prepare plus join.
  double SearchSeconds = 0;
  /// Seconds spent in the engine's apply phase (egglog systems only).
  double ApplySeconds = 0;
  /// Seconds spent in the engine's rebuild phase (egglog systems only).
  double RebuildSeconds = 0;
  /// Order-independent hash of the engine's live database content after
  /// the run (egglog systems only, zero on timeout): the differential
  /// oracle that lets bench artifacts from different commits certify they
  /// computed the same fixpoint.
  uint64_t ContentHash = 0;
  /// For each allocation id (base + field), the smallest allocation id it
  /// is equivalent to.
  std::vector<uint32_t> AllocClass;
  /// Number of (pointer variable, allocation) facts the system derived
  /// (its internal representation size).
  size_t VptSize = 0;

  /// Number of distinct allocation classes.
  size_t numClasses() const;
};

/// Runs the chosen system on a program. \p TimeoutSeconds of 0 disables
/// the timeout. \p Threads sets the egglog engine's match-phase
/// concurrency (ignored by the Datalog baselines).
AnalysisResult runPointsTo(const Program &P, System S,
                           double TimeoutSeconds = 0, unsigned Threads = 1);

} // namespace pointsto
} // namespace egglog

#endif // EGGLOG_POINTSTO_ANALYSES_H
