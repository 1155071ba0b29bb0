//===- support/FailPoints.h - Deterministic fault injection ----*- C++ -*-===//
//
// Part of egglog-cpp. See DESIGN.md ("Failure atomicity") for the rules on
// where failpoints may be placed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Named failpoints for deterministic fault injection in tests. A failpoint
/// is a named program site (`EGGLOG_FAILPOINT("table.insert")`) that tests
/// can arm to throw an InjectedFault on the k-th hit, letting the fuzz
/// harness probe every intermediate state of a command for rollback
/// atomicity.
///
/// The macro compiles to nothing unless EGGLOG_FAILPOINTS_ENABLED is
/// defined (the test build defines it; release/bench builds do not), so the
/// steady-state cost in shipping binaries is exactly zero — bench_ablation
/// records `failpoints_compiled` in its benchmark context so the claim is
/// checkable from the bench artifact.
///
/// Hit counting is a single process-global atomic, so "the k-th hit" is
/// deterministic for serial commands and well-defined (first-to-increment)
/// under parallel match. Failpoints must never be placed on rollback or
/// restore paths — those are the error handlers and must be noexcept in
/// practice.
///
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_SUPPORT_FAILPOINTS_H
#define EGGLOG_SUPPORT_FAILPOINTS_H

#include <cstdint>
#include <exception>

namespace egglog {

/// Thrown by an armed failpoint. Carries the site name (a string literal,
/// so no allocation happens on the throw path).
class InjectedFault : public std::exception {
public:
  explicit InjectedFault(const char *Site) : Site(Site) {}
  const char *site() const { return Site; }
  const char *what() const noexcept override { return "injected fault"; }

private:
  const char *Site;
};

namespace failpoints {

#if EGGLOG_FAILPOINTS_ENABLED

/// Arms the harness: the FireAtHit-th subsequent hit (1-based) of a
/// failpoint whose name matches Site throws InjectedFault. A null or empty
/// Site matches every failpoint. FireAtHit == 0 counts hits without ever
/// firing (used to size the sweep). Resets the hit counter.
void arm(const char *Site, uint64_t FireAtHit);

/// Disarms the harness; hits stop counting.
void disarm();

/// Hits matched (against the armed site filter) since the last arm().
uint64_t hits();

/// Internal: called by the macro at every compiled-in failpoint.
void hit(const char *Site);

#endif // EGGLOG_FAILPOINTS_ENABLED

} // namespace failpoints
} // namespace egglog

#if EGGLOG_FAILPOINTS_ENABLED
#define EGGLOG_FAILPOINT(NAME) ::egglog::failpoints::hit(NAME)
#else
#define EGGLOG_FAILPOINT(NAME)                                                 \
  do {                                                                         \
  } while (false)
#endif

#endif // EGGLOG_SUPPORT_FAILPOINTS_H
