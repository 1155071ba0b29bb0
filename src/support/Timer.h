//===- support/Timer.h - Wall-clock timing ---------------------*- C++ -*-===//
//
// Part of egglog-cpp. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small steady-clock stopwatch used by the benchmark harnesses that
/// regenerate the paper's figures.
///
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_SUPPORT_TIMER_H
#define EGGLOG_SUPPORT_TIMER_H

#include <chrono>

namespace egglog {

/// Measures elapsed wall-clock time from construction or the last reset().
class Timer {
public:
  Timer() : Start(Clock::now()) {}

  /// Restarts the stopwatch.
  void reset() { Start = Clock::now(); }

  /// Elapsed seconds since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start;
};

} // namespace egglog

#endif // EGGLOG_SUPPORT_TIMER_H
