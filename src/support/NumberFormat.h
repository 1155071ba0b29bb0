//===- support/NumberFormat.h - Numeric value rendering --------*- C++ -*-===//
//
// Part of egglog-cpp. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shortest round-trip formatting for f64 values. std::to_string renders
/// through "%f" with 6 fractional digits, which silently corrupts any
/// double needing more precision (0.30000000000000004 prints as 0.300000
/// and parses back to a different value). Every place a double leaves the
/// system as surface syntax — extraction, SExpr printing, Herbie candidate
/// terms — goes through formatF64 instead, which uses std::to_chars: the
/// shortest decimal string that parses back to exactly the same bits.
///
/// The tools' numeric command-line flags parse through parseWhole, which
/// rejects what atoi/atof would silently read as 0 or a prefix.
///
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_SUPPORT_NUMBERFORMAT_H
#define EGGLOG_SUPPORT_NUMBERFORMAT_H

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <string>

namespace egglog {

/// Renders \p D as the shortest string that strtod parses back to the same
/// double. Integral values keep a ".0" suffix so the s-expression lexer
/// reads them back as floats, not integers. Infinities render as an
/// over-range literal (strtod saturates 1e999 back to +inf), so they stay
/// valid surface syntax; NaN has no literal and renders as a bare "nan"
/// symbol (not re-parseable — unchanged from the historical behavior).
inline std::string formatF64(double D) {
  if (std::isnan(D))
    return "nan";
  if (std::isinf(D))
    return D < 0 ? "-1e999" : "1e999";
  char Buffer[32];
  auto Result = std::to_chars(Buffer, Buffer + sizeof(Buffer), D);
  std::string Text(Buffer, Result.ptr);
  if (Text.find_first_of(".eE") == std::string::npos)
    Text += ".0";
  return Text;
}

/// Parses all of \p Text as a number (strtoll / strtod): false on an empty
/// string, trailing characters, or a value out of range.
inline bool parseWhole(const char *Text, long long &Out) {
  char *End = nullptr;
  errno = 0;
  Out = std::strtoll(Text, &End, 10);
  return End != Text && *End == '\0' && errno != ERANGE;
}
inline bool parseWhole(const char *Text, double &Out) {
  char *End = nullptr;
  errno = 0;
  Out = std::strtod(Text, &End);
  return End != Text && *End == '\0' && errno != ERANGE;
}

} // namespace egglog

#endif // EGGLOG_SUPPORT_NUMBERFORMAT_H
