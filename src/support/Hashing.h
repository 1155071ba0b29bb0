//===- support/Hashing.h - Hash utilities ----------------------*- C++ -*-===//
//
// Part of egglog-cpp. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hash combinators shared by the table indexes, hashcons maps and interners.
///
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_SUPPORT_HASHING_H
#define EGGLOG_SUPPORT_HASHING_H

#include <cstddef>
#include <cstdint>

namespace egglog {

/// Mixes a new value into a running hash (boost-style combinator with a
/// 64-bit golden-ratio constant).
inline size_t hashCombine(size_t Seed, size_t Value) {
  return Seed ^ (Value + 0x9e3779b97f4a7c15ull + (Seed << 12) + (Seed >> 4));
}

/// Finalizer from MurmurHash3 for avalanche on small integer keys.
inline uint64_t hashMix(uint64_t Key) {
  Key ^= Key >> 33;
  Key *= 0xff51afd7ed558ccdull;
  Key ^= Key >> 33;
  Key *= 0xc4ceb9fe1a85ec53ull;
  Key ^= Key >> 33;
  return Key;
}

} // namespace egglog

#endif // EGGLOG_SUPPORT_HASHING_H
