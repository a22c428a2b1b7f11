//===-- support/Hash.h - Streaming FNV-1a hash state -------------*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The running state of two FNV-1a 64-bit streams over one byte
/// sequence. FNV-1a is a streaming hash: the state after a prefix,
/// advanced over the rest, is the state of the whole. A caller that
/// hashes many sequences sharing one long prefix (the serve store's
/// keys all start with the printed program) hashes the prefix once and
/// copies the state.
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_SUPPORT_HASH_H
#define PGSD_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace pgsd {
namespace support {

/// Two FNV-1a streams with distinct offset bases, advanced together by
/// one loop, plus the number of bytes fed so far.
struct Fnv1aPair {
  static constexpr uint64_t Prime = 0x100000001b3ull;
  static constexpr uint64_t LoBasis = 0xcbf29ce484222325ull; ///< Standard.
  static constexpr uint64_t HiBasis = 0x9e3779b97f4a7c15ull;

  uint64_t Lo = LoBasis;
  uint64_t Hi = HiBasis;
  uint64_t Len = 0;

  /// Advances both streams over \p Size bytes at \p Data.
  void add(const void *Data, size_t Size) {
    const unsigned char *P = static_cast<const unsigned char *>(Data);
    uint64_t L = Lo, H = Hi;
    for (size_t I = 0; I != Size; ++I) {
      L = (L ^ P[I]) * Prime;
      H = (H ^ P[I]) * Prime;
    }
    Lo = L;
    Hi = H;
    Len += Size;
  }
  void add(std::string_view S) { add(S.data(), S.size()); }
};

} // namespace support
} // namespace pgsd

#endif // PGSD_SUPPORT_HASH_H
