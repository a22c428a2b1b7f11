//===-- tests/StoreMutator.h - Seeded serve-store entry mutator -*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded mutator of serve store entry files (serve/VariantStore.h),
/// used by the store fuzz suite (tests/StoreFuzzTest.cpp). An entry is
/// "<magic> <keyhex> <field>... <size> <digesthex>\n<payload>"; the
/// digest covers the payload only. Two kinds of edit:
///
///  - raw edits: byte flips, truncations, insertions, deletions and
///    duplicated ranges anywhere in the file. Almost all of them are
///    caught by the header syntax or the payload digest;
///  - structure-aware edits: a header token or a payload line replaced by
///    an awkward value (0, 2^32, 2^64 - 1, signs, junk), or a line
///    dropped or repeated, after which the size and digest are rewritten
///    to match. These reach the header field and body parsers, which
///    must reject what the digest cannot.
///
/// The RNG is pgsd::Rng (bit-exact across toolchains), so a seed
/// reproduces the same mutants everywhere.
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_TESTS_STOREMUTATOR_H
#define PGSD_TESTS_STOREMUTATOR_H

#include "serve/VariantStore.h"
#include "support/Rng.h"

#include <cstdio>
#include <string>
#include <vector>

namespace pgsd {

/// Produces mutants of one store entry file per call.
class StoreMutator {
public:
  explicit StoreMutator(uint64_t Seed) : Gen(Seed) {}

  /// One to three stacked edits of \p Entry.
  std::string mutate(std::string Entry) {
    unsigned Edits = 1 + static_cast<unsigned>(Gen.nextBelow(3));
    for (unsigned E = 0; E != Edits; ++E) {
      switch (Gen.nextBelow(4)) {
      case 0:
        Entry = rawEdit(std::move(Entry));
        break;
      case 1:
        Entry = headerEdit(Entry);
        break;
      default:
        Entry = payloadEdit(Entry);
        break;
      }
    }
    return Entry;
  }

private:
  /// Values a parser of decimal fields must survive.
  std::string awkward() {
    static const char *const Values[] = {
        "0", "1", "2", "7", "8", "255", "256", "-1", "-0", "+1", " 1",
        "1 ", "", "x", "1x", "0x10", "007", "2147483647", "2147483648",
        "-2147483648", "-2147483649", "4294967295", "4294967296",
        "100000000000", "9223372036854775807", "9223372036854775808",
        "-9223372036854775808", "-9223372036854775809",
        "18446744073709551615", "18446744073709551616",
        "99999999999999999999999"};
    constexpr size_t N = sizeof(Values) / sizeof(Values[0]);
    if (Gen.nextBernoulli(0.2))
      return std::to_string(Gen.next() >> Gen.nextBelow(64));
    return Values[Gen.nextBelow(N)];
  }

  size_t pos(size_t Size) { return Size ? Gen.nextBelow(Size) : 0; }

  std::string rawEdit(std::string E) {
    switch (Gen.nextBelow(5)) {
    case 0: { // flip bits in one to four bytes
      if (E.empty())
        break;
      for (unsigned N = 1 + Gen.nextBelow(4); N; --N)
        E[pos(E.size())] ^= static_cast<char>(1 + Gen.nextBelow(255));
      break;
    }
    case 1: // truncate
      E.resize(pos(E.size()));
      break;
    case 2: { // insert a few bytes, favouring the syntax's own
      static const char Alphabet[] = "0123456789 \n-x\x00\xff";
      std::string Ins;
      for (unsigned N = 1 + Gen.nextBelow(8); N; --N)
        Ins += Alphabet[Gen.nextBelow(sizeof(Alphabet) - 1)];
      E.insert(pos(E.size() + 1), Ins);
      break;
    }
    case 3: { // delete a range
      size_t At = pos(E.size());
      E.erase(At, 1 + Gen.nextBelow(16));
      break;
    }
    default: { // duplicate a range
      size_t At = pos(E.size());
      std::string Dup = E.substr(At, 1 + Gen.nextBelow(32));
      E.insert(pos(E.size() + 1), Dup);
      break;
    }
    }
    return E;
  }

  /// Splits \p E into its header tokens (minus size and digest) and its
  /// payload; false when there is no header line to speak of.
  static bool split(const std::string &E, std::vector<std::string> &Head,
                    std::string &Payload) {
    size_t Eol = E.find('\n');
    if (Eol == std::string::npos)
      return false;
    Head.clear();
    size_t At = 0;
    while (At < Eol) {
      size_t Sp = E.find(' ', At);
      if (Sp == std::string::npos || Sp > Eol)
        Sp = Eol;
      Head.push_back(E.substr(At, Sp - At));
      At = Sp + 1;
    }
    if (Head.size() < 2)
      return false;
    Head.resize(Head.size() - 2);
    Payload = E.substr(Eol + 1);
    return true;
  }

  /// Rebuilds an entry whose size and digest match \p Payload.
  static std::string join(const std::vector<std::string> &Head,
                          const std::string &Payload) {
    std::string E;
    for (const std::string &T : Head)
      E += T + ' ';
    char Digest[17];
    std::snprintf(Digest, sizeof Digest, "%016llx",
                  static_cast<unsigned long long>(
                      serve::fnv1a64(Payload.data(), Payload.size())));
    E += std::to_string(Payload.size()) + ' ' + Digest + '\n';
    return E + Payload;
  }

  std::string headerEdit(const std::string &E) {
    std::vector<std::string> Head;
    std::string Payload;
    if (!split(E, Head, Payload) || Head.size() < 2)
      return rawEdit(E);
    switch (Gen.nextBelow(6)) {
    case 0: // drop a field
      if (Head.size() > 2)
        Head.erase(Head.begin() + 2 + pos(Head.size() - 2));
      break;
    case 1: // add a field
      Head.insert(Head.begin() + 2 + pos(Head.size() - 1), awkward());
      break;
    case 2: { // damage the magic or the key
      std::string &T = Head[pos(2)];
      if (!T.empty())
        T[pos(T.size())] ^= 1;
      break;
    }
    default: // replace a field
      if (Head.size() > 2)
        Head[2 + pos(Head.size() - 2)] = awkward();
      break;
    }
    return join(Head, Payload);
  }

  std::string payloadEdit(const std::string &E) {
    std::vector<std::string> Head;
    std::string Payload;
    if (!split(E, Head, Payload))
      return rawEdit(E);
    std::vector<std::string> Lines;
    for (size_t At = 0; At <= Payload.size();) {
      size_t Eol = Payload.find('\n', At);
      if (Eol == std::string::npos)
        Eol = Payload.size();
      Lines.push_back(Payload.substr(At, Eol - At));
      At = Eol + 1;
    }
    const size_t L = pos(Lines.size());
    switch (Gen.nextBelow(5)) {
    case 0:
      Lines.erase(Lines.begin() + L);
      break;
    case 1:
      Lines.insert(Lines.begin() + L, Lines[L]);
      break;
    case 2:
      Lines.insert(Lines.begin() + L, awkward());
      break;
    case 3:
      Payload = rawEdit(Payload);
      return join(Head, Payload);
    default:
      Lines[L] = awkward();
      break;
    }
    Payload.clear();
    for (size_t I = 0; I != Lines.size(); ++I)
      Payload += (I ? "\n" : "") + Lines[I];
    return join(Head, Payload);
  }

  Rng Gen;
};

} // namespace pgsd

#endif // PGSD_TESTS_STOREMUTATOR_H
