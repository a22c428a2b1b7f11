//===-- tests/ScanOracle.h - Per-offset reference gadget scanner -*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference oracle for the gadget scanner (gadget/Scanner.h): the
/// paper's Section 5.2 queries computed the naive way, by decoding afresh
/// from every byte offset with gadget::decodeGadgetAt and hashing with
/// gadget::normalizedGadgetHash -- O(Size x MaxInstrs) decodes per image.
/// It is the executable specification the decode-once scanner is held
/// to: ScannerParityTest compares the two on every query, and
/// bench/gadget_throughput times the scanner against it and refuses to
/// publish numbers when they disagree.
///
/// The oracle ignores ScanOptions::Incremental and ScanOptions::Jobs; it
/// always runs one fresh serial pass per image.
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_TESTS_SCANORACLE_H
#define PGSD_TESTS_SCANORACLE_H

#include "gadget/Scanner.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pgsd {
namespace gadget {
namespace reference {

/// Every gadget start offset in \p Text, in offset order.
std::vector<Gadget> scanGadgets(const uint8_t *Text, size_t Size,
                                const ScanOptions &Opts = ScanOptions());

/// The paper's Survivor comparison over one (original, diversified) pair:
/// gadgets at identical offsets whose NOP-normalized hashes are equal.
std::vector<SurvivingGadget>
survivingGadgets(const std::vector<uint8_t> &Original,
                 const std::vector<uint8_t> &Diversified,
                 const ScanOptions &Opts = ScanOptions());

/// For each threshold in \p Thresholds, how many gadget identities
/// (offset, normalized hash) occur in at least that many \p Versions.
std::vector<uint64_t>
gadgetsInAtLeast(const std::vector<std::vector<uint8_t>> &Versions,
                 const std::vector<unsigned> &Thresholds,
                 const ScanOptions &Opts = ScanOptions());

} // namespace reference
} // namespace gadget
} // namespace pgsd

#endif // PGSD_TESTS_SCANORACLE_H
