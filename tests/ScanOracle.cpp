//===-- tests/ScanOracle.cpp - Per-offset reference gadget scanner --------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "ScanOracle.h"

#include <map>
#include <utility>

using namespace pgsd;
using namespace pgsd::gadget;

std::vector<Gadget> reference::scanGadgets(const uint8_t *Text, size_t Size,
                                           const ScanOptions &Opts) {
  std::vector<Gadget> Gadgets;
  std::vector<std::pair<uint32_t, uint8_t>> Instrs;
  Instrs.reserve(Opts.MaxInstrs);
  for (size_t Offset = 0; Offset < Size; ++Offset) {
    if (!gadget::decodeGadgetAt(Text, Size, static_cast<uint32_t>(Offset),
                                Opts, Instrs))
      continue;
    Gadget G;
    G.Offset = static_cast<uint32_t>(Offset);
    const auto &Last = Instrs.back();
    G.Length = Last.first + Last.second - G.Offset;
    G.NumInstrs = static_cast<uint8_t>(Instrs.size());
    Gadgets.push_back(G);
  }
  return Gadgets;
}

std::vector<SurvivingGadget>
reference::survivingGadgets(const std::vector<uint8_t> &Original,
                            const std::vector<uint8_t> &Diversified,
                            const ScanOptions &Opts) {
  std::vector<SurvivingGadget> Survivors;
  std::vector<std::pair<uint32_t, uint8_t>> Scratch;
  Scratch.reserve(Opts.MaxInstrs);
  for (const Gadget &G :
       reference::scanGadgets(Original.data(), Original.size(), Opts)) {
    uint64_t HashA, HashB;
    unsigned NonNopA, NonNopB;
    if (!gadget::normalizedGadgetHash(Original.data(), Original.size(),
                                      G.Offset, Opts, HashA, NonNopA,
                                      Scratch))
      continue;
    if (G.Offset >= Diversified.size())
      continue;
    if (!gadget::normalizedGadgetHash(Diversified.data(), Diversified.size(),
                                      G.Offset, Opts, HashB, NonNopB,
                                      Scratch))
      continue;
    if (HashA == HashB)
      Survivors.push_back({G.Offset, HashA});
  }
  return Survivors;
}

std::vector<uint64_t>
reference::gadgetsInAtLeast(const std::vector<std::vector<uint8_t>> &Versions,
                            const std::vector<unsigned> &Thresholds,
                            const ScanOptions &Opts) {
  // Each version contributes at most one occurrence per identity (one
  // gadget per start offset).
  std::map<std::pair<uint32_t, uint64_t>, unsigned> Occurrences;
  std::vector<std::pair<uint32_t, uint8_t>> Scratch;
  Scratch.reserve(Opts.MaxInstrs);
  for (const std::vector<uint8_t> &Text : Versions) {
    for (const Gadget &G :
         reference::scanGadgets(Text.data(), Text.size(), Opts)) {
      uint64_t Hash;
      unsigned NonNop;
      if (gadget::normalizedGadgetHash(Text.data(), Text.size(), G.Offset,
                                       Opts, Hash, NonNop, Scratch))
        ++Occurrences[{G.Offset, Hash}];
    }
  }
  std::vector<uint64_t> Counts;
  for (unsigned Threshold : Thresholds) {
    uint64_t N = 0;
    for (const auto &E : Occurrences)
      N += E.second >= Threshold;
    Counts.push_back(N);
  }
  return Counts;
}
