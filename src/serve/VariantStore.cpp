//===-- serve/VariantStore.cpp - Persistent variant artifact store ---------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "serve/VariantStore.h"

#include "driver/Driver.h"
#include "verify/Verifier.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

using namespace pgsd;
using namespace pgsd::serve;

namespace fs = std::filesystem;

//===----------------------------------------------------------------------===//
// Content addressing
//===----------------------------------------------------------------------===//

uint64_t serve::fnv1a64(const void *Data, size_t Size, uint64_t Seed) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  uint64_t H = Seed;
  for (size_t I = 0; I != Size; ++I)
    H = (H ^ P[I]) * support::Fnv1aPair::Prime;
  return H;
}

namespace {

/// The store format version. Part of every key, so a future layout or
/// pipeline-semantics change re-keys the whole store instead of serving
/// stale artifacts.
constexpr const char *StoreVersion = "pgsd-store-v1";

constexpr const char *VariantMagic = "pgsd-variant-v1";
constexpr const char *BaselineMagic = "pgsd-baseline-v1";

/// Every key's material starts with the base
/// "<version>\0<printed MIR>\0<link fields>\0". The printed MIR carries
/// stamped profile counts, so a profile change re-keys. The module head
/// is the base up to the link fields; it prints the whole MIR.
std::string moduleHead(const mir::MModule &Baseline) {
  std::string M = StoreVersion;
  M += '\0';
  M += mir::print(Baseline);
  M += '\0';
  return M;
}

/// The link fields of the base material, with their terminator.
std::string linkMaterial(const codegen::LinkOptions &Link) {
  std::string M = std::to_string(Link.FunctionAlignment);
  M += Link.DiversifyStub ? "+stub" : "-stub";
  M += std::to_string(Link.StubNopProbability);
  M += std::to_string(Link.StubSeed);
  M += '\0';
  return M;
}

/// The finished key of a material whose streams reached \p S. Two
/// decorrelated FNV streams (distinct bases; the second also folds the
/// length) give a 128-bit address -- collision-free for any realistic
/// fleet size.
StoreKey keyOf(const KeyState &S) {
  StoreKey K;
  K.Lo = S.Lo;
  K.Hi = serve::fnv1a64(&S.Len, sizeof S.Len, S.Hi);
  return K;
}

/// The state after the module head of \p Baseline.
KeyState moduleKeyState(const mir::MModule &Baseline) {
  KeyState S;
  S.add(moduleHead(Baseline));
  return S;
}

/// The base state, continuing from the module head \p Module.
KeyState withLink(KeyState Module, const codegen::LinkOptions &Link) {
  Module.add(linkMaterial(Link));
  return Module;
}

void appendHex64(std::string &Out, uint64_t V) {
  static const char Digits[] = "0123456789abcdef";
  for (int Shift = 60; Shift >= 0; Shift -= 4)
    Out += Digits[(V >> Shift) & 0xf];
}

/// Serialization helpers for payload bodies: decimal numbers and
/// length-prefixed byte strings, newline-separated. Human-inspectable
/// and endian-independent; integrity comes from the header digest.
void putU64(std::string &Out, uint64_t V) {
  Out += std::to_string(V);
  Out += '\n';
}

void putI64(std::string &Out, int64_t V) {
  Out += std::to_string(V);
  Out += '\n';
}

void putBytes(std::string &Out, const std::string &S) {
  putU64(Out, S.size());
  Out += S;
  Out += '\n';
}

/// Parses the canonical decimal that std::to_string writes: one or more
/// digits, no sign, space or overflow. Entries are written only in that
/// form, so anything else is damage.
bool parseU64(std::string_view S, uint64_t &V) {
  if (S.empty())
    return false;
  V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    const uint64_t D = static_cast<uint64_t>(C - '0');
    if (V > (UINT64_MAX - D) / 10)
      return false;
    V = V * 10 + D;
  }
  return true;
}

/// Cursor over a payload body; every get reports failure instead of
/// asserting so a corrupted-but-digest-colliding body still degrades to
/// LoadStatus::Corrupt rather than undefined behaviour.
struct Cursor {
  const std::string &S;
  size_t Pos = 0;
  bool OK = true;

  bool getU64(uint64_t &V) {
    return getLine([&](std::string_view L) { return parseU64(L, V); });
  }

  bool getI64(int64_t &V) {
    return getLine([&](std::string_view L) {
      const bool Neg = !L.empty() && L[0] == '-';
      uint64_t M = 0;
      if (!parseU64(Neg ? L.substr(1) : L, M) ||
          M > static_cast<uint64_t>(INT64_MAX) + (Neg ? 1 : 0))
        return false;
      V = Neg ? static_cast<int64_t>(0 - M) : static_cast<int64_t>(M);
      return true;
    });
  }

  bool getBytes(std::string &V) {
    uint64_t N = 0;
    // N bytes and a newline must fit in what is left; written as a
    // difference (Pos <= S.size() always), so no N wraps the sum.
    if (!getU64(N) || N >= S.size() - Pos)
      return OK = false;
    V.assign(S, Pos, N);
    Pos += N;
    if (S[Pos] != '\n')
      return OK = false;
    ++Pos;
    return true;
  }

private:
  template <typename Parse> bool getLine(Parse P) {
    if (!OK)
      return false;
    size_t End = S.find('\n', Pos);
    if (End == std::string::npos)
      return OK = false;
    std::string_view Line(S.data() + Pos, End - Pos);
    Pos = End + 1;
    if (!P(Line))
      return OK = false;
    return true;
  }
};

std::string serializeRuns(const BaselineArtifact &A) {
  std::string Out;
  for (const auto &[Index, R] : A.Runs) {
    putU64(Out, Index);
    putU64(Out, R.Trapped ? 1 : 0);
    putU64(Out, static_cast<uint64_t>(R.Trap));
    putI64(Out, R.ExitCode);
    putU64(Out, R.Cycles10);
    putU64(Out, R.Instructions);
    putU64(Out, R.Checksum);
    putBytes(Out, R.TrapReason);
    putBytes(Out, R.Output);
  }
  return Out;
}

/// The fewest payload bytes one serialized run takes: seven one-digit
/// number lines and two empty byte strings ("0\n\n").
constexpr size_t MinRunBytes = 7 * 2 + 2 * 3;

/// Parses \p Count runs from \p Payload into \p Out (untouched on
/// failure). The digest covers the payload, not the header, so a forged
/// header can carry any count: it is bounded by the payload before
/// anything is reserved. Every field must fit the RunResult it fills.
bool deserializeRuns(const std::string &Payload, uint64_t Count,
                     BaselineArtifact &Out) {
  if (Count > Payload.size() / MinRunBytes)
    return false;
  Cursor C{Payload};
  std::vector<std::pair<uint32_t, mexec::RunResult>> Runs;
  Runs.reserve(Count);
  for (uint64_t I = 0; I != Count; ++I) {
    uint64_t Index = 0, Trapped = 0, Trap = 0, Cycles = 0, Instr = 0,
             Checksum = 0;
    int64_t Exit = 0;
    std::string Reason, Output;
    if (!C.getU64(Index) || !C.getU64(Trapped) || !C.getU64(Trap) ||
        !C.getI64(Exit) || !C.getU64(Cycles) || !C.getU64(Instr) ||
        !C.getU64(Checksum) || !C.getBytes(Reason) || !C.getBytes(Output))
      return false;
    // TrapKind::Cancelled is the last trap kind.
    if (Index > UINT32_MAX || Trapped > 1 ||
        Trap > static_cast<uint64_t>(mexec::TrapKind::Cancelled) ||
        Exit < INT32_MIN || Exit > INT32_MAX || Checksum > UINT32_MAX)
      return false;
    mexec::RunResult R;
    R.Trapped = Trapped != 0;
    R.Trap = static_cast<mexec::TrapKind>(Trap);
    R.ExitCode = static_cast<int32_t>(Exit);
    R.Cycles10 = Cycles;
    R.Instructions = Instr;
    R.Checksum = static_cast<uint32_t>(Checksum);
    R.TrapReason = std::move(Reason);
    R.Output = std::move(Output);
    Runs.emplace_back(static_cast<uint32_t>(Index), std::move(R));
  }
  if (C.Pos != Payload.size())
    return false;
  Out.Runs = std::move(Runs);
  return true;
}

/// Header line: "<magic> <keyhex> <field>... <size> <digesthex>\n".
std::string makeHeader(const char *Magic, const StoreKey &K,
                       const std::vector<uint64_t> &Fields,
                       const std::string &Payload) {
  std::string H = Magic;
  H += ' ';
  H += K.hex();
  for (uint64_t F : Fields) {
    H += ' ';
    H += std::to_string(F);
  }
  H += ' ';
  H += std::to_string(Payload.size());
  H += ' ';
  appendHex64(H, serve::fnv1a64(Payload.data(), Payload.size()));
  H += '\n';
  return H;
}

} // namespace

std::string StoreKey::hex() const {
  std::string Out;
  Out.reserve(32);
  appendHex64(Out, Hi);
  appendHex64(Out, Lo);
  return Out;
}

KeyState serve::baseKeyState(const driver::Program &P,
                             const codegen::LinkOptions &Link) {
  assert(P.KeyPrefixes && "serve call on a moved-from Program");
  return withLink(P.KeyPrefixes->stateFor(P.MIR, moduleKeyState), Link);
}

std::string serve::baseKeyMaterial(const mir::MModule &Baseline,
                                   const codegen::LinkOptions &Link) {
  return moduleHead(Baseline) + linkMaterial(Link);
}

StoreKey serve::makeVariantKey(const mir::MModule &Baseline,
                               const diversity::Pipeline &Pipe,
                               const diversity::DiversityOptions &D,
                               uint64_t Seed,
                               const codegen::LinkOptions &Link) {
  return makeVariantKey(withLink(moduleKeyState(Baseline), Link), Pipe, D,
                        Seed);
}

StoreKey serve::makeVariantKey(const std::string &BaseMaterial,
                               const diversity::Pipeline &Pipe,
                               const diversity::DiversityOptions &D,
                               uint64_t Seed) {
  KeyState Base;
  Base.add(BaseMaterial);
  return makeVariantKey(Base, Pipe, D, Seed);
}

StoreKey serve::makeVariantKey(const KeyState &Base,
                               const diversity::Pipeline &Pipe,
                               const diversity::DiversityOptions &D,
                               uint64_t Seed) {
  std::string M = Pipe.label();
  M += '\0';
  // Serialize every DiversityOptions field explicitly -- label() is a
  // human-facing summary and must not be trusted to discriminate.
  M += std::to_string(static_cast<unsigned>(D.Model));
  M += ':';
  M += std::to_string(D.PMin);
  M += ':';
  M += std::to_string(D.PMax);
  M += D.IncludeXchgNops ? ":x" : ":-";
  M += '\0';
  M += std::to_string(Seed);
  KeyState S = Base;
  S.add(M);
  return keyOf(S);
}

StoreKey
serve::makeBaselineKey(const mir::MModule &Baseline,
                       const codegen::LinkOptions &Link,
                       const std::vector<std::vector<int32_t>> &Battery,
                       uint64_t MaxSteps) {
  return makeBaselineKey(withLink(moduleKeyState(Baseline), Link), Battery,
                         MaxSteps);
}

StoreKey
serve::makeBaselineKey(const KeyState &Base,
                       const std::vector<std::vector<int32_t>> &Battery,
                       uint64_t MaxSteps) {
  std::string M = "baseline";
  M += '\0';
  M += std::to_string(MaxSteps);
  for (const std::vector<int32_t> &Input : Battery) {
    // Length-prefixed, so {{1, 2}} and {{1}, {2}} key apart.
    M += '\0';
    M += std::to_string(Input.size());
    for (int32_t V : Input) {
      M += ':';
      M += std::to_string(V);
    }
  }
  KeyState S = Base;
  S.add(M);
  return keyOf(S);
}

StoreKey serve::makeBaselineKey(const mir::MModule &Baseline,
                                const codegen::LinkOptions &Link) {
  return makeBaselineKey(Baseline, Link, verify::defaultInputBattery(),
                         verify::VerifyOptions().MaxSteps);
}

//===----------------------------------------------------------------------===//
// VariantStore
//===----------------------------------------------------------------------===//

VariantStore::VariantStore(std::string RootDir) : Root(std::move(RootDir)) {}

bool VariantStore::open(std::string *Error) {
  std::error_code EC;
  fs::create_directories(Root, EC);
  if (EC) {
    if (Error)
      *Error = "cannot create store '" + Root + "': " + EC.message();
    return false;
  }
  // Probe writability now, so an unwritable store surfaces at startup as
  // a file-I/O error instead of as per-request publish failures later.
  std::string Probe = Root + "/.probe";
  {
    std::ofstream Out(Probe, std::ios::binary | std::ios::trunc);
    Out << StoreVersion;
    Out.flush();
    if (!Out.good()) {
      if (Error)
        *Error = "store '" + Root + "' is not writable";
      return false;
    }
  }
  fs::remove(Probe, EC);
  return true;
}

std::string VariantStore::entryPath(const StoreKey &K,
                                    const char *Suffix) const {
  return Root + "/" + K.hex() + Suffix;
}

/// Reads and validates one entry file. On success \p Payload holds the
/// body and \p Header the numeric fields between key and size.
LoadStatus VariantStore::loadFile(const std::string &Path, const StoreKey &K,
                                  const char *Magic, std::string &Payload,
                                  std::vector<uint64_t> &Header) const {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return LoadStatus::Miss;
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string Contents = SS.str();

  auto Corrupt = [&] {
    // A torn entry must never be served twice: unlink it so the next
    // request takes the clean miss -> recompile -> republish path.
    std::error_code EC;
    fs::remove(Path, EC);
    return LoadStatus::Corrupt;
  };

  size_t Eol = Contents.find('\n');
  if (Eol == std::string::npos || Eol > 512)
    return Corrupt();
  std::istringstream Line(Contents.substr(0, Eol));
  std::string Tag, KeyHex;
  if (!(Line >> Tag >> KeyHex) || Tag != Magic || KeyHex != K.hex())
    return Corrupt();
  std::vector<std::string> Rest;
  for (std::string Tok; Line >> Tok;)
    Rest.push_back(Tok);
  if (Rest.size() < 2)
    return Corrupt();

  std::string DigestHex = Rest.back();
  Rest.pop_back();
  Header.clear();
  uint64_t Size = 0;
  for (size_t I = 0; I != Rest.size(); ++I) {
    uint64_t V = 0;
    if (!parseU64(Rest[I], V))
      return Corrupt();
    if (I + 1 == Rest.size())
      Size = V;
    else
      Header.push_back(V);
  }

  Payload = Contents.substr(Eol + 1);
  if (Payload.size() != Size)
    return Corrupt(); // truncated or padded body
  std::string Expect;
  appendHex64(Expect, fnv1a64(Payload.data(), Payload.size()));
  if (DigestHex != Expect)
    return Corrupt(); // bit rot / torn write
  return LoadStatus::Hit;
}

bool VariantStore::publishFile(const std::string &Path,
                               const std::string &Contents,
                               std::string *Error) const {
  // Unique temp name per (process, publish): a crashed publish leaves
  // only an orphaned temp file, never a live-key entry.
  static std::atomic<uint64_t> TempCounter{0};
  std::string Temp = Path + ".tmp." +
#ifdef _WIN32
                     std::to_string(_getpid()) +
#else
                     std::to_string(getpid()) +
#endif
                     "." + std::to_string(TempCounter.fetch_add(1));
  {
    std::ofstream Out(Temp, std::ios::binary | std::ios::trunc);
    if (Out)
      Out << Contents;
    Out.flush();
    if (!Out.good()) {
      if (Error)
        *Error = "cannot write '" + Temp + "'";
      std::error_code EC;
      fs::remove(Temp, EC);
      return false;
    }
  }
  std::error_code EC;
  fs::rename(Temp, Path, EC);
  if (EC) {
    if (Error)
      *Error = "cannot publish '" + Path + "': " + EC.message();
    fs::remove(Temp, EC);
    return false;
  }
  return true;
}

LoadStatus VariantStore::load(const StoreKey &K, StoredVariant &Out) const {
  std::string Payload;
  std::vector<uint64_t> Header;
  std::string Path = entryPath(K, ".variant");
  LoadStatus S = loadFile(Path, K, VariantMagic, Payload, Header);
  if (S == LoadStatus::Hit &&
      (Header.size() != 3 || Header[2] > UINT32_MAX)) {
    std::error_code EC;
    fs::remove(Path, EC); // malformed fields: treat like a torn entry
    S = LoadStatus::Corrupt;
  }
  switch (S) {
  case LoadStatus::Miss:
    Misses.fetch_add(1, std::memory_order_relaxed);
    return S;
  case LoadStatus::Corrupt:
    Corruptions.fetch_add(1, std::memory_order_relaxed);
    return S;
  case LoadStatus::Hit:
    break;
  }
  Out.Seed = Header[0];
  Out.SeedUsed = Header[1];
  Out.Attempts = static_cast<uint32_t>(Header[2]);
  Out.Text.assign(Payload.begin(), Payload.end());
  Hits.fetch_add(1, std::memory_order_relaxed);
  return LoadStatus::Hit;
}

bool VariantStore::publish(const StoreKey &K, const StoredVariant &V,
                           std::string *Error) const {
  std::string Payload(V.Text.begin(), V.Text.end());
  std::string Contents =
      makeHeader(VariantMagic, K, {V.Seed, V.SeedUsed, V.Attempts}, Payload);
  Contents += Payload;
  if (!publishFile(entryPath(K, ".variant"), Contents, Error))
    return false;
  Publishes.fetch_add(1, std::memory_order_relaxed);
  return true;
}

LoadStatus VariantStore::loadBaseline(const StoreKey &K,
                                      BaselineArtifact &Out) const {
  std::string Payload;
  std::vector<uint64_t> Header;
  std::string Path = entryPath(K, ".baseline");
  LoadStatus S = loadFile(Path, K, BaselineMagic, Payload, Header);
  if (S == LoadStatus::Hit &&
      (Header.size() != 1 || !deserializeRuns(Payload, Header[0], Out))) {
    std::error_code EC;
    fs::remove(Path, EC); // body failed to parse: torn entry
    S = LoadStatus::Corrupt;
  }
  switch (S) {
  case LoadStatus::Miss:
    Misses.fetch_add(1, std::memory_order_relaxed);
    break;
  case LoadStatus::Corrupt:
    Corruptions.fetch_add(1, std::memory_order_relaxed);
    break;
  case LoadStatus::Hit:
    Hits.fetch_add(1, std::memory_order_relaxed);
    break;
  }
  return S;
}

bool VariantStore::publishBaseline(const StoreKey &K,
                                   const BaselineArtifact &A,
                                   std::string *Error) const {
  std::string Payload = serializeRuns(A);
  std::string Contents = makeHeader(BaselineMagic, K, {A.Runs.size()}, Payload);
  Contents += Payload;
  if (!publishFile(entryPath(K, ".baseline"), Contents, Error))
    return false;
  Publishes.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool VariantStore::contains(const StoreKey &K) const {
  std::error_code EC;
  return fs::exists(entryPath(K, ".variant"), EC);
}
