//===-- tests/StoreFuzzTest.cpp - Serve store mutation fuzzing --------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// Feeds seeded mutants (tests/StoreMutator.h) of real variant and
// baseline entries to VariantStore::load and loadBaseline. The store is
// where the daemon reads bytes it did not just write, so every mutant
// must end as a Hit, a Miss or a Corrupt: no exception, crash or hang
// (the ASan/UBSan job runs this suite). A Corrupt entry is unlinked. A
// Hit carries in-range fields, and republishing it loads back the same
// values, so the parser accepts nothing the serializer cannot express.
// A failure names its seed and mutant number and prints the mutant.
//
//===----------------------------------------------------------------------===//

#include "serve/VariantStore.h"

#include "StoreMutator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

namespace fs = std::filesystem;
using namespace pgsd;

namespace {

constexpr unsigned MutantsPerSeed = 1000;

std::string readFile(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

void writeFile(const fs::path &P, const std::string &Contents) {
  std::ofstream Out(P, std::ios::binary | std::ios::trunc);
  Out << Contents;
}

/// Printable form of a mutant for failure messages.
std::string show(const std::string &S) {
  std::string Out;
  for (unsigned char C : S.substr(0, 400)) {
    if (C == '\n')
      Out += "\\n";
    else if (C < 0x20 || C >= 0x7f) {
      char Buf[5];
      std::snprintf(Buf, sizeof Buf, "\\x%02x", C);
      Out += Buf;
    } else {
      Out += static_cast<char>(C);
    }
  }
  return Out;
}

class StoreFuzz : public ::testing::TestWithParam<uint64_t> {
protected:
  void SetUp() override {
    Dir = fs::temp_directory_path() /
          ("pgsd-storefuzz-" + std::to_string(::getpid()) + "-" +
           std::to_string(GetParam()));
    std::error_code EC;
    fs::remove_all(Dir, EC);
    Store = std::make_unique<serve::VariantStore>(Dir.string());
    ASSERT_TRUE(Store->open());
  }

  void TearDown() override {
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }

  fs::path entry(const serve::StoreKey &K, const char *Suffix) const {
    return Dir / (K.hex() + Suffix);
  }

  fs::path Dir;
  std::unique_ptr<serve::VariantStore> Store;
};

/// Loads \p Mutant as the entry of \p K with \p Load and checks the
/// outcome contract; returns the status (Corrupt when Load threw).
template <typename LoadFn>
serve::LoadStatus loadMutant(const fs::path &Path, const std::string &Mutant,
                             LoadFn Load) {
  writeFile(Path, Mutant);
  serve::LoadStatus S = serve::LoadStatus::Corrupt;
  try {
    S = Load();
  } catch (const std::exception &E) {
    ADD_FAILURE() << "load threw: " << E.what();
    return S;
  }
  EXPECT_TRUE(S == serve::LoadStatus::Hit || S == serve::LoadStatus::Miss ||
              S == serve::LoadStatus::Corrupt);
  if (S == serve::LoadStatus::Corrupt) {
    EXPECT_FALSE(fs::exists(Path)) << "a corrupt entry must be unlinked";
  }
  return S;
}

} // namespace

TEST_P(StoreFuzz, VariantEntriesLoadCleanly) {
  serve::StoreKey K{0xfeed, GetParam()};
  serve::StoredVariant V;
  // Image-like bytes, newlines and NULs included.
  for (unsigned I = 0; I != 300; ++I)
    V.Text.push_back(static_cast<uint8_t>(I * 37 + (I % 7 == 0 ? 10 : 0)));
  V.Seed = 1234567;
  V.SeedUsed = ~0ull;
  V.Attempts = 3;
  ASSERT_TRUE(Store->publish(K, V));
  const fs::path Path = entry(K, ".variant");
  const std::string Pristine = readFile(Path);

  StoreMutator Mut(GetParam());
  unsigned Hits = 0;
  for (unsigned N = 0; N != MutantsPerSeed; ++N) {
    const std::string Mutant = Mut.mutate(Pristine);
    SCOPED_TRACE("seed " + std::to_string(GetParam()) + " mutant " +
                 std::to_string(N) + ": " + show(Mutant));
    serve::StoredVariant Out;
    serve::LoadStatus S =
        loadMutant(Path, Mutant, [&] { return Store->load(K, Out); });
    if (S != serve::LoadStatus::Hit)
      continue;
    ++Hits;
    // The served bytes are the payload: never more than the file held.
    EXPECT_LE(Out.Text.size(), Mutant.size());
    serve::StoreKey Again{K.Hi + 1, K.Lo};
    ASSERT_TRUE(Store->publish(Again, Out));
    serve::StoredVariant Back;
    ASSERT_EQ(Store->load(Again, Back), serve::LoadStatus::Hit);
    EXPECT_EQ(Back.Text, Out.Text);
    EXPECT_EQ(Back.Seed, Out.Seed);
    EXPECT_EQ(Back.SeedUsed, Out.SeedUsed);
    EXPECT_EQ(Back.Attempts, Out.Attempts);
    if (HasFailure())
      break;
  }
  // Payload edits that re-digest keep a well-formed header: some
  // mutants must get past every check, or the parsers went untested.
  EXPECT_GT(Hits, 0u);
}

TEST_P(StoreFuzz, BaselineEntriesLoadCleanly) {
  serve::StoreKey K{0xbeef, GetParam()};
  serve::BaselineArtifact A;
  mexec::RunResult Clean;
  Clean.ExitCode = -3;
  Clean.Cycles10 = 123456789;
  Clean.Instructions = 4242;
  Clean.Checksum = 0xdeadbeef;
  Clean.Output = "1\n22\n333\n";
  A.Runs.emplace_back(0, Clean);
  mexec::RunResult Trap;
  Trap.Trapped = true;
  Trap.Trap = mexec::TrapKind::DivideByZero;
  Trap.TrapReason = "integer division by zero (#DE)";
  A.Runs.emplace_back(3, Trap);
  A.Runs.emplace_back(7, mexec::RunResult());
  ASSERT_TRUE(Store->publishBaseline(K, A));
  const fs::path Path = entry(K, ".baseline");
  const std::string Pristine = readFile(Path);

  StoreMutator Mut(GetParam() * 0x9e3779b97f4a7c15ull + 1);
  unsigned Hits = 0;
  for (unsigned N = 0; N != MutantsPerSeed; ++N) {
    const std::string Mutant = Mut.mutate(Pristine);
    SCOPED_TRACE("seed " + std::to_string(GetParam()) + " mutant " +
                 std::to_string(N) + ": " + show(Mutant));
    serve::BaselineArtifact Out;
    serve::LoadStatus S =
        loadMutant(Path, Mutant, [&] { return Store->loadBaseline(K, Out); });
    if (S != serve::LoadStatus::Hit)
      continue;
    ++Hits;
    EXPECT_LE(Out.Runs.size(), Mutant.size());
    for (const auto &Run : Out.Runs) {
      const mexec::RunResult &R = Run.second;
      EXPECT_LE(static_cast<unsigned>(R.Trap),
                static_cast<unsigned>(mexec::TrapKind::Cancelled));
      EXPECT_LE(R.TrapReason.size() + R.Output.size(), Mutant.size());
    }
    serve::StoreKey Again{K.Hi + 1, K.Lo};
    ASSERT_TRUE(Store->publishBaseline(Again, Out));
    serve::BaselineArtifact Back;
    ASSERT_EQ(Store->loadBaseline(Again, Back), serve::LoadStatus::Hit);
    ASSERT_EQ(Back.Runs.size(), Out.Runs.size());
    for (size_t I = 0; I != Out.Runs.size(); ++I) {
      const mexec::RunResult &X = Out.Runs[I].second;
      const mexec::RunResult &Y = Back.Runs[I].second;
      EXPECT_EQ(Back.Runs[I].first, Out.Runs[I].first);
      EXPECT_EQ(X.Trapped, Y.Trapped);
      EXPECT_EQ(X.Trap, Y.Trap);
      EXPECT_EQ(X.ExitCode, Y.ExitCode);
      EXPECT_EQ(X.Cycles10, Y.Cycles10);
      EXPECT_EQ(X.Instructions, Y.Instructions);
      EXPECT_EQ(X.Checksum, Y.Checksum);
      EXPECT_EQ(X.TrapReason, Y.TrapReason);
      EXPECT_EQ(X.Output, Y.Output);
    }
    if (HasFailure())
      break;
  }
  EXPECT_GT(Hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreFuzz, ::testing::Range<uint64_t>(0, 8));
