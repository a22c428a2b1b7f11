//===-- tests/ServeTest.cpp - Serving daemon tests ---------------*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the `pgsdc serve` subsystem: content-addressed store keying
/// and round trips, corruption self-healing (crash recovery), restart
/// resume from cache hits, baseline prewarming, deterministic admission
/// shedding, and the distinct-variant serving contract.
///
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "serve/Admission.h"
#include "serve/Server.h"
#include "serve/VariantStore.h"
#include "support/Statistics.h"
#include "support/ThreadPool.h"
#include "verify/BaselineCache.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

namespace fs = std::filesystem;
using namespace pgsd;

namespace {

/// Fixture: one compiled, profile-stamped workload and a private store
/// directory per test (ctest may run suites in parallel).
class ServeTest : public ::testing::Test {
protected:
  void SetUp() override {
    const workloads::Workload &W = workloads::specSuite().front();
    P = driver::compileProgram(W.Source, W.Name);
    ASSERT_TRUE(P.ok());
    ASSERT_TRUE(driver::profileAndStamp(P, W.TrainInput));
    Train = W.TrainInput;
    const ::testing::TestInfo *Info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    Dir = fs::temp_directory_path() /
          ("pgsd-serve-" + std::to_string(::getpid()) + "-" + Info->name());
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }

  void TearDown() override {
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }

  /// Options shared by the serve-loop tests: the private store, the
  /// paper's profiled model, and a single-input battery for speed.
  serve::ServeOptions baseOptions() const {
    serve::ServeOptions O;
    O.StoreDir = Dir.string();
    O.Diversity = diversity::DiversityOptions::profiled(
        diversity::ProbabilityModel::Log, 0.0, 0.3);
    O.Verify.InputBattery = {Train};
    O.Jobs = 2;
    return O;
  }

  /// The on-disk path of the variant entry for \p Seed under
  /// baseOptions() -- what the crash-recovery tests corrupt.
  fs::path variantPath(const serve::ServeOptions &O, uint64_t Seed) const {
    serve::StoreKey K =
        serve::makeVariantKey(P.MIR, O.Pipe, O.Diversity, Seed, O.Link);
    return Dir / (K.hex() + ".variant");
  }

  driver::Program P;
  std::vector<int32_t> Train;
  fs::path Dir;
};

//===----------------------------------------------------------------------===//
// Store keying
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, KeyDiscriminatesEveryInput) {
  diversity::Pipeline Nop;
  diversity::DiversityOptions D = diversity::DiversityOptions::profiled(
      diversity::ProbabilityModel::Log, 0.0, 0.3);
  codegen::LinkOptions Link;

  serve::StoreKey Base = serve::makeVariantKey(P.MIR, Nop, D, 7, Link);
  EXPECT_EQ(Base, serve::makeVariantKey(P.MIR, Nop, D, 7, Link))
      << "keying must be deterministic";

  // Seed.
  EXPECT_FALSE(Base == serve::makeVariantKey(P.MIR, Nop, D, 8, Link));

  // Diversity budget.
  diversity::DiversityOptions D2 = D;
  D2.PMax = 0.5;
  EXPECT_FALSE(Base == serve::makeVariantKey(P.MIR, Nop, D2, 7, Link));

  // Pipeline.
  diversity::Pipeline Wide(std::vector<diversity::TransformKind>{
      diversity::TransformKind::Nop, diversity::TransformKind::Shift});
  EXPECT_FALSE(Base == serve::makeVariantKey(P.MIR, Wide, D, 7, Link));

  // The baseline artifact never collides with a variant.
  serve::StoreKey BK = serve::makeBaselineKey(P.MIR, Link);
  EXPECT_FALSE(Base == BK);

  // Precomputed key material derives identical keys.
  std::string Material = serve::baseKeyMaterial(P.MIR, Link);
  EXPECT_EQ(Base, serve::makeVariantKey(Material, Nop, D, 7));
}

TEST_F(ServeTest, KeyIncludesProfile) {
  // The profile counts are stamped into the MIR and printed into the key
  // material, so re-profiling with a different train input re-keys.
  diversity::Pipeline Nop;
  diversity::DiversityOptions D;
  codegen::LinkOptions Link;
  serve::StoreKey Before = serve::makeVariantKey(P.MIR, Nop, D, 1, Link);

  const workloads::Workload &W = workloads::specSuite().front();
  driver::Program Q = driver::compileProgram(W.Source, W.Name);
  ASSERT_TRUE(Q.ok());
  std::vector<int32_t> Other = W.TrainInput;
  ASSERT_FALSE(Other.empty());
  Other[0] = Other[0] / 2 + 1;
  ASSERT_TRUE(driver::profileAndStamp(Q, Other));
  serve::StoreKey After = serve::makeVariantKey(Q.MIR, Nop, D, 1, Link);
  EXPECT_FALSE(Before == After);
}

TEST_F(ServeTest, GoldenKeysPinStoreCompatibility) {
  // Keys of one fixed program and fixed options, as the store has
  // always derived them. An entry written by an older build is found
  // only while these hold: a change that moves them must bump the store
  // version instead of silently orphaning every stored artifact.
  ASSERT_EQ(P.Name, "470.lbm");
  diversity::Pipeline Nop;
  diversity::Pipeline All(std::vector<diversity::TransformKind>{
      diversity::TransformKind::Nop, diversity::TransformKind::Shift,
      diversity::TransformKind::Sched, diversity::TransformKind::Regs});
  diversity::DiversityOptions D = diversity::DiversityOptions::profiled(
      diversity::ProbabilityModel::Log, 0.0, 0.3);
  codegen::LinkOptions Link;
  codegen::LinkOptions Stub;
  Stub.DiversifyStub = true;
  EXPECT_EQ(serve::makeVariantKey(P.MIR, Nop, D, 7, Link).hex(),
            "2a1edd2324345a080c822ee2ec671c4d");
  EXPECT_EQ(serve::makeVariantKey(P.MIR, All,
                                  diversity::DiversityOptions::uniform(0.5),
                                  7, Stub)
                .hex(),
            "d8fba5a1937dfdbb92c2b3f325baae53");
  EXPECT_EQ(serve::makeBaselineKey(P.MIR, Link).hex(),
            "29cddc5bf9f6495409e0643257198978");
  EXPECT_EQ(serve::makeBaselineKey(P.MIR, Stub).hex(),
            "0e27301d17e00406bec1434e81dee062");
}

TEST_F(ServeTest, BaseStateKeysMatchWholeMaterialKeys) {
  // A key continued from the base state must equal the key hashed from
  // the whole material in one pass, for every kind of suffix.
  diversity::Pipeline Nop;
  diversity::Pipeline All(std::vector<diversity::TransformKind>{
      diversity::TransformKind::Nop, diversity::TransformKind::Shift,
      diversity::TransformKind::Sched, diversity::TransformKind::Regs});
  codegen::LinkOptions Stub;
  Stub.DiversifyStub = true;
  Stub.StubSeed = 9;
  for (const codegen::LinkOptions &Link : {codegen::LinkOptions(), Stub}) {
    const std::string Material = serve::baseKeyMaterial(P.MIR, Link);
    const serve::KeyState Base = serve::baseKeyState(P, Link);
    EXPECT_EQ(Base.Len, Material.size());
    for (const diversity::Pipeline *Pipe : {&Nop, &All})
      for (const diversity::DiversityOptions &D :
           {diversity::DiversityOptions::uniform(0.5),
            diversity::DiversityOptions::profiled(
                diversity::ProbabilityModel::Log, 0.1, 0.4)})
        for (uint64_t Seed : {0ull, 1ull, 77ull, ~0ull}) {
          serve::StoreKey Whole =
              serve::makeVariantKey(Material, *Pipe, D, Seed);
          EXPECT_EQ(Whole, serve::makeVariantKey(Base, *Pipe, D, Seed));
          EXPECT_EQ(Whole,
                    serve::makeVariantKey(P.MIR, *Pipe, D, Seed, Link));
        }
    EXPECT_EQ(serve::makeBaselineKey(Base, {{1, 2}, {}}, 99),
              serve::makeBaselineKey(P.MIR, Link, {{1, 2}, {}}, 99));
  }
}

TEST_F(ServeTest, ServeCallsPrintTheProgramOncePerDigest) {
  serve::ServeOptions O = baseOptions();
  O.Requests = 2;
  EXPECT_EQ(P.KeyPrefixes->computed(), 0u);
  serve::ServeResult First = serve::serveVariants(P, O);
  ASSERT_TRUE(First.ok()) << First.Error;
  EXPECT_EQ(P.KeyPrefixes->computed(), 1u);
  // Another call on the same program, under other link options too,
  // reuses the memoized module head: it prints nothing.
  O.Link.DiversifyStub = true;
  serve::ServeResult Second = serve::serveVariants(P, O);
  ASSERT_TRUE(Second.ok()) << Second.Error;
  EXPECT_EQ(P.KeyPrefixes->computed(), 1u);

  // A copy shares the memo; once its MIR is re-stamped it gets a head of
  // its own, and its keys follow its MIR, not the stale head.
  driver::Program Q = P;
  const workloads::Workload &W = workloads::specSuite().front();
  std::vector<int32_t> Other = W.TrainInput;
  Other[0] = Other[0] / 2 + 1;
  ASSERT_TRUE(driver::profileAndStamp(Q, Other));
  serve::StoreKey KeyQ = serve::makeVariantKey(
      serve::baseKeyState(Q, O.Link), O.Pipe, O.Diversity, 5);
  EXPECT_EQ(KeyQ,
            serve::makeVariantKey(Q.MIR, O.Pipe, O.Diversity, 5, O.Link));
  EXPECT_FALSE(KeyQ == serve::makeVariantKey(serve::baseKeyState(P, O.Link),
                                             O.Pipe, O.Diversity, 5));
  EXPECT_EQ(P.KeyPrefixes->computed(), 2u);
}

//===----------------------------------------------------------------------===//
// Store round trip and corruption handling
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, StoreRoundTrip) {
  serve::VariantStore Store(Dir.string());
  std::string Err;
  ASSERT_TRUE(Store.open(&Err)) << Err;

  serve::StoreKey K{0x1234, 0x5678};
  serve::StoredVariant V;
  V.Text = {0x90, 0x48, 0x89, 0xe5, 0x00, 0xff};
  V.Seed = 21;
  V.SeedUsed = 23;
  V.Attempts = 3;
  ASSERT_TRUE(Store.publish(K, V, &Err)) << Err;
  EXPECT_TRUE(Store.contains(K));

  serve::StoredVariant Out;
  ASSERT_EQ(Store.load(K, Out), serve::LoadStatus::Hit);
  EXPECT_EQ(Out.Text, V.Text);
  EXPECT_EQ(Out.Seed, 21u);
  EXPECT_EQ(Out.SeedUsed, 23u);
  EXPECT_EQ(Out.Attempts, 3u);

  serve::StoreKey Unknown{0xdead, 0xbeef};
  EXPECT_EQ(Store.load(Unknown, Out), serve::LoadStatus::Miss);
  EXPECT_FALSE(Store.contains(Unknown));
  EXPECT_EQ(Store.hits(), 1u);
  EXPECT_EQ(Store.misses(), 1u);
  EXPECT_EQ(Store.publishes(), 1u);
}

TEST_F(ServeTest, BaselineArtifactRoundTrip) {
  serve::VariantStore Store(Dir.string());
  ASSERT_TRUE(Store.open());

  serve::BaselineArtifact A;
  mexec::RunResult R;
  R.ExitCode = 7;
  R.Checksum = 0xabcdef01;
  R.Instructions = 123456;
  R.Cycles10 = 789;
  R.Output = "hello\n42\n";
  A.Runs.emplace_back(2, R);

  serve::StoreKey K = serve::makeBaselineKey(P.MIR, codegen::LinkOptions());
  std::string Err;
  ASSERT_TRUE(Store.publishBaseline(K, A, &Err)) << Err;

  serve::BaselineArtifact Out;
  ASSERT_EQ(Store.loadBaseline(K, Out), serve::LoadStatus::Hit);
  ASSERT_EQ(Out.Runs.size(), 1u);
  EXPECT_EQ(Out.Runs[0].first, 2u);
  EXPECT_EQ(Out.Runs[0].second.ExitCode, 7);
  EXPECT_EQ(Out.Runs[0].second.Checksum, 0xabcdef01u);
  EXPECT_EQ(Out.Runs[0].second.Instructions, 123456u);
  EXPECT_EQ(Out.Runs[0].second.Output, "hello\n42\n");
}

TEST_F(ServeTest, CorruptEntrySelfHeals) {
  serve::VariantStore Store(Dir.string());
  ASSERT_TRUE(Store.open());

  serve::StoreKey K{0x42, 0x43};
  serve::StoredVariant V;
  V.Text.assign(64, 0x90);
  ASSERT_TRUE(Store.publish(K, V));

  // Truncate the entry: the digest check must refuse to serve it, and
  // the torn file must be unlinked so the next load is a clean miss.
  fs::path Entry = Dir / (K.hex() + ".variant");
  ASSERT_TRUE(fs::exists(Entry));
  fs::resize_file(Entry, fs::file_size(Entry) / 2);

  serve::StoredVariant Out;
  EXPECT_EQ(Store.load(K, Out), serve::LoadStatus::Corrupt);
  EXPECT_FALSE(fs::exists(Entry)) << "corrupt entry must be unlinked";
  EXPECT_EQ(Store.load(K, Out), serve::LoadStatus::Miss);
  EXPECT_EQ(Store.corruptions(), 1u);

  // Bit flip inside the payload: same contract.
  ASSERT_TRUE(Store.publish(K, V));
  {
    std::fstream F(Entry, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(F.is_open());
    F.seekg(0, std::ios::end);
    std::streamoff Size = F.tellg();
    F.seekp(Size - 4);
    char Byte = 0x7f;
    F.write(&Byte, 1);
  }
  EXPECT_EQ(Store.load(K, Out), serve::LoadStatus::Corrupt);
  EXPECT_EQ(Store.load(K, Out), serve::LoadStatus::Miss);
}

/// Writes the entry file of \p K with header fields \p Fields and a
/// digest that matches \p Payload: what a forger leaves behind, or bit
/// rot in the header, which the payload digest does not cover.
void writeEntry(const fs::path &Dir, const serve::StoreKey &K,
                const char *Suffix, const char *Magic,
                const std::string &Fields, const std::string &Payload) {
  char Digest[17];
  std::snprintf(Digest, sizeof Digest, "%016llx",
                static_cast<unsigned long long>(
                    serve::fnv1a64(Payload.data(), Payload.size())));
  std::ofstream Out(Dir / (K.hex() + Suffix), std::ios::binary);
  Out << Magic << ' ' << K.hex() << ' ' << Fields << ' ' << Payload.size()
      << ' ' << Digest << '\n'
      << Payload;
}

/// One baseline run in the payload syntax: index, trapped, trap kind,
/// exit code, cycles, instructions, checksum, then the trap reason and
/// the output as length-prefixed byte strings.
std::string runPayload(const std::string &Trap, const std::string &Reason) {
  return "0\n1\n" + Trap + "\n0\n0\n0\n0\n" + Reason + "0\n\n";
}

TEST_F(ServeTest, ForgedBaselineHeaderLoadsCorruptWithoutThrowing) {
  serve::VariantStore Store(Dir.string());
  ASSERT_TRUE(Store.open());
  serve::StoreKey K{0x51, 0x52};
  const fs::path Entry = Dir / (K.hex() + ".baseline");
  const std::string OneRun = runPayload("4", "0\n\n");

  // The run count sits in the header; the digest covers only the
  // payload, so any count must be bounded before it sizes anything.
  for (const char *Count :
       {"18446744073709551615", "100000000000", "2", "0"}) {
    writeEntry(Dir, K, ".baseline", "pgsd-baseline-v1", Count, OneRun);
    serve::BaselineArtifact Out;
    serve::LoadStatus S = serve::LoadStatus::Hit;
    EXPECT_NO_THROW(S = Store.loadBaseline(K, Out)) << "count " << Count;
    EXPECT_EQ(S, serve::LoadStatus::Corrupt) << "count " << Count;
    EXPECT_FALSE(fs::exists(Entry)) << "count " << Count;
  }

  // The honest count loads.
  writeEntry(Dir, K, ".baseline", "pgsd-baseline-v1", "1", OneRun);
  serve::BaselineArtifact Out;
  ASSERT_EQ(Store.loadBaseline(K, Out), serve::LoadStatus::Hit);
  ASSERT_EQ(Out.Runs.size(), 1u);
  EXPECT_EQ(Out.Runs[0].second.Trap, mexec::TrapKind::BadMemory);
}

TEST_F(ServeTest, ForgedBaselineBodyFieldsLoadCorrupt) {
  serve::VariantStore Store(Dir.string());
  ASSERT_TRUE(Store.open());
  serve::StoreKey K{0x61, 0x62};
  const std::vector<std::pair<const char *, std::string>> Bodies = {
      // A byte-string length near 2^64 must not wrap the bounds check
      // (the trap reason would swallow the rest of the payload).
      {"wrapping length", runPayload("4", "18446744073709551615\n")},
      // Trap kinds past the last TrapKind.
      {"trap kind 8", runPayload("8", "0\n\n")},
      {"trap kind 256", runPayload("256", "0\n\n")},
      // Fields wider than the RunResult field they fill.
      {"wide index", "4294967296" + runPayload("4", "0\n\n").substr(1)},
      {"trapped 2", "0\n2" + runPayload("4", "0\n\n").substr(3)},
  };
  for (const auto &[What, Body] : Bodies) {
    writeEntry(Dir, K, ".baseline", "pgsd-baseline-v1", "1", Body);
    serve::BaselineArtifact Out;
    EXPECT_EQ(Store.loadBaseline(K, Out), serve::LoadStatus::Corrupt) << What;
  }
}

TEST_F(ServeTest, ForgedVariantAttemptsLoadCorrupt) {
  serve::VariantStore Store(Dir.string());
  ASSERT_TRUE(Store.open());
  serve::StoreKey K{0x71, 0x72};
  writeEntry(Dir, K, ".variant", "pgsd-variant-v1", "1 2 4294967296",
             "\x90\xc3");
  serve::StoredVariant Out;
  EXPECT_EQ(Store.load(K, Out), serve::LoadStatus::Corrupt);
  writeEntry(Dir, K, ".variant", "pgsd-variant-v1", "1 2 4294967295",
             "\x90\xc3");
  ASSERT_EQ(Store.load(K, Out), serve::LoadStatus::Hit);
  EXPECT_EQ(Out.Attempts, 4294967295u);
}

TEST_F(ServeTest, TwoStoresOnOneDirectoryNeverServeATornEntry) {
  // The multi-writer rule (serve/Server.h): any number of stores, in one
  // process or several, may publish and load the same keys on one
  // directory. Each publish writes a private temp file and renames it
  // into place, so a load sees a whole entry or none.
  serve::VariantStore A(Dir.string()), B(Dir.string());
  ASSERT_TRUE(A.open());
  ASSERT_TRUE(B.open());
  constexpr unsigned Keys = 6, Threads = 4, Rounds = 20;
  auto Entry = [](unsigned I) {
    serve::StoredVariant V;
    V.Text.assign(2048 + 512 * I, static_cast<uint8_t>(0x90 + I));
    V.Seed = I;
    V.SeedUsed = I + 100;
    V.Attempts = I + 1;
    return V;
  };
  std::atomic<unsigned> Bad{0}, Hits{0};
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back([&, T] {
      const serve::VariantStore &S = T % 2 ? A : B;
      for (unsigned R = 0; R != Rounds; ++R)
        for (unsigned I = 0; I != Keys; ++I) {
          if ((I + T) % 2 == 0 && !S.publish({I, I}, Entry(I)))
            ++Bad;
          const unsigned J = (I + T + R) % Keys;
          serve::StoredVariant Out;
          switch (S.load({J, J}, Out)) {
          case serve::LoadStatus::Hit: {
            serve::StoredVariant Want = Entry(J);
            if (Out.Text != Want.Text || Out.SeedUsed != Want.SeedUsed ||
                Out.Attempts != Want.Attempts)
              ++Bad;
            ++Hits;
            break;
          }
          case serve::LoadStatus::Miss:
            break;
          case serve::LoadStatus::Corrupt:
            ++Bad;
            break;
          }
        }
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(Bad.load(), 0u);
  EXPECT_GT(Hits.load(), 0u);
  EXPECT_EQ(A.corruptions() + B.corruptions(), 0u);
  for (unsigned I = 0; I != Keys; ++I) {
    serve::StoredVariant Out;
    ASSERT_EQ(A.load({I, I}, Out), serve::LoadStatus::Hit) << I;
    EXPECT_EQ(Out.Text, Entry(I).Text);
  }
  // No temp file outlives its publish.
  for (const fs::directory_entry &E : fs::directory_iterator(Dir))
    EXPECT_EQ(E.path().string().find(".tmp."), std::string::npos)
        << E.path();
}

TEST_F(ServeTest, StoreOpenFailsOnUncreatablePath) {
  // /dev/null is a file, so a directory cannot be created beneath it
  // even for root.
  serve::VariantStore Store("/dev/null/pgsd-store");
  std::string Err;
  EXPECT_FALSE(Store.open(&Err));
  EXPECT_FALSE(Err.empty());
}

//===----------------------------------------------------------------------===//
// Serve loop: cold fills, restart resume, crash recovery
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, ColdRunFillsThenRestartHits) {
  serve::ServeOptions O = baseOptions();
  O.Requests = 6;

  serve::ServeResult Cold = serve::serveVariants(P, O);
  ASSERT_TRUE(Cold.ok()) << Cold.Error;
  EXPECT_EQ(Cold.Served, 6u);
  EXPECT_EQ(Cold.Fills, 6u);
  EXPECT_EQ(Cold.Hits, 0u);
  EXPECT_EQ(Cold.Failed, 0u);
  EXPECT_EQ(Cold.Shed, 0u);
  EXPECT_EQ(Cold.DistinctVariants, 6u);
  EXPECT_EQ(Cold.BaselinePrewarmed, 0u);
  EXPECT_GT(Cold.BaselineCacheFills, 0u);

  // "Restart": a fresh serveVariants call over the same store must
  // resume entirely from cache hits, serve byte-identical artifacts,
  // and prewarm the baseline cache instead of re-running the baseline.
  serve::ServeResult Warm = serve::serveVariants(P, O);
  ASSERT_TRUE(Warm.ok()) << Warm.Error;
  EXPECT_EQ(Warm.Served, 6u);
  EXPECT_EQ(Warm.Hits, 6u);
  EXPECT_EQ(Warm.Fills, 0u);
  EXPECT_EQ(Warm.BaselinePrewarmed, Cold.BaselineCacheFills);
  EXPECT_EQ(Warm.BaselineCacheFills, 0u);
  ASSERT_EQ(Warm.Requests.size(), Cold.Requests.size());
  for (size_t I = 0; I < Cold.Requests.size(); ++I) {
    EXPECT_EQ(Warm.Requests[I].TextDigest, Cold.Requests[I].TextDigest);
    EXPECT_EQ(Warm.Requests[I].TextSize, Cold.Requests[I].TextSize);
    EXPECT_EQ(Warm.Requests[I].SeedUsed, Cold.Requests[I].SeedUsed);
    EXPECT_EQ(Warm.Requests[I].Outcome, serve::RequestOutcome::Hit);
  }
}

TEST_F(ServeTest, CrashRecoveryRecompilesCorruptEntry) {
  serve::ServeOptions O = baseOptions();
  O.Requests = 3;

  serve::ServeResult Cold = serve::serveVariants(P, O);
  ASSERT_TRUE(Cold.ok()) << Cold.Error;
  ASSERT_EQ(Cold.Fills, 3u);

  // Simulate a torn write surviving a crash: truncate seed 2's entry.
  fs::path Entry = variantPath(O, /*Seed=*/2);
  ASSERT_TRUE(fs::exists(Entry)) << Entry;
  fs::resize_file(Entry, fs::file_size(Entry) / 2);

  serve::ServeResult Healed = serve::serveVariants(P, O);
  ASSERT_TRUE(Healed.ok()) << Healed.Error;
  EXPECT_EQ(Healed.StoreCorrupt, 1u);
  EXPECT_EQ(Healed.Hits, 2u);
  EXPECT_EQ(Healed.Fills, 1u) << "corrupt entry must be recompiled";
  EXPECT_EQ(Healed.Failed, 0u);
  // The refill is a pure function of the key, so the healed artifact is
  // byte-identical to the one the cold run served.
  ASSERT_EQ(Healed.Requests.size(), 3u);
  EXPECT_EQ(Healed.Requests[1].Seed, 2u);
  EXPECT_EQ(Healed.Requests[1].TextDigest, Cold.Requests[1].TextDigest);

  // And it was re-published: a third run is all hits again.
  serve::ServeResult Third = serve::serveVariants(P, O);
  ASSERT_TRUE(Third.ok()) << Third.Error;
  EXPECT_EQ(Third.Hits, 3u);
  EXPECT_EQ(Third.StoreCorrupt, 0u);
}

TEST_F(ServeTest, BaselinePrewarmServesFreshSeeds) {
  serve::ServeOptions O = baseOptions();
  O.Requests = 2;
  serve::ServeResult First = serve::serveVariants(P, O);
  ASSERT_TRUE(First.ok()) << First.Error;
  ASSERT_GT(First.BaselineCacheFills, 0u);

  // Fresh seeds force fills, but the baseline half of every differential
  // run must come from the prewarmed artifact, not re-execution.
  O.BaseSeed = 1000;
  serve::ServeResult Fresh = serve::serveVariants(P, O);
  ASSERT_TRUE(Fresh.ok()) << Fresh.Error;
  EXPECT_EQ(Fresh.Fills, 2u);
  EXPECT_EQ(Fresh.BaselinePrewarmed, First.BaselineCacheFills);
  EXPECT_EQ(Fresh.BaselineCacheFills, 0u);
  EXPECT_GT(Fresh.BaselineCacheHits, 0u);
}

TEST_F(ServeTest, CallerSuppliedCacheIsReadAndPersisted) {
  serve::ServeOptions O = baseOptions();
  O.Requests = 3;
  verify::BaselineCache Cache(P.MIR, O.Verify);
  for (size_t I = 0; I != Cache.battery().size(); ++I)
    Cache.baselineRun(I);

  serve::ServeOptions Cached = O;
  Cached.Verify.Cache = &Cache;
  serve::ServeResult R = serve::serveVariants(P, Cached);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Fills, 3u);
  EXPECT_EQ(R.BaselineCacheFills, 0u);
  EXPECT_GT(R.BaselineCacheHits, 0u);

  // The same requests without a cache, into a store of their own, serve
  // byte-identical artifacts.
  serve::ServeOptions Plain = O;
  Plain.StoreDir = Dir.string() + "-plain";
  serve::ServeResult U = serve::serveVariants(P, Plain);
  std::error_code EC;
  fs::remove_all(Plain.StoreDir, EC);
  ASSERT_TRUE(U.ok()) << U.Error;
  ASSERT_EQ(U.Requests.size(), R.Requests.size());
  for (size_t I = 0; I != R.Requests.size(); ++I) {
    EXPECT_EQ(U.Requests[I].TextDigest, R.Requests[I].TextDigest);
    EXPECT_EQ(U.Requests[I].SeedUsed, R.Requests[I].SeedUsed);
  }

  // The caller's runs were persisted: a restart with fresh seeds
  // prewarms the whole battery and executes no baseline.
  O.BaseSeed = 1000;
  serve::ServeResult Restart = serve::serveVariants(P, O);
  ASSERT_TRUE(Restart.ok()) << Restart.Error;
  EXPECT_EQ(Restart.BaselinePrewarmed, Cache.battery().size());
  EXPECT_EQ(Restart.BaselineCacheFills, 0u);
}

TEST_F(ServeTest, StoredBaselineIsPrewarmedIntoTheCallerCache) {
  serve::ServeOptions O = baseOptions();
  O.Requests = 2;
  serve::ServeResult Cold = serve::serveVariants(P, O);
  ASSERT_TRUE(Cold.ok()) << Cold.Error;
  ASSERT_GT(Cold.BaselineCacheFills, 0u);

  verify::BaselineCache Cache(P.MIR, O.Verify);
  serve::ServeOptions Cached = O;
  Cached.Verify.Cache = &Cache;
  serve::ServeResult Warm = serve::serveVariants(P, Cached);
  ASSERT_TRUE(Warm.ok()) << Warm.Error;
  EXPECT_EQ(Warm.Hits, 2u);
  EXPECT_EQ(Warm.BaselinePrewarmed, Cold.BaselineCacheFills);
  for (size_t I = 0; I != Cache.battery().size(); ++I)
    EXPECT_NE(Cache.peek(I), nullptr) << "entry " << I;
}

TEST_F(ServeTest, BaselineKeyDiscriminatesBatteryAndSteps) {
  codegen::LinkOptions Link;
  const std::vector<std::vector<int32_t>> One = {{1}};
  serve::StoreKey K = serve::makeBaselineKey(P.MIR, Link, One, 1000);
  EXPECT_EQ(K, serve::makeBaselineKey(P.MIR, Link, One, 1000));
  EXPECT_FALSE(K == serve::makeBaselineKey(P.MIR, Link, {{2}}, 1000));
  EXPECT_FALSE(K == serve::makeBaselineKey(P.MIR, Link, One, 1001));
  EXPECT_FALSE(K == serve::makeBaselineKey(P.MIR, Link, {{1}, {2}}, 1000));
  // Inputs are length-prefixed: one two-word input is not two inputs.
  EXPECT_FALSE(serve::makeBaselineKey(P.MIR, Link, {{1, 2}}, 1000) ==
               serve::makeBaselineKey(P.MIR, Link, {{1}, {2}}, 1000));
  // The two-argument form keys the default verification options.
  EXPECT_EQ(serve::makeBaselineKey(P.MIR, Link),
            serve::makeBaselineKey(P.MIR, Link, verify::defaultInputBattery(),
                                   verify::VerifyOptions().MaxSteps));
}

TEST_F(ServeTest, RestartWithAnotherBatteryRunsItsOwnBaseline) {
  // The stored baseline artifact holds runs by battery index; a restart
  // whose battery differs must not read runs recorded for other inputs.
  serve::ServeOptions O = baseOptions();
  O.Requests = 2;
  O.Verify.InputBattery = {{1}};
  serve::ServeResult First = serve::serveVariants(P, O);
  ASSERT_TRUE(First.ok()) << First.Error;
  ASSERT_EQ(First.Served, 2u);
  ASSERT_EQ(First.BaselineCacheFills, 1u);

  O.Verify.InputBattery = {{2}};
  O.BaseSeed = 1000;
  serve::ServeResult Other = serve::serveVariants(P, O);
  ASSERT_TRUE(Other.ok()) << Other.Error;
  EXPECT_EQ(Other.Served, 2u);
  EXPECT_EQ(Other.Failed, 0u);
  EXPECT_EQ(Other.BaselinePrewarmed, 0u);
  EXPECT_EQ(Other.BaselineCacheFills, 1u);

  // Another step bound is another baseline too.
  O.Verify.MaxSteps = O.Verify.MaxSteps / 2;
  O.BaseSeed = 2000;
  serve::ServeResult Steps = serve::serveVariants(P, O);
  ASSERT_TRUE(Steps.ok()) << Steps.Error;
  EXPECT_EQ(Steps.Served, 2u);
  EXPECT_EQ(Steps.Failed, 0u);
  EXPECT_EQ(Steps.BaselinePrewarmed, 0u);

  // A restart with the first battery still finds its own artifact.
  O = baseOptions();
  O.Requests = 2;
  O.Verify.InputBattery = {{1}};
  O.BaseSeed = 3000;
  serve::ServeResult Again = serve::serveVariants(P, O);
  ASSERT_TRUE(Again.ok()) << Again.Error;
  EXPECT_EQ(Again.Served, 2u);
  EXPECT_EQ(Again.Failed, 0u);
  EXPECT_EQ(Again.BaselinePrewarmed, 1u);
  EXPECT_EQ(Again.BaselineCacheFills, 0u);
}

TEST_F(ServeTest, StoreOpenFailurePropagates) {
  serve::ServeOptions O = baseOptions();
  O.StoreDir = "/dev/null/pgsd-store";
  serve::ServeResult R = serve::serveVariants(P, O);
  EXPECT_FALSE(R.ok());
  EXPECT_FALSE(R.Error.empty());
  EXPECT_TRUE(R.Requests.empty());
}

//===----------------------------------------------------------------------===//
// Distinctness: the App-Store contract
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, ServesSixtyFourDistinctVerifiedVariants) {
  serve::ServeOptions O = baseOptions();
  O.Requests = 64;

  serve::ServeResult R = serve::serveVariants(P, O);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Served, 64u);
  EXPECT_EQ(R.Failed, 0u);
  EXPECT_EQ(R.Shed, 0u);
  EXPECT_EQ(R.DistinctVariants, 64u)
      << "every served variant must be pairwise distinct";

  // Cross-check DistinctVariants against the per-request digests.
  std::set<std::pair<uint64_t, uint64_t>> Images;
  for (const serve::RequestResult &Q : R.Requests) {
    ASSERT_TRUE(Q.served());
    Images.emplace(Q.TextDigest, Q.TextSize);
  }
  EXPECT_EQ(Images.size(), 64u);
}

//===----------------------------------------------------------------------===//
// Admission control
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, OverloadShedsDeterministically) {
  // Jobs=1 and QueueDepth=0 give capacity 1; the fill gate holds the
  // lone admitted fill until the serving thread has shed the other
  // three requests (AdmitWait 0 never waits), making the shed count
  // exact without any timing dependence.
  serve::ServeOptions O = baseOptions();
  O.Requests = 4;
  O.Jobs = 1;
  O.QueueDepth = 0;
  O.AdmitWaitSeconds = 0.0;

  std::promise<void> AllShed;
  std::shared_future<void> Release(AllShed.get_future());
  std::atomic<uint64_t> ShedSeen{0};
  O.Observer = [&](const serve::RequestResult &Q) {
    if (Q.Outcome == serve::RequestOutcome::Shed &&
        ShedSeen.fetch_add(1) + 1 == 3)
      AllShed.set_value();
  };
  O.FillGate = [&](uint64_t) { Release.wait(); };

  serve::ServeResult R = serve::serveVariants(P, O);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Fills, 1u);
  EXPECT_EQ(R.Shed, 3u);
  EXPECT_EQ(R.Served, 1u);
  EXPECT_EQ(R.QueueCapacity, 1u);
  EXPECT_EQ(R.QueuePeakDepth, 1u);
  ASSERT_EQ(R.Requests.size(), 4u);
  EXPECT_EQ(R.Requests[0].Outcome, serve::RequestOutcome::Fill);
  for (size_t I = 1; I < 4; ++I)
    EXPECT_EQ(R.Requests[I].Outcome, serve::RequestOutcome::Shed);
}

TEST(AdmissionQueueTest, CapsInFlightAndCounts) {
  support::ThreadPool Pool(2);
  serve::AdmissionQueue Q(Pool, 2);
  EXPECT_EQ(Q.capacity(), 2u);

  std::promise<void> Gate;
  std::shared_future<void> Release(Gate.get_future());
  std::atomic<int> Ran{0};
  auto Blocked = [&] {
    Release.wait();
    ++Ran;
  };

  EXPECT_TRUE(Q.submit(Blocked, 0.0));
  EXPECT_TRUE(Q.submit(Blocked, 0.0));
  EXPECT_EQ(Q.inFlight(), 2u);
  // Full: a zero-budget submit sheds immediately, and the task must
  // never run.
  std::atomic<bool> ShedTaskRan{false};
  EXPECT_FALSE(Q.submit([&] { ShedTaskRan = true; }, 0.0));
  EXPECT_EQ(Q.shed(), 1u);

  Gate.set_value();
  Q.drain();
  Pool.wait();
  EXPECT_EQ(Ran.load(), 2);
  EXPECT_FALSE(ShedTaskRan.load());
  EXPECT_EQ(Q.inFlight(), 0u);
  EXPECT_EQ(Q.peakDepth(), 2u);
  EXPECT_EQ(Q.admitted(), 2u);

  // A freed slot admits again, including via a bounded wait.
  EXPECT_TRUE(Q.submit([] {}, 5.0));
  Q.drain();
  Pool.wait();
  EXPECT_EQ(Q.admitted(), 3u);
}

TEST(AdmissionQueueTest, CapacityClampsToOne) {
  support::ThreadPool Pool(1);
  serve::AdmissionQueue Q(Pool, 0);
  EXPECT_EQ(Q.capacity(), 1u);
  EXPECT_TRUE(Q.submit([] {}, 0.0));
  Q.drain();
  Pool.wait();
}

//===----------------------------------------------------------------------===//
// Baseline cache persistence hooks
//===----------------------------------------------------------------------===//

TEST_F(ServeTest, BaselineCachePrewarmAndPeek) {
  verify::VerifyOptions VOpts;
  VOpts.InputBattery = {Train};
  verify::BaselineCache Cache(P.MIR, VOpts);
  ASSERT_EQ(Cache.battery().size(), 1u);
  EXPECT_EQ(Cache.peek(0), nullptr) << "unfilled entry must not peek";

  mexec::RunResult R;
  R.Checksum = 424242;
  R.ExitCode = 5;
  EXPECT_TRUE(Cache.prewarm(0, R));
  EXPECT_EQ(Cache.prewarmed(), 1u);

  const mexec::RunResult *Peeked = Cache.peek(0);
  ASSERT_NE(Peeked, nullptr);
  EXPECT_EQ(Peeked->Checksum, 424242u);

  // baselineRun must serve the installed entry, not execute.
  const mexec::RunResult &Served = Cache.baselineRun(0);
  EXPECT_EQ(Served.Checksum, 424242u);
  EXPECT_EQ(Served.ExitCode, 5);
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cache.fills(), 0u);

  // Second prewarm loses the once race and must say so.
  mexec::RunResult Other;
  Other.Checksum = 1;
  EXPECT_FALSE(Cache.prewarm(0, Other));
  EXPECT_EQ(Cache.prewarmed(), 1u);
  EXPECT_EQ(Cache.peek(0)->Checksum, 424242u);
}

//===----------------------------------------------------------------------===//
// Statistics: the latency percentile helper
//===----------------------------------------------------------------------===//

TEST(PercentileTest, LinearInterpolation) {
  EXPECT_DOUBLE_EQ(pgsd::percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(pgsd::percentile({7.0}, 99.0), 7.0);
  EXPECT_DOUBLE_EQ(pgsd::percentile({1.0, 2.0, 3.0, 4.0}, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(pgsd::percentile({4.0, 1.0, 3.0, 2.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(pgsd::percentile({4.0, 1.0, 3.0, 2.0}, 100.0), 4.0);

  std::vector<double> V;
  for (int I = 1; I <= 100; ++I)
    V.push_back(static_cast<double>(I));
  EXPECT_DOUBLE_EQ(pgsd::percentile(V, 50.0), 50.5);
  EXPECT_NEAR(pgsd::percentile(V, 99.0), 99.01, 1e-9);
}

} // namespace
