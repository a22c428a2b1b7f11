//===-- tests/BaselineMemoTest.cpp - Per-program baseline run memo --------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// The baseline half of differential execution is a memo of the compiled
// driver::Program, keyed by mir::digest. These tests pin the three
// properties that make sharing it safe: the digest separates modules that
// differ anywhere; a Program whose MIR changed never reads the runs of
// the MIR it had before; and concurrent first use fills each input at
// most once while every caller gets the serial result. The TSan CI job
// runs this binary.
//
//===----------------------------------------------------------------------===//

#include "driver/Batch.h"
#include "lir/MIR.h"
#include "verify/BaselineCache.h"

#include <gtest/gtest.h>

#include <thread>

using namespace pgsd;

namespace {

/// Prints three times its input: the battery observes the constant.
const char *TripleSource =
    "fn main() { var s = 0; var i = 0; while (i < 20) { s = s + i; "
    "i = i + 1; } print_int(s + read_int() * 3); return 0; }";

driver::Program compile(const char *Source, const char *Name) {
  driver::Program P = driver::compileProgram(Source, Name);
  EXPECT_TRUE(P.ok()) << P.errors();
  return P;
}

/// Rewrites every immediate 3 in \p M to 5; returns how many it changed.
unsigned retargetConstant(mir::MModule &M) {
  unsigned Changed = 0;
  for (mir::MFunction &F : M.Functions)
    for (mir::MBasicBlock &BB : F.Blocks)
      for (mir::MInstr &I : BB.Instrs)
        if (I.Op == mir::MOp::MovRI && I.Imm == 3) {
          I.Imm = 5;
          ++Changed;
        }
  return Changed;
}

void expectSameVerdicts(const driver::BatchResult &A,
                        const driver::BatchResult &B) {
  ASSERT_EQ(A.Variants.size(), B.Variants.size());
  EXPECT_EQ(A.Accepted, B.Accepted);
  EXPECT_EQ(A.TotalAttempts, B.TotalAttempts);
  for (size_t I = 0; I != A.Variants.size(); ++I) {
    SCOPED_TRACE("seed index " + std::to_string(I));
    EXPECT_EQ(A.Variants[I].V.Image.Text, B.Variants[I].V.Image.Text);
    EXPECT_EQ(A.Variants[I].SeedUsed, B.Variants[I].SeedUsed);
    EXPECT_EQ(A.Variants[I].Attempts, B.Variants[I].Attempts);
    EXPECT_EQ(A.Variants[I].UsedFallback, B.Variants[I].UsedFallback);
  }
}

const std::vector<uint64_t> Seeds = {3, 4, 5, 6, 7, 8};

driver::BatchResult batch(const driver::Program &P, unsigned Jobs = 2) {
  driver::BatchOptions B;
  B.Jobs = Jobs;
  return driver::makeVariantsBatch(
      P, diversity::DiversityOptions::uniform(0.5), Seeds, B);
}

} // namespace

TEST(MirDigest, SeparatesModulesThatDifferAnywhere) {
  driver::Program P = compile(TripleSource, "digest");
  const uint64_t D = mir::digest(P.MIR);
  mir::MModule Copy = P.MIR;
  EXPECT_EQ(mir::digest(Copy), D);

  mir::MModule Constant = P.MIR;
  ASSERT_GT(retargetConstant(Constant), 0u);
  EXPECT_NE(mir::digest(Constant), D);

  mir::MModule Counted = P.MIR;
  Counted.Functions[0].Blocks[0].ProfileCount = 1;
  EXPECT_NE(mir::digest(Counted), D);

  mir::MModule Renamed = P.MIR;
  Renamed.Functions[0].Blocks[0].Name += "x";
  EXPECT_NE(mir::digest(Renamed), D);

  mir::MModule Shorter = P.MIR;
  Shorter.Functions[0].Blocks.back().Instrs.pop_back();
  EXPECT_NE(mir::digest(Shorter), D);
}

TEST(BaselineMemo, KeysOnDigestBatteryAndStepBudget) {
  driver::Program P = compile(TripleSource, "memo-key");
  verify::BaselineMemo Memo;
  verify::VerifyOptions Opts;
  std::shared_ptr<verify::BaselineRuns> Runs = Memo.runsFor(P.MIR, Opts);
  EXPECT_EQ(Memo.runsFor(P.MIR, Opts), Runs);
  mir::MModule Copy = P.MIR;
  EXPECT_EQ(Memo.runsFor(Copy, Opts), Runs) << "the key is content";

  verify::VerifyOptions OneInput = Opts;
  OneInput.InputBattery = {{4}};
  EXPECT_NE(Memo.runsFor(P.MIR, OneInput), Runs);
  verify::VerifyOptions Budget = Opts;
  Budget.MaxSteps = 1000;
  EXPECT_NE(Memo.runsFor(P.MIR, Budget), Runs);
  ASSERT_GT(retargetConstant(Copy), 0u);
  EXPECT_NE(Memo.runsFor(Copy, Opts), Runs);
}

TEST(BaselineMemo, RunsOutliveTheModuleTheyWereBuiltFrom) {
  std::shared_ptr<verify::BaselineRuns> Runs;
  {
    driver::Program P = compile(TripleSource, "outlive");
    verify::VerifyOptions Opts;
    Opts.InputBattery = {{7}};
    Runs = verify::BaselineMemo().runsFor(P.MIR, Opts);
  }
  bool Computed = false;
  const mexec::RunResult &R = Runs->run(0, Computed);
  EXPECT_TRUE(Computed);
  EXPECT_FALSE(R.Trapped);
  EXPECT_EQ(R.Output, "211\n"); // 190 + 7 * 3
}

TEST(BaselineMemo, LaterBatchesOfAProgramExecuteNoBaseline) {
  driver::Program P = compile(TripleSource, "reuse");
  driver::BatchResult First = batch(P);
  EXPECT_EQ(First.BaselineCacheFills, verify::defaultInputBattery().size());
  driver::BatchResult Second = batch(P);
  EXPECT_EQ(Second.BaselineCacheFills, 0u);
  EXPECT_EQ(Second.BaselineCacheHits,
            Second.TotalAttempts * verify::defaultInputBattery().size());
  expectSameVerdicts(First, Second);

  // Moving the Program moves its memo: the runs never pointed at P.MIR.
  driver::Program Moved = std::move(P);
  EXPECT_EQ(batch(Moved).BaselineCacheFills, 0u);

  // A verified call outside a batch reads the same runs.
  verify::VerifyOptions VOpts;
  driver::VerifiedVariant V = driver::makeVariantVerified(
      Moved, diversity::DiversityOptions::uniform(0.5), Seeds[0], VOpts);
  EXPECT_EQ(V.V.Image.Text, First.Variants[0].V.Image.Text);
}

TEST(BaselineMemo, MutatedCopyComparesAgainstItsOwnBaseline) {
  driver::Program P = compile(TripleSource, "original");
  driver::BatchResult Before = batch(P);
  ASSERT_TRUE(Before.allAccepted());

  // The copy shares P's memo but not, after the mutation, its key.
  driver::Program Copy = P;
  ASSERT_GT(retargetConstant(Copy.MIR), 0u);
  driver::BatchResult Mutated = batch(Copy);

  // A freshly compiled program with the same mutation has an empty memo:
  // its verdicts are what differential execution against the mutated
  // baseline gives. Read stale, every attempt would mismatch on output.
  driver::Program Fresh = compile(TripleSource, "original");
  ASSERT_GT(retargetConstant(Fresh.MIR), 0u);
  driver::BatchResult Reference = batch(Fresh);
  ASSERT_TRUE(Reference.allAccepted());
  expectSameVerdicts(Mutated, Reference);
  EXPECT_EQ(Mutated.BaselineCacheFills, Reference.BaselineCacheFills);

  // The original's runs are still there, untouched by the copy.
  driver::BatchResult After = batch(P);
  EXPECT_EQ(After.BaselineCacheFills, 0u);
  expectSameVerdicts(Before, After);
}

TEST(BaselineMemo, ConcurrentFirstUseFillsEachInputAtMostOnce) {
  driver::Program Serial = compile(TripleSource, "concurrent");
  driver::BatchResult Expected = batch(Serial, 1);

  driver::Program P = compile(TripleSource, "concurrent");
  driver::BatchResult A, B;
  std::thread TA([&] { A = batch(P); });
  std::thread TB([&] { B = batch(P); });
  TA.join();
  TB.join();

  const uint64_t Battery = verify::defaultInputBattery().size();
  EXPECT_LE(A.BaselineCacheFills + B.BaselineCacheFills, Battery);
  EXPECT_EQ(A.BaselineCacheFills + A.BaselineCacheHits,
            A.TotalAttempts * Battery);
  EXPECT_EQ(B.BaselineCacheFills + B.BaselineCacheHits,
            B.TotalAttempts * Battery);
  expectSameVerdicts(A, Expected);
  expectSameVerdicts(B, Expected);
}
