//===-- tests/NvxTest.cpp - N-variant lockstep execution tests -------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// Covers the nvx subsystem (src/nvx/Nvx.h): vote classification
// (including replicas trapping with *different* trap kinds -- that is a
// divergence, never a collective crash), end-to-end lockstep sessions
// over diversified replicas, the tamper seam, load-time rejection of
// corrupted modules, and the degradation path -- a hung replica is
// cancelled by the watchdog, ejected, respawned from a fresh seed, and
// the session finishes with clean consensus.
//
//===----------------------------------------------------------------------===//

#include "nvx/Nvx.h"

#include "driver/Driver.h"
#include "obs/Metrics.h"

#include "gtest/gtest.h"

#include <memory>

using namespace pgsd;

namespace {

/// Sums the input stream and prints the total.
const char *SumSource =
    "fn main() {\n"
    "  var i = 0;\n"
    "  var s = 0;\n"
    "  while (i < input_len()) {\n"
    "    s = s + read_int();\n"
    "    i = i + 1;\n"
    "  }\n"
    "  print_int(s);\n"
    "  return 0;\n"
    "}\n";

/// Like SumSource but off by one: behaviourally divergent on every
/// input, never trapping.
const char *SumPlusOneSource =
    "fn main() {\n"
    "  var i = 0;\n"
    "  var s = 1;\n"
    "  while (i < input_len()) {\n"
    "    s = s + read_int();\n"
    "    i = i + 1;\n"
    "  }\n"
    "  print_int(s);\n"
    "  return 0;\n"
    "}\n";

/// Stores through an input-controlled wild index: traps BadMemory on
/// the large-index battery below.
const char *WildStoreSource =
    "global g[4];\n"
    "fn main() {\n"
    "  g[read_int()] = 1;\n"
    "  return 0;\n"
    "}\n";

/// Reads one int and echoes it; completes on any one-element input.
const char *EchoSource =
    "fn main() {\n"
    "  print_int(read_int());\n"
    "  return 0;\n"
    "}\n";

/// Loops forever (printing keeps the loop un-removable); only a step
/// budget or the watchdog ends it.
const char *SpinSource =
    "fn main() {\n"
    "  var i = 0;\n"
    "  while (i < 1) {\n"
    "    print_int(i);\n"
    "  }\n"
    "  return 0;\n"
    "}\n";

driver::Program compile(const char *Source, const char *Name) {
  driver::Program P = driver::compileProgram(Source, Name);
  EXPECT_TRUE(P.ok()) << P.errors();
  return P;
}

nvx::Signature sig(bool Trapped, mexec::TrapKind Trap, int32_t Exit,
                   uint32_t Checksum, std::string Output = "") {
  nvx::Signature S;
  S.Trapped = Trapped;
  S.Trap = Trap;
  S.ExitCode = Exit;
  S.Checksum = Checksum;
  S.Output = std::move(Output);
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// Vote classification (pure).
//===----------------------------------------------------------------------===//

TEST(NvxVote, EmptyIsNoQuorum) {
  nvx::VoteResult V = nvx::vote({}, nvx::VotePolicy::Majority);
  EXPECT_EQ(V.Outcome, nvx::RoundOutcome::NoQuorum);
  EXPECT_EQ(V.WinnerCount, 0u);
}

TEST(NvxVote, SingleReplicaIsConsensus) {
  nvx::VoteResult V = nvx::vote({sig(false, mexec::TrapKind::None, 0, 1)},
                                nvx::VotePolicy::Majority);
  EXPECT_EQ(V.Outcome, nvx::RoundOutcome::Consensus);
  EXPECT_EQ(V.WinnerCount, 1u);
}

TEST(NvxVote, AllEqualIsConsensus) {
  nvx::Signature S = sig(false, mexec::TrapKind::None, 0, 42, "7\n");
  nvx::VoteResult V = nvx::vote({S, S, S}, nvx::VotePolicy::Majority);
  EXPECT_EQ(V.Outcome, nvx::RoundOutcome::Consensus);
  EXPECT_EQ(V.WinnerCount, 3u);
  EXPECT_EQ(V.Divergent, (std::vector<uint8_t>{0, 0, 0}));
}

TEST(NvxVote, MinorityIsMaskedUnderMajority) {
  nvx::Signature Good = sig(false, mexec::TrapKind::None, 0, 42);
  nvx::Signature Bad = sig(false, mexec::TrapKind::None, 0, 43);
  nvx::VoteResult V =
      nvx::vote({Bad, Good, Good}, nvx::VotePolicy::Majority);
  EXPECT_EQ(V.Outcome, nvx::RoundOutcome::MaskedFault);
  EXPECT_EQ(V.WinnerCount, 2u);
  EXPECT_EQ(V.Divergent, (std::vector<uint8_t>{1, 0, 0}));
}

TEST(NvxVote, DifferentTrapKindsAreDivergenceNotCrash) {
  // One replica exhausts its step budget, two hit bad memory with
  // matching signatures: a masked fault with a trapping majority --
  // the vote still reaches a verdict.
  nvx::Signature Budget = sig(true, mexec::TrapKind::StepBudget, 0, 1);
  nvx::Signature Memory = sig(true, mexec::TrapKind::BadMemory, 0, 1);
  nvx::VoteResult V =
      nvx::vote({Budget, Memory, Memory}, nvx::VotePolicy::Majority);
  EXPECT_EQ(V.Outcome, nvx::RoundOutcome::MaskedFault);
  EXPECT_EQ(V.Divergent, (std::vector<uint8_t>{1, 0, 0}));
}

TEST(NvxVote, IdenticalTrapsAreConsensus) {
  // Consensus-on-trap: every variant rejected the input identically.
  nvx::Signature S = sig(true, mexec::TrapKind::DivideByZero, 0, 1);
  nvx::VoteResult V = nvx::vote({S, S, S}, nvx::VotePolicy::Majority);
  EXPECT_EQ(V.Outcome, nvx::RoundOutcome::Consensus);
}

TEST(NvxVote, TieHasNoQuorum) {
  nvx::Signature A = sig(false, mexec::TrapKind::None, 0, 1);
  nvx::Signature B = sig(false, mexec::TrapKind::None, 0, 2);
  nvx::VoteResult V = nvx::vote({A, B}, nvx::VotePolicy::Majority);
  EXPECT_EQ(V.Outcome, nvx::RoundOutcome::NoQuorum);
  EXPECT_EQ(V.WinnerCount, 1u);
}

TEST(NvxVote, UnanimousTreatsAnyDivergenceAsNoQuorum) {
  nvx::Signature Good = sig(false, mexec::TrapKind::None, 0, 42);
  nvx::Signature Bad = sig(false, mexec::TrapKind::None, 0, 43);
  EXPECT_EQ(nvx::vote({Good, Good, Good}, nvx::VotePolicy::Unanimous)
                .Outcome,
            nvx::RoundOutcome::Consensus);
  EXPECT_EQ(nvx::vote({Bad, Good, Good}, nvx::VotePolicy::Unanimous)
                .Outcome,
            nvx::RoundOutcome::NoQuorum);
}

TEST(NvxVote, SignatureIgnoresInstructionAndCycleCounts) {
  // NOP-diversified variants legitimately differ in dynamic instruction
  // and cycle counts; the vote signature must not see them.
  mexec::RunResult A, B;
  A.ExitCode = B.ExitCode = 7;
  A.Checksum = B.Checksum = 99;
  A.Instructions = 1000;
  B.Instructions = 1500;
  A.Cycles10 = 4000;
  B.Cycles10 = 6500;
  B.TrapReason = "different wording, same kind";
  EXPECT_EQ(nvx::signatureOf(A), nvx::signatureOf(B));
}

TEST(NvxVote, PolicyNamesRoundTrip) {
  nvx::VotePolicy P = nvx::VotePolicy::Majority;
  EXPECT_TRUE(nvx::parseVotePolicy("unanimous", P));
  EXPECT_EQ(P, nvx::VotePolicy::Unanimous);
  EXPECT_TRUE(nvx::parseVotePolicy("majority", P));
  EXPECT_EQ(P, nvx::VotePolicy::Majority);
  EXPECT_FALSE(nvx::parseVotePolicy("plurality", P));
  EXPECT_STREQ(nvx::votePolicyName(nvx::VotePolicy::Majority), "majority");
  EXPECT_STREQ(nvx::roundOutcomeName(nvx::RoundOutcome::MaskedFault),
               "masked-fault");
}

//===----------------------------------------------------------------------===//
// End-to-end lockstep sessions.
//===----------------------------------------------------------------------===//

TEST(Nvx, HealthyReplicasReachConsensusEveryRound) {
  driver::Program P = compile(SumSource, "sum");
  nvx::NvxOptions Opts;
  Opts.Replicas = 3;
  std::vector<std::vector<int32_t>> Battery = {{1, 2, 3}, {}, {-5, 5}};
  nvx::NvxResult R = nvx::runLockstep(P, Battery, Opts);
  EXPECT_EQ(R.Rounds, 3u);
  EXPECT_EQ(R.ConsensusRounds, 3u);
  EXPECT_EQ(R.Divergences, 0u);
  EXPECT_EQ(R.Ejections, 0u);
  EXPECT_EQ(R.ActiveReplicas, 3u);
  EXPECT_TRUE(R.ok());
  EXPECT_FALSE(R.divergenceDetected());
  ASSERT_EQ(R.Records.size(), 3u);
  for (const nvx::RoundRecord &Rec : R.Records) {
    EXPECT_EQ(Rec.Outcome, nvx::RoundOutcome::Consensus);
    EXPECT_EQ(Rec.Voters, 3u);
    EXPECT_EQ(Rec.Divergent, 0u);
  }
}

TEST(Nvx, ResultIsIndependentOfJobs) {
  driver::Program P = compile(SumSource, "sum");
  std::vector<std::vector<int32_t>> Battery = {{4, 4}, {9}};
  nvx::NvxOptions Serial;
  Serial.Replicas = 3;
  Serial.Jobs = 1;
  nvx::NvxOptions Parallel = Serial;
  Parallel.Jobs = 3;
  nvx::NvxResult A = nvx::runLockstep(P, Battery, Serial);
  nvx::NvxResult B = nvx::runLockstep(P, Battery, Parallel);
  EXPECT_EQ(A.ConsensusRounds, B.ConsensusRounds);
  EXPECT_EQ(A.Divergences, B.Divergences);
  EXPECT_EQ(A.FinalSeeds, B.FinalSeeds);
}

TEST(Nvx, TamperedReplicaIsMaskedEjectedAndRespawned) {
  driver::Program P = compile(SumSource, "sum");
  driver::Program Evil = compile(SumPlusOneSource, "sum1");
  nvx::NvxOptions Opts;
  Opts.Replicas = 3;
  Opts.EjectAfter = 1;
  Opts.TamperReplica = [&](unsigned Replica, mir::MModule &M) {
    if (Replica == 0)
      M = Evil.MIR; // Verifies and runs fine -- but lies about the sum.
  };
  std::vector<std::vector<int32_t>> Battery = {{1, 2}, {3}, {10, 20}};
  nvx::NvxResult R = nvx::runLockstep(P, Battery, Opts);
  // Round 1 outvotes the tampered replica, ejects it (EjectAfter=1),
  // and respawns a healthy replacement; later rounds are clean.
  EXPECT_EQ(R.MaskedFaultRounds, 1u);
  EXPECT_EQ(R.ConsensusRounds, 2u);
  EXPECT_EQ(R.NoQuorumRounds, 0u);
  EXPECT_EQ(R.Divergences, 1u);
  EXPECT_EQ(R.Ejections, 1u);
  EXPECT_EQ(R.Respawns, 1u);
  EXPECT_EQ(R.ActiveReplicas, 3u);
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.divergenceDetected());
}

TEST(Nvx, TrappingReplicaIsDivergenceNotSessionFailure) {
  // The tampered replica traps BadMemory on the wild-store program
  // while the healthy majority completes normally: trap-kind asymmetry
  // classifies as a masked divergence, and the session stays healthy.
  driver::Program P = compile(EchoSource, "echo");
  driver::Program Evil = compile(WildStoreSource, "wild");
  nvx::NvxOptions Opts;
  Opts.Replicas = 3;
  Opts.EjectAfter = 2;
  Opts.TamperReplica = [&](unsigned Replica, mir::MModule &M) {
    if (Replica == 0)
      M = Evil.MIR;
  };
  std::vector<std::vector<int32_t>> Battery = {{100000000}};
  nvx::NvxResult R = nvx::runLockstep(P, Battery, Opts);
  EXPECT_EQ(R.MaskedFaultRounds, 1u);
  EXPECT_EQ(R.Divergences, 1u);
  EXPECT_EQ(R.NoQuorumRounds, 0u);
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.divergenceDetected());
}

TEST(Nvx, UnanimousPolicyAbortsOnDivergence) {
  driver::Program P = compile(SumSource, "sum");
  driver::Program Evil = compile(SumPlusOneSource, "sum1");
  nvx::NvxOptions Opts;
  Opts.Replicas = 3;
  Opts.Policy = nvx::VotePolicy::Unanimous;
  Opts.EjectAfter = 1;
  Opts.TamperReplica = [&](unsigned Replica, mir::MModule &M) {
    if (Replica == 0)
      M = Evil.MIR;
  };
  std::vector<std::vector<int32_t>> Battery = {{1}, {2}};
  nvx::NvxResult R = nvx::runLockstep(P, Battery, Opts);
  EXPECT_EQ(R.NoQuorumRounds, 1u);
  EXPECT_FALSE(R.ok());
  // The plurality still identifies the loser: it is ejected and the
  // session recovers to unanimity.
  EXPECT_EQ(R.Ejections, 1u);
  EXPECT_EQ(R.ConsensusRounds, 1u);
}

TEST(Nvx, CorruptModuleIsRejectedAtLoadAndRespawned) {
  driver::Program P = compile(SumSource, "sum");
  nvx::NvxOptions Opts;
  Opts.Replicas = 3;
  Opts.TamperReplica = [](unsigned Replica, mir::MModule &M) {
    if (Replica == 0 && !M.Functions.empty())
      M.Functions[0].Blocks.clear(); // No longer passes mir::verify.
  };
  std::vector<std::vector<int32_t>> Battery = {{5}};
  nvx::NvxResult R = nvx::runLockstep(P, Battery, Opts);
  EXPECT_EQ(R.LoadRejections, 1u);
  EXPECT_EQ(R.Ejections, 1u);
  EXPECT_EQ(R.Respawns, 1u);
  EXPECT_EQ(R.ConsensusRounds, 1u);
  EXPECT_EQ(R.ActiveReplicas, 3u);
  EXPECT_TRUE(R.divergenceDetected());
}

TEST(Nvx, HungReplicaIsCancelledEjectedAndRespawned) {
  // The acceptance path: a deliberately hung replica must not stall the
  // vote -- the watchdog cancels it, the monitor ejects it, a healthy
  // replacement is respawned from a fresh seed, and the session ends in
  // clean consensus.
  obs::Registry::global().reset();
  obs::setEnabled(true);
  driver::Program P = compile(SumSource, "sum");
  driver::Program Spin = compile(SpinSource, "spin");
  nvx::NvxOptions Opts;
  Opts.Replicas = 3;
  Opts.Jobs = 3;              // The watchdog needs pool workers.
  Opts.TimeoutSeconds = 0.25; // Healthy rounds finish in microseconds.
  Opts.StepBudget = 4ull << 30; // Ensure the wall clock fires first.
  Opts.EjectAfter = 1;
  Opts.TamperReplica = [&](unsigned Replica, mir::MModule &M) {
    if (Replica == 0)
      M = Spin.MIR;
  };
  std::vector<std::vector<int32_t>> Battery = {{1, 2}, {3}, {4, 5}};
  nvx::NvxResult R = nvx::runLockstep(P, Battery, Opts);
  obs::LocalMetrics Snap = obs::Registry::global().snapshot();
  obs::setEnabled(false);
  obs::Registry::global().reset();
  // The spawn batch filled P's baseline memo once per verification
  // input; the respawn read those runs and executed no baseline.
  EXPECT_EQ(Snap.Counters.at("verify.baseline_cache.fills"),
            verify::defaultInputBattery().size());
  EXPECT_GE(R.Timeouts, 1u);
  EXPECT_EQ(R.Ejections, 1u);
  EXPECT_EQ(R.Respawns, 1u);
  EXPECT_EQ(R.MaskedFaultRounds, 1u);
  EXPECT_EQ(R.ConsensusRounds, 2u);
  EXPECT_EQ(R.NoQuorumRounds, 0u);
  EXPECT_EQ(R.ActiveReplicas, 3u);
  EXPECT_TRUE(R.ok());
  ASSERT_EQ(R.Records.size(), 3u);
  EXPECT_EQ(R.Records.back().Outcome, nvx::RoundOutcome::Consensus);
  // The replacement came from the respawn cursor, not a spawn seed.
  ASSERT_EQ(R.FinalSeeds.size(), 3u);
}

TEST(Nvx, RespawnFailureDegradesToSurvivingQuorum) {
  driver::Program P = compile(SumSource, "sum");
  driver::Program Evil = compile(SumPlusOneSource, "sum1");
  nvx::NvxOptions Opts;
  Opts.Replicas = 3;
  Opts.Jobs = 1;
  Opts.EjectAfter = 1;
  Opts.RespawnAttempts = 2;
  // The fault seam is armed by the tamper hook, which runs after the
  // spawn batch: spawn succeeds untouched, then every respawn attempt
  // is corrupted and refuted, so the bounded schedule runs dry and the
  // session degrades to the surviving two-replica quorum.
  auto Armed = std::make_shared<bool>(false);
  Opts.Verify.InjectFault = [Armed](mir::MModule &, codegen::Image &Img,
                                    uint64_t) {
    if (*Armed && !Img.Text.empty())
      Img.Text[Img.Text.size() / 2] ^= 0x40;
  };
  Opts.TamperReplica = [&, Armed](unsigned Replica, mir::MModule &M) {
    *Armed = true;
    if (Replica == 0)
      M = Evil.MIR;
  };
  std::vector<std::vector<int32_t>> Battery = {{1}, {2}};
  nvx::NvxResult R = nvx::runLockstep(P, Battery, Opts);
  EXPECT_EQ(R.Ejections, 1u);
  EXPECT_EQ(R.Respawns, 0u);
  EXPECT_EQ(R.RespawnFailures, 1u);
  EXPECT_EQ(R.ActiveReplicas, 2u);
  EXPECT_EQ(R.Ejections, R.Respawns + R.RespawnFailures);
  // Two surviving replicas still form a full coalition: the session
  // finishes in consensus rather than aborting.
  EXPECT_EQ(R.MaskedFaultRounds, 1u);
  EXPECT_EQ(R.ConsensusRounds, 1u);
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R.FinalSeeds.size(), 2u);
}

TEST(Nvx, ExportsMetricsWithPartitionInvariant) {
  obs::Registry::global().reset();
  obs::setEnabled(true);
  driver::Program P = compile(SumSource, "sum");
  driver::Program Evil = compile(SumPlusOneSource, "sum1");
  nvx::NvxOptions Opts;
  Opts.Replicas = 3;
  Opts.EjectAfter = 1;
  Opts.TamperReplica = [&](unsigned Replica, mir::MModule &M) {
    if (Replica == 0)
      M = Evil.MIR;
  };
  std::vector<std::vector<int32_t>> Battery = {{1}, {2}, {3}};
  nvx::NvxResult R = nvx::runLockstep(P, Battery, Opts);
  obs::LocalMetrics Snap = obs::Registry::global().snapshot();
  obs::setEnabled(false);
  auto Counter = [&](const char *Name) -> uint64_t {
    auto It = Snap.Counters.find(Name);
    return It == Snap.Counters.end() ? 0 : It->second;
  };
  EXPECT_EQ(Counter("nvx.rounds"), R.Rounds);
  EXPECT_EQ(Counter("nvx.rounds_consensus") +
                Counter("nvx.rounds_masked") +
                Counter("nvx.rounds_no_quorum"),
            Counter("nvx.rounds"));
  EXPECT_EQ(Counter("nvx.divergences"), R.Divergences);
  EXPECT_EQ(Counter("nvx.ejections"), R.Ejections);
  EXPECT_EQ(Counter("nvx.respawns"), R.Respawns);
  EXPECT_LE(Counter("nvx.ejections"),
            Counter("nvx.respawns") + R.ReplicasRequested);
  auto Hist = Snap.Histograms.find("nvx.vote_latency_seconds");
  ASSERT_NE(Hist, Snap.Histograms.end());
  uint64_t Total = 0;
  for (uint64_t C : Hist->second.Counts)
    Total += C;
  EXPECT_EQ(Total, R.Rounds);
}
