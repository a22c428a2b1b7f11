//===-- tests/EngineParityTest.cpp - Fast-vs-reference engine parity -------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// The contract under test (mexec/Precompiled.h): the precompiled
// direct-threaded engine returns *bit-identical* RunResults to the
// tree-walking reference engine -- every field, on every program. The
// corpus stacks the deck:
//
//  - all 19 workloads, with output, block counts, and instrumented
//    profile counters collected,
//  - 200 generated MiniC programs (tests/MiniCFuzzer.h) plus
//    diversified variants (XCHG NOPs, block shift),
//  - programs that trap every way the machine can trap (step budget,
//    call depth, #DE both ways, bad memory, stack overflow, ADC/SBB),
//    where the engines must agree on kind, reason string, and the exact
//    instruction/cycle counts at the trap point,
//  - fault-injected variants (analysis/MirFault.h) that survive
//    mir::verify, exercising broken-but-executable control flow,
//  - custom cost models (baked streams, and the stream rebuilt when a
//    run's costs differ from the baked ones),
//  - segment boundaries: a step budget at every position of an
//    all-transform variant, memory traps in the middle of a segment, a
//    pre-set cancel flag on segments that straddle a poll point, block
//    counts on an entry block that is also a loop target, and one
//    shared stream run from several threads at once.
//
//===----------------------------------------------------------------------===//

#include "analysis/MirFault.h"
#include "diversity/NopInsertion.h"
#include "diversity/Transform.h"
#include "driver/Driver.h"
#include "mexec/Precompiled.h"
#include "profile/Profile.h"
#include "workloads/Workloads.h"

#include "MiniCFuzzer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <functional>
#include <string>
#include <thread>
#include <vector>

using namespace pgsd;
using namespace pgsd::mir;
using x86::CondCode;
using x86::Reg;

namespace {

/// Field-for-field RunResult equality with per-field diagnostics.
void expectSame(const mexec::RunResult &Ref, const mexec::RunResult &Fast,
                const std::string &What) {
  SCOPED_TRACE(What);
  EXPECT_EQ(Ref.Trapped, Fast.Trapped);
  EXPECT_EQ(Ref.Trap, Fast.Trap)
      << mexec::trapKindName(Ref.Trap) << " vs "
      << mexec::trapKindName(Fast.Trap);
  EXPECT_EQ(Ref.TrapReason, Fast.TrapReason);
  EXPECT_EQ(Ref.ExitCode, Fast.ExitCode);
  EXPECT_EQ(Ref.Cycles10, Fast.Cycles10);
  EXPECT_EQ(Ref.Instructions, Fast.Instructions);
  EXPECT_EQ(Ref.Checksum, Fast.Checksum);
  EXPECT_EQ(Ref.Output, Fast.Output);
  EXPECT_EQ(Ref.Counters, Fast.Counters);
  EXPECT_EQ(Ref.BlockCounts, Fast.BlockCounts);
}

/// Runs \p M on both engines and asserts bit-identity.
void runBoth(const MModule &M, const mexec::RunOptions &Opts,
             const std::string &What) {
  mexec::RunResult Ref = mexec::run(M, Opts);
  mexec::Precompiled P(M, Opts.Costs);
  expectSame(Ref, P.run(Opts), What);
  // One compiled stream must serve repeated runs (the BaselineCache and
  // diffExecute reuse patterns): a second run from the same stream must
  // reproduce the first.
  expectSame(Ref, P.run(Opts), What + " (stream reuse)");
}

mexec::RunOptions fullCollect(const std::vector<int32_t> &Input) {
  mexec::RunOptions Opts;
  Opts.Input = Input;
  Opts.CollectOutput = true;
  Opts.CollectBlockCounts = true;
  Opts.MaxSteps = 50'000'000;
  return Opts;
}

} // namespace

//===----------------------------------------------------------------------===//
// Workload suite
//===----------------------------------------------------------------------===//

TEST(EngineParity, WorkloadSuiteFieldForField) {
  for (const workloads::Workload &W : workloads::specSuite()) {
    driver::Program P = driver::compileProgram(W.Source, W.Name);
    ASSERT_TRUE(P.ok()) << P.errors();
    runBoth(P.MIR, fullCollect(W.TrainInput), W.Name);
  }
}

TEST(EngineParity, InstrumentedCountersMatch) {
  // ProfInc counters feed minimal-counter profiling; both engines must
  // agree on every counter value (and on everything else while
  // instrumented).
  for (const workloads::Workload &W : workloads::specSuite()) {
    driver::Program P = driver::compileProgram(W.Source, W.Name);
    ASSERT_TRUE(P.ok()) << P.errors();
    MModule Instrumented = P.MIR;
    profile::InstrumentationPlan Plan =
        profile::instrumentModule(Instrumented);
    Instrumented.NumProfCounters = Plan.NumCounters;
    runBoth(Instrumented, fullCollect(W.TrainInput),
            W.Name + " (instrumented)");
  }
}

TEST(EngineParity, DiversifiedVariantsMatch) {
  // NOP-inserted (including bus-locking XCHG forms) and block-shifted
  // variants: the transformed streams the verifier actually executes.
  for (const workloads::Workload &W : workloads::specSuite()) {
    driver::Program P = driver::compileProgram(W.Source, W.Name);
    ASSERT_TRUE(P.ok()) << P.errors();
    ASSERT_TRUE(driver::profileAndStamp(P, W.TrainInput));
    diversity::DiversityOptions D = diversity::DiversityOptions::profiled(
        diversity::ProbabilityModel::Log, 0.0, 0.5);
    D.IncludeXchgNops = true;
    MModule V = diversity::makeVariant(P.MIR, D, /*Seed=*/0xd1ce + 1);
    runBoth(V, fullCollect(W.TrainInput), W.Name + " (variant)");
    diversity::insertBlockShift(V, 0xb10c);
    runBoth(V, fullCollect(W.TrainInput), W.Name + " (block-shifted)");
  }
}

//===----------------------------------------------------------------------===//
// Fuzz corpus
//===----------------------------------------------------------------------===//

class EngineParityFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineParityFuzz, GeneratedProgramsMatch) {
  uint64_t Seed = GetParam();
  // Same derivation as FuzzMiniCTest: identical corpus, different
  // property (cross-engine bit-identity instead of variant equality).
  MiniCFuzzer Fuzzer(Seed * 0x9e3779b97f4a7c15ull + 1);
  std::string Source = Fuzzer.generate();
  SCOPED_TRACE("fuzz seed " + std::to_string(Seed) + "\n" + Source);
  driver::Program P = driver::compileProgram(Source, "fuzz");
  ASSERT_TRUE(P.ok()) << P.errors();
  runBoth(P.MIR, fullCollect({5, -3, 99, 0, 7, 123}),
          "seed " + std::to_string(Seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineParityFuzz,
                         ::testing::Range<uint64_t>(0, 200));

//===----------------------------------------------------------------------===//
// Trap corpus: the engines must agree at the exact trap point.
//===----------------------------------------------------------------------===//

namespace {

void runBothSource(const char *Source, const mexec::RunOptions &Opts,
                   mexec::TrapKind Expect, const std::string &What) {
  driver::Program P = driver::compileProgram(Source, "trap");
  ASSERT_TRUE(P.ok()) << P.errors();
  mexec::RunResult Ref = mexec::run(P.MIR, Opts);
  EXPECT_TRUE(Ref.Trapped);
  EXPECT_EQ(Ref.Trap, Expect);
  mexec::Precompiled PC(P.MIR, Opts.Costs);
  expectSame(Ref, PC.run(Opts), What);
}

/// Builds `main() { eax = A; <op>; ret }` by hand for instructions the
/// MiniC frontend cannot express.
MModule handBuilt(const std::function<void(MBasicBlock &)> &Fill) {
  MModule M;
  M.EntryFunction = 0;
  MFunction F;
  F.Name = "main";
  MBasicBlock BB;
  Fill(BB);
  MInstr Ret;
  Ret.Op = MOp::Ret;
  BB.Instrs.push_back(Ret);
  F.Blocks.push_back(std::move(BB));
  M.Functions.push_back(std::move(F));
  return M;
}

} // namespace

TEST(EngineParityTrap, StepBudget) {
  mexec::RunOptions Opts;
  Opts.CollectOutput = true;
  Opts.CollectBlockCounts = true;
  // Sweep budgets so the trap lands on different instruction kinds
  // (loop body, compare, branch): the budget check order is part of the
  // bit-identity contract.
  for (uint64_t Budget : {1ull, 2ull, 17ull, 100ull, 1000ull, 4096ull}) {
    Opts.MaxSteps = Budget;
    runBothSource(R"(
      fn main() {
        var i = 0;
        while (i >= 0) { i = i + 1; }
        return i;
      }
    )",
                  Opts, mexec::TrapKind::StepBudget,
                  "budget " + std::to_string(Budget));
  }
}

TEST(EngineParityTrap, PreSetCancelFlag) {
  // Cooperative cancellation (the nvx watchdog's kill switch): both
  // engines poll RunOptions::Cancel at the same counted-instruction
  // stride, so a flag raised before the run starts traps bit-identically
  // at the first poll point. (Mid-run cancellation is wall-clock timing
  // and thus exempt from the bit-identity contract.)
  std::atomic<bool> Flag{true};
  mexec::RunOptions Opts;
  Opts.CollectOutput = true;
  Opts.CollectBlockCounts = true;
  Opts.Cancel = &Flag;
  runBothSource(R"(
    fn main() {
      var i = 0;
      while (i >= 0) { i = i + 1; }
      return i;
    }
  )",
                Opts, mexec::TrapKind::Cancelled, "pre-set cancel");
  EXPECT_STREQ(mexec::trapKindName(mexec::TrapKind::Cancelled),
               "cancelled");
}

TEST(EngineParityTrap, CallDepth) {
  mexec::RunOptions Opts;
  Opts.MaxCallDepth = 16;
  runBothSource("fn down(n) { return down(n + 1); }\n"
                "fn main() { return down(0); }",
                Opts, mexec::TrapKind::CallDepth, "call depth");
}

TEST(EngineParityTrap, DivideByZeroAndOverflow) {
  mexec::RunOptions Opts;
  Opts.Input = {0};
  runBothSource("fn main() { return 10 / read_int(); }", Opts,
                mexec::TrapKind::DivideByZero, "zero divisor");
  Opts.Input = {INT32_MIN, -1};
  runBothSource("fn main() { return read_int() / read_int(); }", Opts,
                mexec::TrapKind::DivideByZero, "INT_MIN / -1");
}

TEST(EngineParityTrap, StackOverflow) {
  // 4 KiB frames recurse through the 11 MiB stack window long before
  // the default call-depth limit.
  mexec::RunOptions Opts;
  runBothSource(R"(
    fn down(n) {
      array t[1024];
      t[n & 1023] = n;
      return down(n + 1) + t[0];
    }
    fn main() { return down(0); }
  )",
                Opts, mexec::TrapKind::StackOverflow, "stack overflow");
}

TEST(EngineParityTrap, BadMemoryLoadAndStore) {
  for (int32_t Addr : {INT32_MAX, 0, 42, -4, INT32_MIN}) {
    for (bool IsStore : {false, true}) {
      MModule M = handBuilt([&](MBasicBlock &BB) {
        MInstr Mov;
        Mov.Op = MOp::MovRI;
        Mov.Dst = Reg::EAX;
        Mov.Imm = Addr;
        BB.Instrs.push_back(Mov);
        MInstr Bad;
        Bad.Op = IsStore ? MOp::Store : MOp::Load;
        Bad.Dst = IsStore ? Reg::EAX : Reg::ECX;
        Bad.Src = IsStore ? Reg::ECX : Reg::EAX;
        Bad.Imm = 0;
        BB.Instrs.push_back(Bad);
      });
      mexec::RunResult Ref = mexec::run(M, {});
      ASSERT_TRUE(Ref.Trapped);
      EXPECT_EQ(Ref.Trap, mexec::TrapKind::BadMemory);
      mexec::Precompiled P(M);
      expectSame(Ref, P.run({}),
                 std::string(IsStore ? "store @" : "load @") +
                     std::to_string(Addr));
    }
  }
}

TEST(EngineParityTrap, AdcSbbAreBadInstructions) {
  for (x86::AluOp Op : {x86::AluOp::Adc, x86::AluOp::Sbb}) {
    MModule M = handBuilt([&](MBasicBlock &BB) {
      MInstr I;
      I.Op = MOp::AluRR;
      I.Alu = Op;
      I.Dst = Reg::EAX;
      I.Src = Reg::ECX;
      BB.Instrs.push_back(I);
    });
    mexec::RunResult Ref = mexec::run(M, {});
    ASSERT_TRUE(Ref.Trapped);
    EXPECT_EQ(Ref.Trap, mexec::TrapKind::BadInstruction);
    mexec::Precompiled P(M);
    expectSame(Ref, P.run({}), "ADC/SBB");
  }
}

//===----------------------------------------------------------------------===//
// Fault-injected corpus: broken-but-executable modules.
//===----------------------------------------------------------------------===//

TEST(EngineParity, FaultInjectedVariantsMatch) {
  const workloads::Workload &W = workloads::specWorkload("401.bzip2");
  driver::Program P = driver::compileProgram(W.Source, W.Name);
  ASSERT_TRUE(P.ok()) << P.errors();
  mexec::RunOptions Opts = fullCollect(W.TrainInput);
  // Corrupted modules may loop or wander; keep runs bounded.
  Opts.MaxSteps = 2'000'000;
  unsigned Executed = 0;
  for (unsigned C = 0; C != analysis::NumMirFaultClasses; ++C) {
    for (uint64_t Seed = 1; Seed != 9; ++Seed) {
      MModule V = P.MIR;
      std::string Desc;
      if (!analysis::injectMirFault(
              V, static_cast<analysis::MirFaultClass>(C), Seed, &Desc))
        continue;
      // The production pipeline (verify::verifyVariant) refuses to
      // execute modules that fail mir::verify, so the contract only
      // covers verifiable ones.
      if (!mir::verify(V).empty())
        continue;
      ++Executed;
      runBoth(V, Opts, "fault class " + std::to_string(C) + " seed " +
                           std::to_string(Seed) + ": " + Desc);
    }
  }
  // The corpus must actually exercise faulted modules, not skip its way
  // to green.
  EXPECT_GE(Executed, 12u);
}

//===----------------------------------------------------------------------===//
// Custom cost models
//===----------------------------------------------------------------------===//

TEST(EngineParity, CustomCostsMatchViaBakedStream) {
  const workloads::Workload &W = workloads::specWorkload("429.mcf");
  driver::Program P = driver::compileProgram(W.Source, W.Name);
  ASSERT_TRUE(P.ok()) << P.errors();
  mexec::RunOptions Opts = fullCollect(W.TrainInput);
  Opts.Costs.Nop = 17;
  Opts.Costs.Idiv = 999;
  Opts.Costs.Call = 1;
  // A stream baked against the custom model executes it natively.
  runBoth(P.MIR, Opts, "custom costs, baked");
}

TEST(EngineParity, CostMismatchRebuildsStream) {
  const workloads::Workload &W = workloads::specWorkload("429.mcf");
  driver::Program P = driver::compileProgram(W.Source, W.Name);
  ASSERT_TRUE(P.ok()) << P.errors();
  // Stream baked against the default model, run with a different one:
  // Precompiled::run must detect the mismatch and run a stream rebuilt
  // against the run's costs rather than charge stale ones.
  mexec::Precompiled PC(P.MIR);
  mexec::RunOptions Opts = fullCollect(W.TrainInput);
  Opts.Costs.Alu *= 3;
  expectSame(mexec::run(P.MIR, Opts), PC.run(Opts), "mismatched costs");
}

//===----------------------------------------------------------------------===//
// Segment boundaries: the fast engine counts and charges straight-line
// segments at their heads, and must still agree with the reference
// engine wherever a run stops inside one.
//===----------------------------------------------------------------------===//

namespace {

/// A small program with calls in the middle of blocks, prints, and a
/// divide, so segments end at calls and resume at their returns. The
/// first input is the loop's trip count.
const char *const SegmentSource = R"(
  fn sq(x) { var t = x * x; return t + 1; }
  fn main() {
    var n = read_int();
    var s = 0;
    var i = 0;
    while (i < n) {
      s = s + sq(i) * 3;
      print_int(s);
      i = i + 1;
    }
    print_int(s / (i + 1));
    return s;
  }
)";

/// The all-transform (nop+shift+sched+regs) variant of SegmentSource.
MModule allTransformVariant() {
  driver::Program P = driver::compileProgram(SegmentSource, "segments");
  EXPECT_TRUE(P.ok()) << P.errors();
  EXPECT_TRUE(driver::profileAndStamp(P, {5}));
  MModule V = P.MIR;
  using diversity::TransformKind;
  diversity::Pipeline({TransformKind::Nop, TransformKind::Shift,
                       TransformKind::Sched, TransformKind::Regs})
      .run(V, diversity::DiversityOptions::uniform(0.5), /*Seed=*/7);
  EXPECT_TRUE(mir::verify(V).empty());
  return V;
}

MInstr instr(MOp Op, Reg Dst = Reg::EAX, Reg Src = Reg::EAX,
             int32_t Imm = 0) {
  MInstr I;
  I.Op = Op;
  I.Dst = Dst;
  I.Src = Src;
  I.Imm = Imm;
  return I;
}

MInstr jcc(CondCode CC, uint32_t Target) {
  MInstr I = instr(MOp::Jcc, Reg::EAX, Reg::EAX,
                   static_cast<int32_t>(Target));
  I.CC = CC;
  return I;
}

MInstr callFunc(uint32_t Func) {
  MInstr I = instr(MOp::Call);
  I.Target = ir::Callee::function(Func);
  return I;
}

} // namespace

TEST(EngineParitySegments, EveryStepBudgetOnAllTransformVariant) {
  MModule V = allTransformVariant();
  // The shape this test exists for: NOPs, a call that does not end its
  // block, and a print.
  bool Nops = false, MidBlockCall = false, Print = false;
  for (const MFunction &F : V.Functions)
    for (const MBasicBlock &BB : F.Blocks)
      for (size_t I = 0; I != BB.Instrs.size(); ++I) {
        const MInstr &MI = BB.Instrs[I];
        Nops = Nops || MI.Op == MOp::Nop;
        if (MI.Op == MOp::Call && !MI.Target.IsIntrinsic)
          MidBlockCall = MidBlockCall || I + 1 != BB.Instrs.size();
        if (MI.Op == MOp::Call && MI.Target.IsIntrinsic)
          Print = Print || MI.Target.Intr == ir::Intrinsic::PrintI32;
      }
  ASSERT_TRUE(Nops && MidBlockCall && Print);

  mexec::RunOptions Opts;
  Opts.Input = {5};
  Opts.CollectOutput = true;
  Opts.CollectBlockCounts = true;
  mexec::RunResult Full = mexec::run(V, Opts);
  ASSERT_FALSE(Full.Trapped);
  mexec::Precompiled PC(V);
  expectSame(Full, PC.run(Opts), "unbounded");
  // Every budget up to the run's length puts the trap at every position
  // of every dynamic segment: its head, its middle, a callee's first
  // instruction, the instruction after a return. The last budget is
  // exactly enough, so it must not trap.
  for (uint64_t Budget = 1; Budget <= Full.Instructions; ++Budget) {
    Opts.MaxSteps = Budget;
    expectSame(mexec::run(V, Opts), PC.run(Opts),
               "budget " + std::to_string(Budget));
    if (HasFailure())
      break;
  }
}

TEST(EngineParitySegments, BadMemoryAfterNopsMidBlock) {
  // mov eax, addr; mov ecx, 5; nop x3; <load|store>; add ecx, 1; nop;
  // ret -- the trapping access sits in the middle of the block's only
  // segment, with charged instructions on both sides of it.
  // The access adds a displacement of 8; INT32_MAX - 8 reaches the top
  // of the address space without a signed overflow.
  for (int32_t Addr : {0, 42, INT32_MAX - 8}) {
    for (bool IsStore : {false, true}) {
      MModule M = handBuilt([&](MBasicBlock &BB) {
        BB.Instrs.push_back(instr(MOp::MovRI, Reg::EAX, Reg::EAX, Addr));
        BB.Instrs.push_back(instr(MOp::MovRI, Reg::ECX, Reg::EAX, 5));
        for (int N = 0; N != 3; ++N)
          BB.Instrs.push_back(instr(MOp::Nop));
        BB.Instrs.push_back(IsStore
                                ? instr(MOp::Store, Reg::EAX, Reg::ECX, 8)
                                : instr(MOp::Load, Reg::ECX, Reg::EAX, 8));
        MInstr Add = instr(MOp::AluRI, Reg::ECX, Reg::ECX, 1);
        Add.Alu = x86::AluOp::Add;
        BB.Instrs.push_back(Add);
        BB.Instrs.push_back(instr(MOp::Nop));
      });
      mexec::RunOptions Opts;
      Opts.CollectBlockCounts = true;
      mexec::RunResult Ref = mexec::run(M, Opts);
      ASSERT_TRUE(Ref.Trapped);
      EXPECT_EQ(Ref.Trap, mexec::TrapKind::BadMemory);
      EXPECT_EQ(Ref.Instructions, 6u);
      mexec::Precompiled P(M);
      expectSame(Ref, P.run(Opts),
                 std::string(IsStore ? "store @" : "load @") +
                     std::to_string(Addr));
    }
  }
}

TEST(EngineParitySegments, PreSetCancelOnSegmentsStraddlingPollPoints) {
  // mbb0: mov ecx, 0
  // mbb1: nop x K; add ecx, 1; cmp ecx, 1000000; jl mbb1
  // mbb2: ret
  // The loop's segment is K + 3 instructions long; none of these
  // lengths divides 1023, so a poll point falls inside some segment
  // rather than at its end.
  for (int K : {2, 4, 10, 14}) {
    ASSERT_NE(1023 % (K + 3), 0);
    MModule M;
    M.EntryFunction = 0;
    MFunction F;
    F.Name = "main";
    F.Blocks.resize(3);
    F.Blocks[0].Instrs.push_back(instr(MOp::MovRI, Reg::ECX, Reg::EAX, 0));
    for (int N = 0; N != K; ++N)
      F.Blocks[1].Instrs.push_back(instr(MOp::Nop));
    MInstr Add = instr(MOp::AluRI, Reg::ECX, Reg::ECX, 1);
    Add.Alu = x86::AluOp::Add;
    F.Blocks[1].Instrs.push_back(Add);
    MInstr Cmp = instr(MOp::AluRI, Reg::ECX, Reg::ECX, 1'000'000);
    Cmp.Alu = x86::AluOp::Cmp;
    F.Blocks[1].Instrs.push_back(Cmp);
    F.Blocks[1].Instrs.push_back(jcc(CondCode::L, 1));
    F.Blocks[2].Instrs.push_back(instr(MOp::Ret));
    M.Functions.push_back(std::move(F));
    ASSERT_TRUE(mir::verify(M).empty());

    mexec::Precompiled P(M);
    mexec::RunOptions Opts;
    Opts.CollectBlockCounts = true;
    std::atomic<bool> Flag{true};
    Opts.Cancel = &Flag;
    mexec::RunResult Ref = mexec::run(M, Opts);
    ASSERT_TRUE(Ref.Trapped);
    EXPECT_EQ(Ref.Trap, mexec::TrapKind::Cancelled);
    EXPECT_EQ(Ref.Instructions, mexec::CancelPollStride);
    expectSame(Ref, P.run(Opts), "pre-set cancel, K=" + std::to_string(K));
    // An installed flag that stays clear polls at every stride and
    // never fires: the run must finish exactly as without one.
    Flag = false;
    Opts.MaxSteps = 200'000;
    expectSame(mexec::run(M, Opts), P.run(Opts),
               "clear cancel flag, K=" + std::to_string(K));
  }
}

TEST(EngineParitySegments, EntryBlockThatIsALoopTarget) {
  // f:    mbb0: add eax, 1; cmp eax, 9; jl mbb0    (entry and loop)
  //       mbb1: ret
  // main: mbb0: mov eax, 0; call f; call f; nop; ret
  // Block 0 of f is entered by each call and by each back edge; the
  // second call finds eax = 9 and leaves after one pass.
  MModule M;
  M.EntryFunction = 0;
  MFunction Main;
  Main.Name = "main";
  Main.Blocks.resize(1);
  Main.Blocks[0].Instrs = {instr(MOp::MovRI, Reg::EAX, Reg::EAX, 0),
                           callFunc(1), callFunc(1), instr(MOp::Nop),
                           instr(MOp::Ret)};
  MFunction F;
  F.Name = "f";
  F.Blocks.resize(2);
  MInstr Add = instr(MOp::AluRI, Reg::EAX, Reg::EAX, 1);
  Add.Alu = x86::AluOp::Add;
  MInstr Cmp = instr(MOp::AluRI, Reg::EAX, Reg::EAX, 9);
  Cmp.Alu = x86::AluOp::Cmp;
  F.Blocks[0].Instrs = {Add, Cmp, jcc(CondCode::L, 0)};
  F.Blocks[1].Instrs = {instr(MOp::Ret)};
  M.Functions.push_back(std::move(Main));
  M.Functions.push_back(std::move(F));
  ASSERT_TRUE(mir::verify(M).empty());

  mexec::RunOptions Opts;
  Opts.CollectBlockCounts = true;
  mexec::RunResult Ref = mexec::run(M, Opts);
  ASSERT_FALSE(Ref.Trapped);
  const std::vector<std::vector<uint64_t>> Expected = {{1}, {10, 2}};
  EXPECT_EQ(Ref.BlockCounts, Expected);
  EXPECT_EQ(Ref.ExitCode, 10);
  mexec::Precompiled P(M);
  expectSame(Ref, P.run(Opts), "entry block as loop target");
}

TEST(EngineParitySegments, ConcurrentRunsShareOneStream) {
  // Batch workers run one shared Precompiled at once; every piece of
  // segment state must be per run. Each thread repeats a mix of option
  // sets that take both modes and trap inside segments, and must
  // reproduce the serial results.
  MModule V = allTransformVariant();
  const mexec::Precompiled P(V);
  std::atomic<bool> Raised{true};
  std::vector<mexec::RunOptions> Mix(5);
  for (mexec::RunOptions &O : Mix) {
    O.Input = {300}; // long enough to pass several cancel poll points
    O.CollectOutput = true;
    O.CollectBlockCounts = true;
  }
  Mix[1].MaxSteps = 37;
  Mix[2].MaxSteps = 5000;
  Mix[3].MaxCallDepth = 0;
  Mix[4].Cancel = &Raised;
  std::vector<mexec::RunResult> Serial;
  for (const mexec::RunOptions &O : Mix) {
    Serial.push_back(P.run(O));
    expectSame(mexec::run(V, O), Serial.back(), "serial");
  }
  EXPECT_FALSE(Serial[0].Trapped);
  EXPECT_EQ(Serial[1].Trap, mexec::TrapKind::StepBudget);
  EXPECT_EQ(Serial[2].Trap, mexec::TrapKind::StepBudget);
  EXPECT_EQ(Serial[3].Trap, mexec::TrapKind::CallDepth);
  EXPECT_EQ(Serial[4].Trap, mexec::TrapKind::Cancelled);

  constexpr unsigned Threads = 4;
  constexpr unsigned Rounds = 8;
  std::vector<std::vector<mexec::RunResult>> Got(Threads);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&, T] {
      for (unsigned R = 0; R != Rounds; ++R)
        for (size_t I = 0; I != Mix.size(); ++I)
          Got[T].push_back(P.run(Mix[(I + T) % Mix.size()]));
    });
  for (std::thread &Th : Pool)
    Th.join();
  for (unsigned T = 0; T != Threads; ++T) {
    ASSERT_EQ(Got[T].size(), Rounds * Mix.size());
    for (size_t K = 0; K != Got[T].size(); ++K)
      expectSame(Serial[(K % Mix.size() + T) % Mix.size()], Got[T][K],
                 "thread " + std::to_string(T) + " run " +
                     std::to_string(K));
  }
}
