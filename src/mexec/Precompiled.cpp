//===-- mexec/Precompiled.cpp - Direct-threaded execution engine -----------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// Two halves: a one-shot lowering pass (the constructor) that flattens
// an MModule into the PInstr stream, and the executor, which dispatches
// that stream with computed gotos (or a plain switch when the extension
// is unavailable). The executor mirrors the reference engine's charge
// and trap ordering *exactly* -- cost-before-trap on stores/pushes/idiv,
// cost-after-read on loads/pops, prologue cost only after the stack
// limit check -- because the bit-identity contract includes Cycles10 and
// Instructions on trapping runs, not just clean ones.
//
//===----------------------------------------------------------------------===//

#include "mexec/Precompiled.h"

#include "codegen/Layout.h"
#include "mexec/Flags.h"
#include "x86/Nops.h"

#include <cassert>
#include <cstdio>
#include <cstring>

using namespace pgsd;
using namespace pgsd::mexec;
using namespace pgsd::mexec::detail;
using namespace pgsd::mir;

// Computed goto is a GNU extension; fall back to a switch elsewhere (or
// when forced, so the fallback stays buildable and testable on GCC too).
#if !defined(PGSD_MEXEC_FORCE_SWITCH) && defined(__GNUC__)
#define PGSD_MEXEC_COMPUTED_GOTO 1
#else
#define PGSD_MEXEC_COMPUTED_GOTO 0
#endif

namespace {

/// Dense register indices (x86 hardware encoding, same as x86::regNum).
constexpr unsigned RegEAX = 0;
constexpr unsigned RegECX = 1;
constexpr unsigned RegEDX = 2;
constexpr unsigned RegEBX = 3;
constexpr unsigned RegESP = 4;
constexpr unsigned RegEBP = 5;
constexpr unsigned RegESI = 6;
constexpr unsigned RegEDI = 7;

/// Reusable per-thread run memory. A fresh 16 MiB zero fill per run
/// would dominate short runs, so writes mark 64 KiB pages dirty and the
/// next run on this thread clears only those.
constexpr uint32_t PageShift = 16;
constexpr uint32_t NumPages = codegen::MemorySize >> PageShift;

struct Scratch {
  std::vector<uint8_t> Mem;
  uint8_t Dirty[NumPages] = {};
};

Scratch &acquireScratch() {
  thread_local Scratch S;
  if (S.Mem.empty()) {
    S.Mem.assign(codegen::MemorySize, 0);
  } else {
    for (uint32_t P = 0; P != NumPages; ++P) {
      if (S.Dirty[P]) {
        std::memset(S.Mem.data() + (static_cast<size_t>(P) << PageShift),
                    0, static_cast<size_t>(1) << PageShift);
        S.Dirty[P] = 0;
      }
    }
  }
  return S;
}

} // namespace

Precompiled::Precompiled(const MModule &M, const CostModel &C)
    : Src(&M), Costs(C) {
  assert(M.EntryFunction >= 0 && "module has no entry function");
  assert(mir::verify(M).empty() && "machine module must verify");
  EntryFunc = static_cast<uint32_t>(M.EntryFunction);
  NumCounters = M.NumProfCounters;

  // Global address layout, identical to the reference engine's.
  std::vector<uint32_t> GlobalAddrs;
  GlobalAddrs.reserve(M.Globals.size());
  {
    uint32_t Addr = codegen::GlobalsBase;
    for (const ir::Global &G : M.Globals) {
      GlobalAddrs.push_back(Addr);
      Addr += (G.SizeBytes + 3u) & ~3u;
    }
  }
  // Pre-check the init writes the reference engine performs one by one;
  // a write that would trap there makes every run of this module trap
  // before executing anything (replayed by the executor's early-out).
  for (size_t GI = 0; GI != M.Globals.size() && !InitTraps; ++GI) {
    const ir::Global &G = M.Globals[GI];
    for (size_t W = 0; W != G.Init.size(); ++W) {
      uint32_t WAddr = GlobalAddrs[GI] + static_cast<uint32_t>(4 * W);
      if (static_cast<uint64_t>(WAddr) + 4 > codegen::MemorySize ||
          WAddr < 0x1000) {
        InitTraps = true;
        break;
      }
      InitWrites.push_back({WAddr, G.Init[W]});
    }
  }
  if (InitTraps)
    InitWrites.clear();

  // Layout pass: every block contributes one BlockHead plus its
  // instructions; every function is closed by a FellOff guard.
  size_t NumFuncs = M.Functions.size();
  FlatBase.resize(NumFuncs);
  BlocksPerFunc.resize(NumFuncs);
  std::vector<std::vector<uint32_t>> BlockOffset(NumFuncs);
  uint32_t Offset = 0;
  for (size_t FI = 0; FI != NumFuncs; ++FI) {
    const MFunction &F = M.Functions[FI];
    FlatBase[FI] = NumFlatBlocks;
    BlocksPerFunc[FI] = static_cast<uint32_t>(F.Blocks.size());
    NumFlatBlocks += BlocksPerFunc[FI];
    BlockOffset[FI].resize(F.Blocks.size());
    for (size_t B = 0; B != F.Blocks.size(); ++B) {
      BlockOffset[FI][B] = Offset;
      Offset += 1 + static_cast<uint32_t>(F.Blocks[B].Instrs.size());
    }
    Offset += 1; // FellOff
  }

  Funcs.resize(NumFuncs);
  for (size_t FI = 0; FI != NumFuncs; ++FI) {
    const MFunction &F = M.Functions[FI];
    uint32_t Saved = (F.UsesEbx ? 1 : 0) + (F.UsesEsi ? 1 : 0) +
                     (F.UsesEdi ? 1 : 0);
    Funcs[FI].Entry = BlockOffset[FI][0] + 1; // past block 0's head
    Funcs[FI].FrameDrop = F.FrameBytes + 4 * Saved;
    Funcs[FI].PrologueCost =
        C.Push + C.MovRR + C.Alu + Saved * C.Push;
    Funcs[FI].Block0Flat = FlatBase[FI];
  }

  // Emission pass.
  Code.reserve(Offset);
  for (size_t FI = 0; FI != NumFuncs; ++FI) {
    const MFunction &F = M.Functions[FI];
    uint32_t Saved = (F.UsesEbx ? 1 : 0) + (F.UsesEsi ? 1 : 0) +
                     (F.UsesEdi ? 1 : 0);
    uint32_t RetCost = Saved * C.Pop + C.Pop /*leave*/ + C.Ret;
    for (size_t B = 0; B != F.Blocks.size(); ++B) {
      assert(Code.size() == BlockOffset[FI][B] && "layout drifted");
      PInstr Head;
      Head.Op = POp::BlockHead;
      Head.Ext = FlatBase[FI] + static_cast<uint32_t>(B);
      Code.push_back(Head);
      for (const MInstr &MI : F.Blocks[B].Instrs) {
        PInstr P;
        P.Op = POp::FellOff; // overwritten below; trap if a case is missed
        switch (MI.Op) {
        case MOp::MovRR:
          P.Op = POp::MovRR;
          P.A = x86::regNum(MI.Dst);
          P.B = x86::regNum(MI.Src);
          P.Cost = C.MovRR;
          break;
        case MOp::MovRI:
          P.Op = POp::MovRI;
          P.A = x86::regNum(MI.Dst);
          P.Imm = MI.Imm;
          P.Cost = C.MovRI;
          break;
        case MOp::MovGlobal:
          // Address resolved now; at run time this is a plain MovRI.
          P.Op = POp::MovRI;
          P.A = x86::regNum(MI.Dst);
          P.Imm = static_cast<int32_t>(
              GlobalAddrs[static_cast<size_t>(MI.Imm)]);
          P.Cost = C.MovRI;
          break;
        case MOp::Load:
          P.Op = POp::Load;
          P.A = x86::regNum(MI.Dst);
          P.B = x86::regNum(MI.Src);
          P.Imm = MI.Imm;
          P.Cost = C.Load;
          break;
        case MOp::Store:
          P.Op = POp::Store;
          P.A = x86::regNum(MI.Dst); // base address register
          P.B = x86::regNum(MI.Src); // value
          P.Imm = MI.Imm;
          P.Cost = C.Store;
          break;
        case MOp::LoadFrame:
          P.Op = POp::LoadFrame;
          P.A = x86::regNum(MI.Dst);
          P.Imm = MI.Imm;
          P.Cost = C.FrameLoad;
          break;
        case MOp::StoreFrame:
          P.Op = POp::StoreFrame;
          P.B = x86::regNum(MI.Src);
          P.Imm = MI.Imm;
          P.Cost = C.FrameStore;
          break;
        case MOp::LeaFrame:
          P.Op = POp::LeaFrame;
          P.A = x86::regNum(MI.Dst);
          P.Imm = MI.Imm;
          P.Cost = C.Lea;
          break;
        case MOp::AluRR:
        case MOp::AluRI: {
          bool RR = MI.Op == MOp::AluRR;
          switch (MI.Alu) {
          case x86::AluOp::Add:
            P.Op = RR ? POp::AddRR : POp::AddRI;
            break;
          case x86::AluOp::Sub:
            P.Op = RR ? POp::SubRR : POp::SubRI;
            break;
          case x86::AluOp::And:
            P.Op = RR ? POp::AndRR : POp::AndRI;
            break;
          case x86::AluOp::Or:
            P.Op = RR ? POp::OrRR : POp::OrRI;
            break;
          case x86::AluOp::Xor:
            P.Op = RR ? POp::XorRR : POp::XorRI;
            break;
          case x86::AluOp::Cmp:
            P.Op = RR ? POp::CmpRR : POp::CmpRI;
            break;
          case x86::AluOp::Adc:
          case x86::AluOp::Sbb:
            P.Op = POp::AdcSbbTrap;
            break;
          }
          P.A = x86::regNum(MI.Dst);
          P.B = x86::regNum(MI.Src);
          P.Imm = MI.Imm;
          P.Cost = C.Alu;
          break;
        }
        case MOp::ImulRR:
          P.Op = POp::ImulRR;
          P.A = x86::regNum(MI.Dst);
          P.B = x86::regNum(MI.Src);
          P.Cost = C.Imul;
          break;
        case MOp::Cdq:
          P.Op = POp::Cdq;
          P.Cost = C.Alu;
          break;
        case MOp::Idiv:
          P.Op = POp::Idiv;
          P.B = x86::regNum(MI.Src);
          P.Cost = C.Idiv;
          break;
        case MOp::Neg:
          P.Op = POp::Neg;
          P.A = x86::regNum(MI.Dst);
          P.Cost = C.Alu;
          break;
        case MOp::Not:
          P.Op = POp::Not;
          P.A = x86::regNum(MI.Dst);
          P.Cost = C.Alu;
          break;
        case MOp::ShiftRI:
        case MOp::ShiftRC: {
          bool RI = MI.Op == MOp::ShiftRI;
          switch (MI.Shift) {
          case x86::ShiftOp::Shl:
            P.Op = RI ? POp::ShlRI : POp::ShlRC;
            break;
          case x86::ShiftOp::Shr:
            P.Op = RI ? POp::ShrRI : POp::ShrRC;
            break;
          case x86::ShiftOp::Sar:
            P.Op = RI ? POp::SarRI : POp::SarRC;
            break;
          }
          P.A = x86::regNum(MI.Dst);
          if (RI)
            P.Ext = static_cast<uint32_t>(MI.Imm) & 31; // pre-masked
          P.Cost = C.Alu;
          break;
        }
        case MOp::TestRR:
          P.Op = POp::TestRR;
          P.A = x86::regNum(MI.Dst);
          P.B = x86::regNum(MI.Src);
          P.Cost = C.Alu;
          break;
        case MOp::Setcc:
          P.Op = POp::Setcc;
          P.A = x86::regNum(MI.Dst);
          P.B = static_cast<uint8_t>(MI.CC);
          P.Cost = C.Alu;
          break;
        case MOp::Movzx8:
          P.Op = POp::Movzx8;
          P.A = x86::regNum(MI.Dst);
          P.B = x86::regNum(MI.Src);
          P.Cost = C.Alu;
          break;
        case MOp::Push:
          P.Op = POp::Push;
          P.A = x86::regNum(MI.Src);
          P.Cost = C.Push;
          break;
        case MOp::PushI:
          P.Op = POp::PushI;
          P.Imm = MI.Imm;
          P.Cost = C.Push;
          break;
        case MOp::Pop:
          P.Op = POp::Pop;
          P.A = x86::regNum(MI.Dst);
          P.Cost = C.Pop;
          break;
        case MOp::AdjustSP:
          P.Op = POp::AdjustSP;
          P.Imm = MI.Imm;
          P.Cost = C.Alu;
          break;
        case MOp::Call:
          if (MI.Target.IsIntrinsic) {
            switch (MI.Target.Intr) {
            case ir::Intrinsic::PrintI32:
              P.Op = POp::PrintI32;
              break;
            case ir::Intrinsic::PrintChar:
              P.Op = POp::PrintChar;
              break;
            case ir::Intrinsic::ReadI32:
              P.Op = POp::ReadI32;
              break;
            case ir::Intrinsic::InputLen:
              P.Op = POp::InputLen;
              break;
            case ir::Intrinsic::Sink:
              P.Op = POp::Sink;
              break;
            }
            P.Cost = C.Call + C.Intrinsic;
          } else {
            P.Op = POp::CallFunc;
            P.Ext = static_cast<uint32_t>(MI.Target.Func);
            P.Cost = C.Call;
          }
          break;
        case MOp::Jmp:
          if (static_cast<uint32_t>(MI.Imm) ==
              static_cast<uint32_t>(B) + 1) {
            // Lexically-next target: the cost model charges nothing, and
            // the target's BlockHead sits at the next stream slot.
            P.Op = POp::JmpNext;
          } else {
            P.Op = POp::Jmp;
            P.Ext = BlockOffset[FI][static_cast<uint32_t>(MI.Imm)];
            P.Cost = C.JmpTaken;
          }
          break;
        case MOp::Jcc:
          P.Op = POp::Jcc;
          P.A = static_cast<uint8_t>(MI.CC);
          P.Ext = BlockOffset[FI][static_cast<uint32_t>(MI.Imm)];
          P.Cost = C.JccTaken;
          P.Imm = static_cast<int32_t>(C.JccNotTaken);
          break;
        case MOp::Ret:
          P.Op = POp::Ret;
          P.Cost = RetCost;
          break;
        case MOp::Nop:
          P.Op = POp::Nop;
          P.Cost = x86::nopInfo(MI.NopK).LocksBus ? C.XchgNop : C.Nop;
          break;
        case MOp::ProfInc:
          P.Op = POp::ProfInc;
          P.Ext = static_cast<uint32_t>(MI.Imm);
          P.Cost = C.ProfInc;
          break;
        }
        Code.push_back(P);
      }
    }
    PInstr Guard;
    Guard.Op = POp::FellOff;
    Code.push_back(Guard);
  }
  assert(Code.size() == Offset && "layout/emission size mismatch");
}

RunResult Precompiled::run(const RunOptions &Opts) const {
  // A different cost model would make every baked charge stale, so rare
  // custom-cost runs bake a one-off stream against Opts.Costs.
  if (!(Opts.Costs == Costs))
    return Precompiled(*Src, Opts.Costs).execute(Opts);
  return execute(Opts);
}

// The dispatch loop uses GNU computed gotos; silence -Wpedantic for the
// extension while keeping it on everywhere else.
#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpedantic"
#endif

RunResult Precompiled::execute(const RunOptions &Opts) const {
  RunResult Result;
  Result.Counters.assign(NumCounters, 0);
  if (Opts.CollectOutput)
    Result.Output.reserve(OutputReserveBytes);

  std::vector<uint64_t> FlatCounts;
  const bool Collect = Opts.CollectBlockCounts;
  if (Collect)
    FlatCounts.assign(NumFlatBlocks, 0);
  auto Unflatten = [&] {
    if (!Collect)
      return;
    Result.BlockCounts.resize(BlocksPerFunc.size());
    for (size_t F = 0; F != BlocksPerFunc.size(); ++F) {
      const uint64_t *Base = FlatCounts.data() + FlatBase[F];
      Result.BlockCounts[F].assign(Base, Base + BlocksPerFunc[F]);
    }
  };

  if (InitTraps) {
    // The reference engine traps while writing global initializers,
    // before the first instruction executes.
    Result.Trapped = true;
    Result.Trap = TrapKind::BadMemory;
    Result.TrapReason = "memory write out of bounds";
    Unflatten();
    return Result;
  }

  Scratch &S = acquireScratch();
  uint8_t *const Mem = S.Mem.data();
  uint8_t *const Dirty = S.Dirty;

  // Replay the (pre-bounds-checked) data segment initialization.
  for (const InitWrite &W : InitWrites) {
    uint32_t V = static_cast<uint32_t>(W.Value);
    Mem[W.Addr] = static_cast<uint8_t>(V);
    Mem[W.Addr + 1] = static_cast<uint8_t>(V >> 8);
    Mem[W.Addr + 2] = static_cast<uint8_t>(V >> 16);
    Mem[W.Addr + 3] = static_cast<uint8_t>(V >> 24);
    Dirty[W.Addr >> PageShift] = 1;
    Dirty[(W.Addr + 3) >> PageShift] = 1;
  }

  int32_t Regs[x86::NumRegs] = {0};
  FlagState Flags;
  uint64_t Cycles = 0;
  uint64_t Instrs = 0;
  uint32_t Checksum = 1;
  size_t InputPos = 0;
  const int32_t *const InputData = Opts.Input.data();
  const size_t InputSize = Opts.Input.size();
  const uint64_t MaxSteps = Opts.MaxSteps;
  const std::atomic<bool> *const Cancel = Opts.Cancel;
  const size_t MaxDepth = Opts.MaxCallDepth;
  uint64_t *const CountsFlat = Collect ? FlatCounts.data() : nullptr;
  uint64_t *const Counters = Result.Counters.data();
  const bool CollectOutput = Opts.CollectOutput;

  struct PFrame {
    uint32_t ReturnPC;
    int32_t SavedRegs[4]; ///< EBX, ESI, EDI, EBP.
    uint32_t SavedESP;
  };
  std::vector<PFrame> Frames;
  Frames.reserve(64);

  const PInstr *const Code0 = Code.data();
  const PInstr *In = Code0;
  uint32_t PC = 0;

  auto trapSet = [&](TrapKind K, const char *Why) {
    Result.Trapped = true;
    Result.Trap = K;
    Result.TrapReason = Why;
    return false;
  };
  auto read32 = [&](uint32_t Addr, int32_t &Out) {
    if (static_cast<uint64_t>(Addr) + 4 > codegen::MemorySize ||
        Addr < 0x1000)
      return trapSet(TrapKind::BadMemory, "memory read out of bounds");
    Out = static_cast<int32_t>(
        static_cast<uint32_t>(Mem[Addr]) |
        (static_cast<uint32_t>(Mem[Addr + 1]) << 8) |
        (static_cast<uint32_t>(Mem[Addr + 2]) << 16) |
        (static_cast<uint32_t>(Mem[Addr + 3]) << 24));
    return true;
  };
  auto write32 = [&](uint32_t Addr, int32_t Value) {
    if (static_cast<uint64_t>(Addr) + 4 > codegen::MemorySize ||
        Addr < 0x1000)
      return trapSet(TrapKind::BadMemory, "memory write out of bounds");
    uint32_t V = static_cast<uint32_t>(Value);
    Mem[Addr] = static_cast<uint8_t>(V);
    Mem[Addr + 1] = static_cast<uint8_t>(V >> 8);
    Mem[Addr + 2] = static_cast<uint8_t>(V >> 16);
    Mem[Addr + 3] = static_cast<uint8_t>(V >> 24);
    Dirty[Addr >> PageShift] = 1;
    Dirty[(Addr + 3) >> PageShift] = 1;
    return true;
  };
  auto push = [&](int32_t Value) {
    uint32_t ESP = static_cast<uint32_t>(Regs[RegESP]) - 4;
    if (ESP < codegen::StackLimit)
      return trapSet(TrapKind::StackOverflow, "stack overflow");
    Regs[RegESP] = static_cast<int32_t>(ESP);
    return write32(ESP, Value);
  };
  auto fold = [&](uint32_t V) { Checksum = (Checksum ^ V) * 16777619u; };
  auto enter = [&](const PFunc &F) {
    // Prologue: push ebp; mov ebp, esp; sub esp, frame; push saved.
    if (!push(Regs[RegEBP]))
      return false;
    Regs[RegEBP] = Regs[RegESP];
    uint32_t NewESP = static_cast<uint32_t>(Regs[RegESP]) - F.FrameDrop;
    if (NewESP < codegen::StackLimit)
      return trapSet(TrapKind::StackOverflow, "stack overflow");
    Regs[RegESP] = static_cast<int32_t>(NewESP);
    Cycles += F.PrologueCost;
    if (CountsFlat)
      ++CountsFlat[F.Block0Flat];
    return true;
  };

  Regs[RegESP] = static_cast<int32_t>(codegen::StackTop);
  // _start pushes a fake return address before entering main.
  if (!push(0))
    goto done;
  if (!enter(Funcs[EntryFunc]))
    goto done;
  PC = Funcs[EntryFunc].Entry;

  // Count an instruction and check the budget *before* executing it,
  // exactly like the reference loop (the trapping fetch is counted but
  // neither executed nor charged). The cancel poll shares the check, at
  // the same counted-instruction positions as the reference engine, so a
  // pre-set flag traps bit-identically on either engine.
#define PGSD_STEP()                                                          \
  do {                                                                       \
    if (++Instrs > MaxSteps) {                                               \
      trapSet(TrapKind::StepBudget, "instruction budget exceeded");          \
      goto done;                                                             \
    }                                                                        \
    if ((Instrs & (CancelPollStride - 1)) == 0 && Cancel &&                  \
        Cancel->load(std::memory_order_relaxed)) {                           \
      trapSet(TrapKind::Cancelled, "cancelled by monitor");                  \
      goto done;                                                             \
    }                                                                        \
  } while (0)

#if PGSD_MEXEC_COMPUTED_GOTO
  // Order must match POp exactly; the static_assert pins the count.
  static const void *const Targets[] = {
      &&L_BlockHead,  &&L_MovRR,    &&L_MovRI,     &&L_Load,
      &&L_Store,      &&L_LoadFrame, &&L_StoreFrame, &&L_LeaFrame,
      &&L_AddRR,      &&L_SubRR,    &&L_AndRR,     &&L_OrRR,
      &&L_XorRR,      &&L_CmpRR,    &&L_AddRI,     &&L_SubRI,
      &&L_AndRI,      &&L_OrRI,     &&L_XorRI,     &&L_CmpRI,
      &&L_AdcSbbTrap, &&L_ImulRR,   &&L_Cdq,       &&L_Idiv,
      &&L_Neg,        &&L_Not,      &&L_ShlRI,     &&L_ShrRI,
      &&L_SarRI,      &&L_ShlRC,    &&L_ShrRC,     &&L_SarRC,
      &&L_TestRR,     &&L_Setcc,    &&L_Movzx8,    &&L_Push,
      &&L_PushI,      &&L_Pop,      &&L_AdjustSP,  &&L_CallFunc,
      &&L_PrintI32,   &&L_PrintChar, &&L_ReadI32,  &&L_InputLen,
      &&L_Sink,       &&L_Jmp,      &&L_JmpNext,   &&L_Jcc,
      &&L_Ret,        &&L_Nop,      &&L_ProfInc,   &&L_FellOff,
  };
  static_assert(sizeof(Targets) / sizeof(Targets[0]) == NumPOps,
                "dispatch table out of sync with POp");
#define PGSD_CASE(name) L_##name:
#define PGSD_NEXT()                                                          \
  do {                                                                       \
    In = Code0 + PC;                                                         \
    goto *Targets[static_cast<size_t>(In->Op)];                              \
  } while (0)
  PGSD_NEXT();
#else
#define PGSD_CASE(name) case POp::name:
#define PGSD_NEXT() goto dispatch
dispatch:
  In = Code0 + PC;
  switch (In->Op) {
#endif

  PGSD_CASE(BlockHead) {
    // Pseudo-op: not an instruction, so no step/cost; jump targets and
    // fallthrough edges land here so every block entry is counted.
    if (CountsFlat)
      ++CountsFlat[In->Ext];
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(MovRR) {
    PGSD_STEP();
    Regs[In->A] = Regs[In->B];
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(MovRI) {
    PGSD_STEP();
    Regs[In->A] = In->Imm;
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(Load) {
    PGSD_STEP();
    int32_t V;
    if (!read32(static_cast<uint32_t>(Regs[In->B] + In->Imm), V))
      goto done;
    Regs[In->A] = V;
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(Store) {
    PGSD_STEP();
    Cycles += In->Cost; // charged before the possibly-trapping write
    if (!write32(static_cast<uint32_t>(Regs[In->A] + In->Imm),
                 Regs[In->B]))
      goto done;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(LoadFrame) {
    PGSD_STEP();
    int32_t V;
    if (!read32(static_cast<uint32_t>(Regs[RegEBP] + In->Imm), V))
      goto done;
    Regs[In->A] = V;
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(StoreFrame) {
    PGSD_STEP();
    Cycles += In->Cost;
    if (!write32(static_cast<uint32_t>(Regs[RegEBP] + In->Imm),
                 Regs[In->B]))
      goto done;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(LeaFrame) {
    PGSD_STEP();
    Regs[In->A] = Regs[RegEBP] + In->Imm;
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(AddRR) {
    PGSD_STEP();
    Regs[In->A] = static_cast<int32_t>(
        static_cast<uint32_t>(Regs[In->A]) +
        static_cast<uint32_t>(Regs[In->B]));
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(SubRR) {
    PGSD_STEP();
    Regs[In->A] = static_cast<int32_t>(
        static_cast<uint32_t>(Regs[In->A]) -
        static_cast<uint32_t>(Regs[In->B]));
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(AndRR) {
    PGSD_STEP();
    Regs[In->A] &= Regs[In->B];
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(OrRR) {
    PGSD_STEP();
    Regs[In->A] |= Regs[In->B];
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(XorRR) {
    PGSD_STEP();
    Regs[In->A] ^= Regs[In->B];
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(CmpRR) {
    PGSD_STEP();
    Flags.IsTest = false;
    Flags.A = Regs[In->A];
    Flags.B = Regs[In->B];
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(AddRI) {
    PGSD_STEP();
    Regs[In->A] = static_cast<int32_t>(
        static_cast<uint32_t>(Regs[In->A]) +
        static_cast<uint32_t>(In->Imm));
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(SubRI) {
    PGSD_STEP();
    Regs[In->A] = static_cast<int32_t>(
        static_cast<uint32_t>(Regs[In->A]) -
        static_cast<uint32_t>(In->Imm));
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(AndRI) {
    PGSD_STEP();
    Regs[In->A] &= In->Imm;
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(OrRI) {
    PGSD_STEP();
    Regs[In->A] |= In->Imm;
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(XorRI) {
    PGSD_STEP();
    Regs[In->A] ^= In->Imm;
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(CmpRI) {
    PGSD_STEP();
    Flags.IsTest = false;
    Flags.A = Regs[In->A];
    Flags.B = In->Imm;
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(AdcSbbTrap) {
    PGSD_STEP();
    Cycles += In->Cost;
    trapSet(TrapKind::BadInstruction, "ADC/SBB not produced by codegen");
    goto done;
  }
  PGSD_CASE(ImulRR) {
    PGSD_STEP();
    Regs[In->A] = static_cast<int32_t>(
        static_cast<uint32_t>(Regs[In->A]) *
        static_cast<uint32_t>(Regs[In->B]));
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(Cdq) {
    PGSD_STEP();
    Regs[RegEDX] = Regs[RegEAX] < 0 ? -1 : 0;
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(Idiv) {
    PGSD_STEP();
    int64_t Dividend = (static_cast<int64_t>(Regs[RegEDX]) << 32) |
                       static_cast<uint32_t>(Regs[RegEAX]);
    int32_t Divisor = Regs[In->B];
    Cycles += In->Cost; // charged before the #DE checks
    if (Divisor == 0) {
      trapSet(TrapKind::DivideByZero, "integer division by zero (#DE)");
      goto done;
    }
    int64_t Quot = Dividend / Divisor;
    if (Quot > INT32_MAX || Quot < INT32_MIN) {
      trapSet(TrapKind::DivideByZero, "integer division overflow (#DE)");
      goto done;
    }
    Regs[RegEAX] = static_cast<int32_t>(Quot);
    Regs[RegEDX] = static_cast<int32_t>(Dividend % Divisor);
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(Neg) {
    PGSD_STEP();
    Regs[In->A] = static_cast<int32_t>(
        0u - static_cast<uint32_t>(Regs[In->A]));
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(Not) {
    PGSD_STEP();
    Regs[In->A] = ~Regs[In->A];
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(ShlRI) {
    PGSD_STEP();
    Regs[In->A] = static_cast<int32_t>(
        static_cast<uint32_t>(Regs[In->A]) << In->Ext);
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(ShrRI) {
    PGSD_STEP();
    Regs[In->A] = static_cast<int32_t>(
        static_cast<uint32_t>(Regs[In->A]) >> In->Ext);
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(SarRI) {
    PGSD_STEP();
    Regs[In->A] = Regs[In->A] >> In->Ext;
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(ShlRC) {
    PGSD_STEP();
    Regs[In->A] = static_cast<int32_t>(
        static_cast<uint32_t>(Regs[In->A])
        << (static_cast<uint32_t>(Regs[RegECX]) & 31));
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(ShrRC) {
    PGSD_STEP();
    Regs[In->A] = static_cast<int32_t>(
        static_cast<uint32_t>(Regs[In->A]) >>
        (static_cast<uint32_t>(Regs[RegECX]) & 31));
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(SarRC) {
    PGSD_STEP();
    Regs[In->A] =
        Regs[In->A] >> (static_cast<uint32_t>(Regs[RegECX]) & 31);
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(TestRR) {
    PGSD_STEP();
    Flags.IsTest = true;
    Flags.A = Regs[In->A];
    Flags.B = Regs[In->B];
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(Setcc) {
    PGSD_STEP();
    Regs[In->A] = (Regs[In->A] & ~0xFF) |
                  (Flags.eval(static_cast<x86::CondCode>(In->B)) ? 1 : 0);
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(Movzx8) {
    PGSD_STEP();
    Regs[In->A] = Regs[In->B] & 0xFF;
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(Push) {
    PGSD_STEP();
    Cycles += In->Cost;
    if (!push(Regs[In->A]))
      goto done;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(PushI) {
    PGSD_STEP();
    Cycles += In->Cost;
    if (!push(In->Imm))
      goto done;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(Pop) {
    PGSD_STEP();
    int32_t V;
    if (!read32(static_cast<uint32_t>(Regs[RegESP]), V))
      goto done;
    Regs[In->A] = V;
    Regs[RegESP] += 4;
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(AdjustSP) {
    PGSD_STEP();
    Regs[RegESP] += In->Imm;
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(CallFunc) {
    PGSD_STEP();
    Cycles += In->Cost;
    if (Frames.size() >= MaxDepth) {
      trapSet(TrapKind::CallDepth, "call depth exceeded");
      goto done;
    }
    PFrame Fr;
    Fr.SavedRegs[0] = Regs[RegEBX];
    Fr.SavedRegs[1] = Regs[RegESI];
    Fr.SavedRegs[2] = Regs[RegEDI];
    Fr.SavedRegs[3] = Regs[RegEBP];
    if (!push(0 /* return address */))
      goto done;
    Fr.SavedESP = static_cast<uint32_t>(Regs[RegESP]) + 4;
    Fr.ReturnPC = PC + 1;
    Frames.push_back(Fr);
    const PFunc &F = Funcs[In->Ext];
    if (!enter(F))
      goto done;
    PC = F.Entry;
    PGSD_NEXT();
  }
  PGSD_CASE(PrintI32) {
    PGSD_STEP();
    Cycles += In->Cost; // Call + Intrinsic, before the argument read
    int32_t V;
    if (!read32(static_cast<uint32_t>(Regs[RegESP]), V))
      goto done;
    fold(static_cast<uint32_t>(V));
    if (CollectOutput && Result.Output.size() < OutputCapBytes) {
      char Buf[16];
      std::snprintf(Buf, sizeof(Buf), "%d\n", V);
      Result.Output += Buf;
    }
    Regs[RegEAX] = 0;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(PrintChar) {
    PGSD_STEP();
    Cycles += In->Cost;
    int32_t V;
    if (!read32(static_cast<uint32_t>(Regs[RegESP]), V))
      goto done;
    fold(0x10000u + static_cast<uint8_t>(V));
    if (CollectOutput && Result.Output.size() < OutputCapBytes)
      Result.Output += static_cast<char>(V);
    Regs[RegEAX] = 0;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(ReadI32) {
    PGSD_STEP();
    Cycles += In->Cost;
    Regs[RegEAX] = InputPos < InputSize ? InputData[InputPos++] : 0;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(InputLen) {
    PGSD_STEP();
    Cycles += In->Cost;
    Regs[RegEAX] = static_cast<int32_t>(InputSize - InputPos);
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(Sink) {
    PGSD_STEP();
    Cycles += In->Cost;
    int32_t V;
    if (!read32(static_cast<uint32_t>(Regs[RegESP]), V))
      goto done;
    fold(static_cast<uint32_t>(V));
    Regs[RegEAX] = 0;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(Jmp) {
    PGSD_STEP();
    Cycles += In->Cost;
    PC = In->Ext; // lands on the target's BlockHead
    PGSD_NEXT();
  }
  PGSD_CASE(JmpNext) {
    PGSD_STEP();
    ++PC; // free jump to the lexically next block's BlockHead
    PGSD_NEXT();
  }
  PGSD_CASE(Jcc) {
    PGSD_STEP();
    if (Flags.eval(static_cast<x86::CondCode>(In->A))) {
      Cycles += In->Cost;
      PC = In->Ext;
    } else {
      Cycles += static_cast<uint32_t>(In->Imm);
      ++PC;
    }
    PGSD_NEXT();
  }
  PGSD_CASE(Ret) {
    PGSD_STEP();
    Cycles += In->Cost; // epilogue: pops + leave + ret, pre-folded
    if (Frames.empty()) {
      Result.ExitCode = Regs[RegEAX];
      goto done;
    }
    const PFrame &Fr = Frames.back();
    Regs[RegEBX] = Fr.SavedRegs[0];
    Regs[RegESI] = Fr.SavedRegs[1];
    Regs[RegEDI] = Fr.SavedRegs[2];
    Regs[RegEBP] = Fr.SavedRegs[3];
    Regs[RegESP] = static_cast<int32_t>(Fr.SavedESP);
    PC = Fr.ReturnPC;
    Frames.pop_back();
    PGSD_NEXT();
  }
  PGSD_CASE(Nop) {
    PGSD_STEP();
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(ProfInc) {
    PGSD_STEP();
    ++Counters[In->Ext];
    Cycles += In->Cost;
    ++PC;
    PGSD_NEXT();
  }
  PGSD_CASE(FellOff) {
    // Unreachable on verified modules (every function's last block ends
    // in Jmp/Ret); trap instead of running off the stream.
    PGSD_STEP();
    trapSet(TrapKind::BadInstruction, "fell off function end");
    goto done;
  }

#if !PGSD_MEXEC_COMPUTED_GOTO
  }
#endif

#undef PGSD_CASE
#undef PGSD_NEXT
#undef PGSD_STEP

done:
  Result.Cycles10 = Cycles;
  Result.Instructions = Instrs;
  Result.Checksum = Checksum;
  Unflatten();
  return Result;
}

#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif
