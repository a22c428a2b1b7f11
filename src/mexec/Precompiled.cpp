//===-- mexec/Precompiled.cpp - Direct-threaded execution engine -----------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// Two halves: a one-shot lowering pass (the constructor) that flattens
// an MModule into the PInstr stream, and the executor, which dispatches
// that stream with computed gotos (a GNU extension, which GCC and Clang
// both provide). The executor mirrors the reference engine's charge and
// trap ordering *exactly* -- cost-before-trap on stores/pushes/idiv,
// cost-after-read on loads/pops, prologue cost only after the stack
// limit check -- because the bit-identity contract includes Cycles10 and
// Instructions on trapping runs, not just clean ones. Segment mode
// charges a whole segment at its head and re-derives the stepped
// counters when an instruction inside it traps.
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

/// Whether \p MI may transfer control, so that the instruction after it
/// must start a segment of its own (a call returns there, a not-taken
/// Jcc falls through to it). Jmp and Ret always end their block.
bool endsSegment(const MInstr &MI) {
  return MI.Op == MOp::Jcc || MI.Op == MOp::Jmp || MI.Op == MOp::Ret ||
         (MI.Op == MOp::Call && !MI.Target.IsIntrinsic);
}

/// Whether a trapping instruction has charged its own cost by the time
/// it traps. The reference engine charges stores, pushes, calls, the
/// intrinsics that read an argument, IDIV and ADC/SBB before their
/// checks, and loads and pops only after a successful read.
bool chargedBeforeTrap(POp Op) {
  switch (Op) {
  case POp::Store:
  case POp::StoreFrame:
  case POp::Push:
  case POp::PushI:
  case POp::CallFunc:
  case POp::PrintI32:
  case POp::PrintChar:
  case POp::Sink:
  case POp::Idiv:
  case POp::AdcSbbTrap:
    return true;
  default:
    return false;
  }
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

  // Layout pass: every block contributes its instructions plus one
  // SegHead per segment (one at the block start and one after each
  // mid-block control transfer); every function is closed by a FellOff
  // guard.
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
      const std::vector<MInstr> &Instrs = F.Blocks[B].Instrs;
      Offset += 1 + static_cast<uint32_t>(Instrs.size());
      for (size_t I = 0; I + 1 < Instrs.size(); ++I)
        Offset += endsSegment(Instrs[I]) ? 1 : 0;
    }
    Offset += 1; // FellOff
  }

  Funcs.resize(NumFuncs);
  for (size_t FI = 0; FI != NumFuncs; ++FI) {
    const MFunction &F = M.Functions[FI];
    uint32_t Saved = (F.UsesEbx ? 1 : 0) + (F.UsesEsi ? 1 : 0) +
                     (F.UsesEdi ? 1 : 0);
    Funcs[FI].Entry = BlockOffset[FI][0]; // block 0's head counts it
    Funcs[FI].FrameDrop = F.FrameBytes + 4 * Saved;
    Funcs[FI].PrologueCost =
        C.Push + C.MovRR + C.Alu + Saved * C.Push;
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
      const uint32_t Flat = FlatBase[FI] + static_cast<uint32_t>(B);
      auto OpenSegment = [&](bool BlockStart) {
        PInstr Head;
        Head.Op = POp::SegHead;
        Head.A = BlockStart ? 1 : 0;
        Head.Ext = Flat;
        Code.push_back(Head);
        return Code.size() - 1;
      };
      size_t Head = OpenSegment(/*BlockStart=*/true);
      const std::vector<MInstr> &Instrs = F.Blocks[B].Instrs;
      for (size_t I = 0; I != Instrs.size(); ++I) {
        const MInstr &MI = Instrs[I];
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
            // the target's SegHead sits at the next stream slot.
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
        // The head charges every static cost up front; a Jcc's depends
        // on the branch outcome, so its handler charges it.
        ++Code[Head].Imm;
        if (P.Op != POp::Jcc)
          Code[Head].Cost += P.Cost;
        if (endsSegment(MI) && I + 1 != Instrs.size())
          Head = OpenSegment(/*BlockStart=*/false);
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
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpedantic"

/// Every POp, in enumerator order: the two dispatch tables are built from
/// this list, and the static_assert below checks it against the enum.
#define PGSD_POPS(X)                                                         \
  X(SegHead) X(MovRR) X(MovRI) X(Load) X(Store) X(LoadFrame) X(StoreFrame)   \
  X(LeaFrame) X(AddRR) X(SubRR) X(AndRR) X(OrRR) X(XorRR) X(CmpRR)          \
  X(AddRI) X(SubRI) X(AndRI) X(OrRI) X(XorRI) X(CmpRI) X(AdcSbbTrap)        \
  X(ImulRR) X(Cdq) X(Idiv) X(Neg) X(Not) X(ShlRI) X(ShrRI) X(SarRI)         \
  X(ShlRC) X(ShrRC) X(SarRC) X(TestRR) X(Setcc) X(Movzx8) X(Push) X(PushI)  \
  X(Pop) X(AdjustSP) X(CallFunc) X(PrintI32) X(PrintChar) X(ReadI32)        \
  X(InputLen) X(Sink) X(Jmp) X(JmpNext) X(Jcc) X(Ret) X(Nop) X(ProfInc)     \
  X(FellOff)

namespace {

#define PGSD_ENUMERATOR(Name) POp::Name,
constexpr POp ListedOps[] = {PGSD_POPS(PGSD_ENUMERATOR)};
#undef PGSD_ENUMERATOR

constexpr bool listedInEnumOrder() {
  if (sizeof(ListedOps) / sizeof(ListedOps[0]) != NumPOps)
    return false;
  for (size_t I = 0; I != NumPOps; ++I)
    if (ListedOps[I] != static_cast<POp>(I))
      return false;
  return true;
}
static_assert(listedInEnumOrder(), "PGSD_POPS out of sync with POp");

} // namespace

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
  const PInstr *Seg = Code0; ///< Head of the segment in segment mode.

  // Base + displacement wraps at 32 bits, as on IA-32 (a signed sum
  // could overflow).
  auto effAddr = [](int32_t Base, int32_t Disp) {
    return static_cast<uint32_t>(Base) + static_cast<uint32_t>(Disp);
  };
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
    // Block 0 is counted by the SegHead at F.Entry.
    if (!push(Regs[RegEBP]))
      return false;
    Regs[RegEBP] = Regs[RegESP];
    uint32_t NewESP = static_cast<uint32_t>(Regs[RegESP]) - F.FrameDrop;
    if (NewESP < codegen::StackLimit)
      return trapSet(TrapKind::StackOverflow, "stack overflow");
    Regs[RegESP] = static_cast<int32_t>(NewESP);
    Cycles += F.PrologueCost;
    return true;
  };

  // One dispatch table per mode. Only the SegHead handler picks a mode;
  // every other handler dispatches through its own mode's table, and
  // every segment ends in a transfer to a SegHead (or the FellOff
  // guard), which both tables share.
#define PGSD_STEP_TARGET(Name) &&L_Step_##Name,
#define PGSD_SEG_TARGET(Name) &&L_Seg_##Name,
  static const void *const StepTargets[] = {PGSD_POPS(PGSD_STEP_TARGET)};
  static const void *const SegTargets[] = {PGSD_POPS(PGSD_SEG_TARGET)};
#undef PGSD_STEP_TARGET
#undef PGSD_SEG_TARGET

  Regs[RegESP] = static_cast<int32_t>(codegen::StackTop);
  // _start pushes a fake return address before entering main.
  if (!push(0))
    goto done;
  if (!enter(Funcs[EntryFunc]))
    goto done;
  In = Code0 + Funcs[EntryFunc].Entry;
  goto *StepTargets[static_cast<size_t>(In->Op)];

  // Stepped mode: count an instruction and check the budget *before*
  // executing it, exactly like the reference loop (the trapping fetch is
  // counted but neither executed nor charged). The cancel poll shares
  // the check, at the same counted-instruction positions as the
  // reference engine, so a pre-set flag traps bit-identically on either
  // engine.
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

  // Each handler body is written once and expanded twice: a stepped copy
  // that counts, checks and charges every instruction, and a segment
  // copy whose counting and static charge the SegHead did in advance.
  // Inside a body, SegMode names the copy; the mode-dependent macros
  // below fold on it at compile time.
#define PGSD_HANDLER(Name, ...)                                              \
  L_Step_##Name : {                                                          \
    constexpr bool SegMode = false;                                          \
    PGSD_STEP();                                                             \
    __VA_ARGS__                                                              \
  }                                                                          \
  L_Seg_##Name : {                                                           \
    constexpr bool SegMode = true;                                           \
    __VA_ARGS__                                                              \
  }
#define PGSD_CHARGE()                                                        \
  do {                                                                       \
    if (!SegMode)                                                            \
      Cycles += In->Cost;                                                    \
  } while (0)
#define PGSD_TRAP()                                                          \
  do {                                                                       \
    if (SegMode)                                                             \
      goto segTrap;                                                          \
    goto done;                                                               \
  } while (0)
#define PGSD_DISPATCH()                                                      \
  goto *(SegMode ? SegTargets : StepTargets)[static_cast<size_t>(In->Op)]
#define PGSD_NEXT()                                                          \
  do {                                                                       \
    ++In;                                                                    \
    PGSD_DISPATCH();                                                         \
  } while (0)
#define PGSD_JUMP(Offset)                                                    \
  do {                                                                       \
    In = Code0 + (Offset);                                                   \
    PGSD_DISPATCH();                                                         \
  } while (0)

  L_Step_SegHead:
  L_Seg_SegHead: {
    // Pseudo-op, not an instruction. Jump targets, fallthrough edges,
    // function entries and call returns all land here, so the head counts
    // every block entry and is the only place the mode changes: segment
    // mode when the whole segment fits the step budget and crosses no
    // poll point of an installed cancel flag, stepped mode otherwise.
    if (CountsFlat && In->A)
      ++CountsFlat[In->Ext];
    const uint64_t N = static_cast<uint32_t>(In->Imm);
    if (N <= MaxSteps - Instrs &&
        (!Cancel ||
         Instrs / CancelPollStride == (Instrs + N) / CancelPollStride)) {
      Seg = In;
      Instrs += N;
      Cycles += In->Cost;
      ++In;
      goto *SegTargets[static_cast<size_t>(In->Op)];
    }
    ++In;
    goto *StepTargets[static_cast<size_t>(In->Op)];
  }
  PGSD_HANDLER(MovRR, {
    Regs[In->A] = Regs[In->B];
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  PGSD_HANDLER(MovRI, {
    Regs[In->A] = In->Imm;
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  PGSD_HANDLER(Load, {
    int32_t V;
    if (!read32(effAddr(Regs[In->B], In->Imm), V))
      PGSD_TRAP();
    Regs[In->A] = V;
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  PGSD_HANDLER(Store, {
    PGSD_CHARGE(); // charged before the possibly-trapping write
    if (!write32(effAddr(Regs[In->A], In->Imm), Regs[In->B]))
      PGSD_TRAP();
    PGSD_NEXT();
  })
  PGSD_HANDLER(LoadFrame, {
    int32_t V;
    if (!read32(effAddr(Regs[RegEBP], In->Imm), V))
      PGSD_TRAP();
    Regs[In->A] = V;
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  PGSD_HANDLER(StoreFrame, {
    PGSD_CHARGE();
    if (!write32(effAddr(Regs[RegEBP], In->Imm), Regs[In->B]))
      PGSD_TRAP();
    PGSD_NEXT();
  })
  PGSD_HANDLER(LeaFrame, {
    Regs[In->A] = static_cast<int32_t>(effAddr(Regs[RegEBP], In->Imm));
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  PGSD_HANDLER(AddRR, {
    Regs[In->A] = static_cast<int32_t>(static_cast<uint32_t>(Regs[In->A]) +
                                       static_cast<uint32_t>(Regs[In->B]));
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  PGSD_HANDLER(SubRR, {
    Regs[In->A] = static_cast<int32_t>(static_cast<uint32_t>(Regs[In->A]) -
                                       static_cast<uint32_t>(Regs[In->B]));
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  PGSD_HANDLER(AndRR, {
    Regs[In->A] &= Regs[In->B];
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  PGSD_HANDLER(OrRR, {
    Regs[In->A] |= Regs[In->B];
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  PGSD_HANDLER(XorRR, {
    Regs[In->A] ^= Regs[In->B];
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  PGSD_HANDLER(CmpRR, {
    Flags.IsTest = false;
    Flags.A = Regs[In->A];
    Flags.B = Regs[In->B];
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  PGSD_HANDLER(AddRI, {
    Regs[In->A] = static_cast<int32_t>(static_cast<uint32_t>(Regs[In->A]) +
                                       static_cast<uint32_t>(In->Imm));
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  PGSD_HANDLER(SubRI, {
    Regs[In->A] = static_cast<int32_t>(static_cast<uint32_t>(Regs[In->A]) -
                                       static_cast<uint32_t>(In->Imm));
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  PGSD_HANDLER(AndRI, {
    Regs[In->A] &= In->Imm;
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  PGSD_HANDLER(OrRI, {
    Regs[In->A] |= In->Imm;
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  PGSD_HANDLER(XorRI, {
    Regs[In->A] ^= In->Imm;
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  PGSD_HANDLER(CmpRI, {
    Flags.IsTest = false;
    Flags.A = Regs[In->A];
    Flags.B = In->Imm;
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  PGSD_HANDLER(AdcSbbTrap, {
    PGSD_CHARGE();
    trapSet(TrapKind::BadInstruction, "ADC/SBB not produced by codegen");
    PGSD_TRAP();
  })
  PGSD_HANDLER(ImulRR, {
    Regs[In->A] = static_cast<int32_t>(static_cast<uint32_t>(Regs[In->A]) *
                                       static_cast<uint32_t>(Regs[In->B]));
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  PGSD_HANDLER(Cdq, {
    Regs[RegEDX] = Regs[RegEAX] < 0 ? -1 : 0;
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  PGSD_HANDLER(Idiv, {
    int64_t Dividend = (static_cast<int64_t>(Regs[RegEDX]) << 32) |
                       static_cast<uint32_t>(Regs[RegEAX]);
    int32_t Divisor = Regs[In->B];
    PGSD_CHARGE(); // charged before the #DE checks
    if (Divisor == 0) {
      trapSet(TrapKind::DivideByZero, "integer division by zero (#DE)");
      PGSD_TRAP();
    }
    int64_t Quot = Dividend / Divisor;
    if (Quot > INT32_MAX || Quot < INT32_MIN) {
      trapSet(TrapKind::DivideByZero, "integer division overflow (#DE)");
      PGSD_TRAP();
    }
    Regs[RegEAX] = static_cast<int32_t>(Quot);
    Regs[RegEDX] = static_cast<int32_t>(Dividend % Divisor);
    PGSD_NEXT();
  })
  PGSD_HANDLER(Neg, {
    Regs[In->A] = static_cast<int32_t>(0u - static_cast<uint32_t>(Regs[In->A]));
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  PGSD_HANDLER(Not, {
    Regs[In->A] = ~Regs[In->A];
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  PGSD_HANDLER(ShlRI, {
    Regs[In->A] =
        static_cast<int32_t>(static_cast<uint32_t>(Regs[In->A]) << In->Ext);
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  PGSD_HANDLER(ShrRI, {
    Regs[In->A] =
        static_cast<int32_t>(static_cast<uint32_t>(Regs[In->A]) >> In->Ext);
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  PGSD_HANDLER(SarRI, {
    Regs[In->A] = Regs[In->A] >> In->Ext;
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  PGSD_HANDLER(ShlRC, {
    Regs[In->A] = static_cast<int32_t>(
        static_cast<uint32_t>(Regs[In->A])
        << (static_cast<uint32_t>(Regs[RegECX]) & 31));
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  PGSD_HANDLER(ShrRC, {
    Regs[In->A] =
        static_cast<int32_t>(static_cast<uint32_t>(Regs[In->A]) >>
                             (static_cast<uint32_t>(Regs[RegECX]) & 31));
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  PGSD_HANDLER(SarRC, {
    Regs[In->A] = Regs[In->A] >> (static_cast<uint32_t>(Regs[RegECX]) & 31);
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  PGSD_HANDLER(TestRR, {
    Flags.IsTest = true;
    Flags.A = Regs[In->A];
    Flags.B = Regs[In->B];
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  PGSD_HANDLER(Setcc, {
    Regs[In->A] = (Regs[In->A] & ~0xFF) |
                  (Flags.eval(static_cast<x86::CondCode>(In->B)) ? 1 : 0);
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  PGSD_HANDLER(Movzx8, {
    Regs[In->A] = Regs[In->B] & 0xFF;
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  PGSD_HANDLER(Push, {
    PGSD_CHARGE();
    if (!push(Regs[In->A]))
      PGSD_TRAP();
    PGSD_NEXT();
  })
  PGSD_HANDLER(PushI, {
    PGSD_CHARGE();
    if (!push(In->Imm))
      PGSD_TRAP();
    PGSD_NEXT();
  })
  PGSD_HANDLER(Pop, {
    int32_t V;
    if (!read32(static_cast<uint32_t>(Regs[RegESP]), V))
      PGSD_TRAP();
    Regs[In->A] = V;
    Regs[RegESP] += 4;
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  PGSD_HANDLER(AdjustSP, {
    Regs[RegESP] += In->Imm;
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  PGSD_HANDLER(CallFunc, {
    PGSD_CHARGE();
    if (Frames.size() >= MaxDepth) {
      trapSet(TrapKind::CallDepth, "call depth exceeded");
      PGSD_TRAP();
    }
    PFrame Fr;
    Fr.SavedRegs[0] = Regs[RegEBX];
    Fr.SavedRegs[1] = Regs[RegESI];
    Fr.SavedRegs[2] = Regs[RegEDI];
    Fr.SavedRegs[3] = Regs[RegEBP];
    if (!push(0 /* return address */))
      PGSD_TRAP();
    Fr.SavedESP = static_cast<uint32_t>(Regs[RegESP]) + 4;
    // Returns to a SegHead (or the FellOff guard).
    Fr.ReturnPC = static_cast<uint32_t>(In - Code0) + 1;
    Frames.push_back(Fr);
    const PFunc &F = Funcs[In->Ext];
    if (!enter(F))
      PGSD_TRAP();
    PGSD_JUMP(F.Entry);
  })
  PGSD_HANDLER(PrintI32, {
    PGSD_CHARGE(); // Call + Intrinsic, before the argument read
    int32_t V;
    if (!read32(static_cast<uint32_t>(Regs[RegESP]), V))
      PGSD_TRAP();
    fold(static_cast<uint32_t>(V));
    if (CollectOutput && Result.Output.size() < OutputCapBytes) {
      char Buf[16];
      std::snprintf(Buf, sizeof(Buf), "%d\n", V);
      Result.Output += Buf;
    }
    Regs[RegEAX] = 0;
    PGSD_NEXT();
  })
  PGSD_HANDLER(PrintChar, {
    PGSD_CHARGE();
    int32_t V;
    if (!read32(static_cast<uint32_t>(Regs[RegESP]), V))
      PGSD_TRAP();
    fold(0x10000u + static_cast<uint8_t>(V));
    if (CollectOutput && Result.Output.size() < OutputCapBytes)
      Result.Output += static_cast<char>(V);
    Regs[RegEAX] = 0;
    PGSD_NEXT();
  })
  PGSD_HANDLER(ReadI32, {
    PGSD_CHARGE();
    Regs[RegEAX] = InputPos < InputSize ? InputData[InputPos++] : 0;
    PGSD_NEXT();
  })
  PGSD_HANDLER(InputLen, {
    PGSD_CHARGE();
    Regs[RegEAX] = static_cast<int32_t>(InputSize - InputPos);
    PGSD_NEXT();
  })
  PGSD_HANDLER(Sink, {
    PGSD_CHARGE();
    int32_t V;
    if (!read32(static_cast<uint32_t>(Regs[RegESP]), V))
      PGSD_TRAP();
    fold(static_cast<uint32_t>(V));
    Regs[RegEAX] = 0;
    PGSD_NEXT();
  })
  PGSD_HANDLER(Jmp, {
    PGSD_CHARGE();
    PGSD_JUMP(In->Ext); // lands on the target's SegHead
  })
  PGSD_HANDLER(JmpNext, {
    PGSD_NEXT(); // free jump to the lexically next block's SegHead
  })
  PGSD_HANDLER(Jcc, {
    // Charged in both modes: the outcome picks the cost, so the SegHead
    // leaves it out of the segment's charge.
    if (Flags.eval(static_cast<x86::CondCode>(In->A))) {
      Cycles += In->Cost;
      PGSD_JUMP(In->Ext);
    }
    Cycles += static_cast<uint32_t>(In->Imm);
    PGSD_NEXT();
  })
  PGSD_HANDLER(Ret, {
    PGSD_CHARGE(); // epilogue: pops + leave + ret, pre-folded
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
    const uint32_t ReturnPC = Fr.ReturnPC;
    Frames.pop_back();
    PGSD_JUMP(ReturnPC);
  })
  PGSD_HANDLER(Nop, {
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  PGSD_HANDLER(ProfInc, {
    ++Counters[In->Ext];
    PGSD_CHARGE();
    PGSD_NEXT();
  })
  L_Step_FellOff:
  L_Seg_FellOff: {
    // Unreachable on verified modules (every function's last block ends in
    // Jmp/Ret); trap instead of running off the stream. It follows a
    // segment rather than belonging to one, so it always steps.
    PGSD_STEP();
    trapSet(TrapKind::BadInstruction, "fell off function end");
    goto done;
  }

#undef PGSD_HANDLER
#undef PGSD_CHARGE
#undef PGSD_TRAP
#undef PGSD_DISPATCH
#undef PGSD_NEXT
#undef PGSD_JUMP
#undef PGSD_STEP

segTrap: {
  // A segment-mode instruction trapped after its head had counted and
  // charged the whole segment. Re-derive the counters the stepped path
  // would hold: count the segment's instructions up to and including In,
  // and charge those before In, plus In's own cost when it charges
  // before trapping. No Jcc precedes In inside a segment, so every cost
  // walked here is static.
  Instrs = Instrs - static_cast<uint32_t>(Seg->Imm) +
           static_cast<uint64_t>(In - Seg);
  Cycles -= Seg->Cost;
  for (const PInstr *P = Seg + 1; P != In; ++P)
    Cycles += P->Cost;
  if (chargedBeforeTrap(In->Op))
    Cycles += In->Cost;
}

done:
  Result.Cycles10 = Cycles;
  Result.Instructions = Instrs;
  Result.Checksum = Checksum;
  Unflatten();
  return Result;
}

#undef PGSD_POPS

#pragma GCC diagnostic pop
