//===-- mexec/Precompiled.h - Direct-threaded execution engine ---*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fast execution engine: an mir::MModule is lowered *once* into a
/// flat, cache-friendly instruction stream and then executed with
/// direct-threaded (computed-goto) dispatch. The lowering pass resolves
/// everything the tree-walking reference engine re-derives on every
/// dynamic instruction:
///
///  - register operands become dense array indices,
///  - global symbol references become absolute addresses,
///  - per-instruction CostModel charges are pre-looked-up and stored
///    next to the opcode,
///  - branch targets are rewritten to flat stream offsets,
///  - blocks are threaded in layout order, so fallthrough costs no
///    dispatch at all, and a jump to the lexically next block (which the
///    cost model treats as free) becomes its own no-cost opcode,
///  - polymorphic opcodes (ALU ops, shifts, intrinsics) are split into
///    one specialized handler per operation,
///  - straight-line code is cut into segments, each behind a SegHead
///    that carries its instruction count and summed static cost. A new
///    segment starts at every block and after every call and Jcc, so a
///    segment's only exit is its last instruction and every control
///    transfer lands on a SegHead.
///
/// Each SegHead picks the mode its segment runs in. In segment mode the
/// head counts and charges the whole segment at once and the handlers
/// carry no step or cost code; that mode runs when the segment fits the
/// step budget and crosses no poll point of an installed cancel flag.
/// Otherwise the segment runs in stepped mode, which counts, checks and
/// charges each instruction like the reference engine. An instruction
/// that traps in segment mode re-derives the stepped counters from its
/// position in the segment. Each handler body is written once and
/// expanded for both modes over one stream.
///
/// The compiled image is immutable and reusable: one Precompiled serves
/// a whole input battery, and concurrent run() calls from ThreadPool
/// workers are safe because all mutable run state is local (scratch
/// memory is thread_local, recycled between runs via a dirty-page map).
///
/// Bit-identity contract: run() must return exactly the RunResult the
/// reference engine (mexec::run) returns -- every field, including
/// Cycles10, Instructions, Checksum, Output, Counters, BlockCounts, and
/// trap kind/reason. tests/EngineParityTest.cpp enforces this over the
/// workload suite, a fuzz corpus, and trapping programs. Runs whose
/// RunOptions::Costs differ from the baked cost model execute a stream
/// rebuilt against those costs (the pre-baked charges would be stale),
/// so the contract holds for every RunOptions.
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_MEXEC_PRECOMPILED_H
#define PGSD_MEXEC_PRECOMPILED_H

#include "lir/MIR.h"
#include "mexec/Interp.h"

#include <cstdint>
#include <vector>

namespace pgsd {
namespace mexec {

namespace detail {

/// Specialized opcodes of the flat stream. One handler per enumerator;
/// the order must match the dispatch table in Precompiled.cpp.
enum class POp : uint8_t {
  SegHead,   ///< Pseudo: heads a segment. A = block-start flag (counts
             ///< block Ext when CollectBlockCounts), Imm = instructions
             ///< in the segment, Cost = their summed cost minus any Jcc.
  MovRR,
  MovRI,     ///< Also MovGlobal, with the address pre-resolved into Imm.
  Load,
  Store,
  LoadFrame,
  StoreFrame,
  LeaFrame,
  AddRR,
  SubRR,
  AndRR,
  OrRR,
  XorRR,
  CmpRR,
  AddRI,
  SubRI,
  AndRI,
  OrRI,
  XorRI,
  CmpRI,
  AdcSbbTrap, ///< ADC/SBB: codegen never emits them; traps.
  ImulRR,
  Cdq,
  Idiv,
  Neg,
  Not,
  ShlRI,     ///< Count pre-masked (&31) into Ext.
  ShrRI,
  SarRI,
  ShlRC,
  ShrRC,
  SarRC,
  TestRR,
  Setcc,
  Movzx8,
  Push,
  PushI,
  Pop,
  AdjustSP,
  CallFunc,  ///< Direct call; Ext = callee function index. Ends its
             ///< segment: the call returns to the next SegHead.
  PrintI32,  ///< One opcode per intrinsic (cost = Call + Intrinsic).
  PrintChar,
  ReadI32,
  InputLen,
  Sink,
  Jmp,       ///< Taken jump; Ext = flat offset of the target SegHead.
  JmpNext,   ///< Jump to the lexically next block: free by the cost
             ///< model, so only the step counter advances.
  Jcc,       ///< A = cc, Ext = taken offset, Cost/Imm = taken/not-taken;
             ///< charged by its handler in both modes. Ends its segment.
  Ret,       ///< Cost pre-folded: Saved*Pop + Pop(leave) + Ret.
  Nop,
  ProfInc,
  FellOff,   ///< Guard after each function's last block; unreachable on
             ///< verified modules. Belongs to no segment; always steps.
};

/// Number of POp enumerators (dispatch table size).
inline constexpr size_t NumPOps = static_cast<size_t>(POp::FellOff) + 1;

/// One predecoded instruction: 16 bytes, so four per cache line.
struct PInstr {
  POp Op;
  uint8_t A = 0;     ///< Dst register index, condition code (Jcc), or
                     ///< block-start flag (SegHead).
  uint8_t B = 0;     ///< Src register index.
  int32_t Imm = 0;   ///< Immediate / displacement; not-taken cost (Jcc);
                     ///< instruction count (SegHead).
  uint32_t Cost = 0; ///< Pre-looked-up Cycles10 charge; the segment's
                     ///< charge (SegHead).
  uint32_t Ext = 0;  ///< Branch offset / callee index / counter id /
                     ///< shift count / flat block-count index.
};

static_assert(sizeof(PInstr) == 16, "PInstr must stay cache-friendly");

/// Per-function constants resolved at compile time.
struct PFunc {
  uint32_t Entry = 0;        ///< Flat offset of block 0's SegHead.
  uint32_t FrameDrop = 0;    ///< FrameBytes + 4 * callee-saved pushes.
  uint32_t PrologueCost = 0; ///< Push + MovRR + Alu + Saved * Push.
};

} // namespace detail

/// A module lowered to the flat stream. Immutable after construction;
/// run() is const and thread-safe (per-thread scratch memory).
class Precompiled {
public:
  /// Lowers \p M against \p Costs (charges are baked into the stream).
  /// \p M must outlive the Precompiled: custom-cost runs rebuild the
  /// stream from it.
  explicit Precompiled(const mir::MModule &M,
                       const CostModel &Costs = CostModel());

  /// Executes the precompiled stream. Bit-identical to the reference
  /// engine (mexec::run) on the same module and options; when Opts.Costs
  /// differs from the baked model this compiles and runs a fresh stream
  /// against Opts.Costs.
  RunResult run(const RunOptions &Opts) const;

  /// The cost model the stream was compiled against.
  const CostModel &bakedCosts() const { return Costs; }

  /// Flat stream length in PInstrs (tests and benches).
  size_t streamLength() const { return Code.size(); }

private:
  RunResult execute(const RunOptions &Opts) const;

  const mir::MModule *Src;
  CostModel Costs;
  std::vector<detail::PInstr> Code;
  std::vector<detail::PFunc> Funcs;
  std::vector<uint32_t> FlatBase;      ///< Function -> flat block base.
  std::vector<uint32_t> BlocksPerFunc; ///< For unflattening BlockCounts.
  uint32_t NumFlatBlocks = 0;
  uint32_t EntryFunc = 0;
  uint32_t NumCounters = 0;
  /// Global initialization replayed at the start of every run, already
  /// bounds-checked at compile time (exactly the writes the reference
  /// engine's init loop performs).
  struct InitWrite {
    uint32_t Addr;
    int32_t Value;
  };
  std::vector<InitWrite> InitWrites;
  bool InitTraps = false; ///< A global init write was out of bounds.
};

} // namespace mexec
} // namespace pgsd

#endif // PGSD_MEXEC_PRECOMPILED_H
