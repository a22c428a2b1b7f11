//===-- analysis/Analysis.h - MIR static analysis framework ------*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Rule-based static analysis over machine IR: proves the invariants NOP
/// insertion must preserve *before* any variant executes. The paper's
/// central claim -- NOP insertion at the low-level representation is
/// semantics-preserving (Section 4, Table 1) -- is checked dynamically
/// by verify/ (differential execution over an input battery); the
/// analyzer here proves the same class of properties in microseconds by
/// dataflow over the block CFG, and catches violations the battery can
/// never exercise, such as a flag clobber on an untaken path.
///
/// Six checkers run on the shared forward-dataflow engine
/// (analysis/Dataflow.h) or as structural scans:
///
///  1. CfgWellFormed -- terminator placement, branch-target validity,
///     call-target and ProfInc counter-id ranges, 8-bit subregister
///     constraints. Runs first; a function it rejects is skipped by the
///     flow-sensitive checkers, whose solver indexes blocks by branch
///     target.
///  2. RegLiveness -- every register read is preceded by a definition on
///     every path from the function entry (ESP/EBP are defined by the
///     prologue; a Call defines EAX/ECX/EDX).
///  3. EflagsFlow -- every Jcc/Setcc is reached by a CMP/TEST with no
///     EFLAGS-clobbering instruction in between, on every path. This is
///     the checker that statically validates Table 1: every candidate
///     NOP must be flag-transparent (flagEffect == Neutral) to be
///     inserted between a flag definition and its consumer.
///  4. StackBalance -- push/pop/AdjustSP depth is consistent at every
///     join, never underflows, covers each Call's pushed arguments, and
///     returns to zero at every Ret.
///  5. FrameBounds -- LoadFrame/StoreFrame/LeaFrame displacements stay
///     inside the function's frame: scalar slots within
///     [-FrameBytes, -4] and at or above ValueSlotsLowDisp, LeaFrame
///     only in the object area strictly below it, positive
///     displacements only at incoming parameter slots.
///  6. CallConv -- cdecl conformance: no read of caller-saved ECX/EDX
///     after a Call before redefinition, IDIV preceded by CDQ with
///     nothing but NOPs in between, divisor not in EAX/EDX, and no
///     writes to ESP/EBP outside AdjustSP.
///
/// Diagnostics reuse verify::ErrorCode (one code per checker) and carry
/// function name, block index, instruction index, and the printed
/// instruction, e.g.
///
///   [analysis-flags-unproven] main: mbb2 #4 'jl mbb1': ...
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_ANALYSIS_ANALYSIS_H
#define PGSD_ANALYSIS_ANALYSIS_H

#include "lir/MIR.h"
#include "verify/Diagnostic.h"
#include "x86/X86.h"

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace pgsd {
namespace analysis {

/// The checkers, in the order analyzeModule runs them per function.
enum class CheckerKind : uint8_t {
  CfgWellFormed = 0,
  RegLiveness,
  EflagsFlow,
  StackBalance,
  FrameBounds,
  CallConv,
};

/// Number of checkers (for sweep loops).
inline constexpr unsigned NumCheckers = 6;

/// Returns a stable kebab-case name ("cfg-well-formed", ...).
const char *checkerName(CheckerKind K);

/// Returns the verify::ErrorCode this checker's diagnostics carry.
verify::ErrorCode checkerErrorCode(CheckerKind K);

/// How one machine instruction interacts with EFLAGS on real IA-32.
///
/// `Defines` is deliberately limited to CMP and TEST: those are the only
/// producers whose consumption the generated code (and the interpreter's
/// lazy flag model) relies on. Arithmetic that *sets* flags as a side
/// effect (ADD, NEG, shifts, ...) is classified as `Clobbers`, because a
/// Jcc reading those flags would diverge between the interpreter and the
/// emitted binary.
enum class FlagEffect : uint8_t {
  Neutral,  ///< Leaves EFLAGS untouched (all Table 1 NOPs, MOVs, ...).
  Defines,  ///< CMP/TEST: establishes the state Jcc/Setcc consume.
  Clobbers, ///< Overwrites EFLAGS with values no consumer may rely on.
};

/// Classifies \p I. The NOP-insertion pass consults this for every
/// candidate before placing it: only Neutral instructions may be
/// inserted between a flag definition and its consumer, which is the
/// static form of Table 1's "preserves all processor state" claim.
inline FlagEffect flagEffect(const mir::MInstr &I) {
  using mir::MOp;
  switch (I.Op) {
  case MOp::AluRR:
  case MOp::AluRI:
    // CMP is the sanctioned producer; every other ALU form overwrites
    // EFLAGS as a side effect no consumer may rely on.
    return I.Alu == x86::AluOp::Cmp ? FlagEffect::Defines
                                    : FlagEffect::Clobbers;
  case MOp::TestRR:
    return FlagEffect::Defines;
  case MOp::ImulRR:
  case MOp::Neg:
  case MOp::ShiftRI:
  case MOp::ShiftRC:
  case MOp::Idiv:
  case MOp::AdjustSP: // add esp, imm
  case MOp::ProfInc:  // add dword [counter], 1
  case MOp::Call:     // callee executes arbitrary flag-writing code
    return FlagEffect::Clobbers;
  case MOp::MovRR:
  case MOp::MovRI:
  case MOp::MovGlobal:
  case MOp::Load:
  case MOp::Store:
  case MOp::LoadFrame:
  case MOp::StoreFrame:
  case MOp::LeaFrame:
  case MOp::Cdq:
  case MOp::Not: // unlike NEG, NOT preserves EFLAGS on IA-32
  case MOp::Setcc:
  case MOp::Movzx8:
  case MOp::Push:
  case MOp::PushI:
  case MOp::Pop:
  case MOp::Jmp:
  case MOp::Jcc:
  case MOp::Ret:
  case MOp::Nop: // every Table 1 candidate preserves EFLAGS
    return FlagEffect::Neutral;
  }
  return FlagEffect::Clobbers; // unknown opcode: be conservative
}

/// True when \p I is an inserted diversity NOP: an instruction the
/// NOP-insertion pass may have added and every comparison against the
/// baseline must ignore. This is the single definition shared by the
/// verifier's NOP-only structural diff and the equivalence prover's
/// normalization, so the two can never disagree about what counts as an
/// inserted NOP. Every MOp::Nop carries a Table 1 candidate (x86/Nops.h)
/// and is flag-transparent by construction (flagEffect == Neutral).
/// The insertion pass only ever adds MOp::Nop (one Table 1 candidate per
/// site); no other opcode is a removable decoration.
inline bool isInsertedNop(const mir::MInstr &I) {
  return I.Op == mir::MOp::Nop;
}

/// Returns pointers to the instructions of \p BB that survive NOP
/// normalization (everything isInsertedNop skips), in order.
std::vector<const mir::MInstr *> nonNopInstrs(const mir::MBasicBlock &BB);

/// The registers one instruction reads and writes: which explicit
/// operand fields, plus the implicit registers as bitmasks (bit n =
/// register number n). The single table behind forEachReadReg,
/// forEachWrittenReg and the use/def masks.
struct RegOperands {
  bool ReadsDst = false;
  bool ReadsSrc = false;
  bool WritesDst = false;
  uint8_t ImplicitReads = 0;
  uint8_t ImplicitWrites = 0;
};

/// Classifies \p I. ESP/EBP uses by push/pop/frame instructions are
/// not reported; those registers are maintained by the prologue and
/// tracked structurally. A Call writes EAX/ECX/EDX (the cdecl
/// caller-saved set): they are *defined* after the call in the liveness
/// sense, while the CallConv checker separately rejects reads of the
/// clobbered ECX/EDX.
inline RegOperands regOperands(const mir::MInstr &I) {
  using mir::MOp;
  constexpr uint8_t EAX = 1u << 0, ECX = 1u << 1, EDX = 1u << 2;
  RegOperands U;
  switch (I.Op) {
  case MOp::MovRR:
  case MOp::Movzx8:
  case MOp::Load:
    U.ReadsSrc = U.WritesDst = true;
    break;
  case MOp::Store:
    U.ReadsDst = true; // address base
    U.ReadsSrc = true; // stored value
    break;
  case MOp::StoreFrame:
  case MOp::Push:
    U.ReadsSrc = true;
    break;
  case MOp::AluRR:
  case MOp::AluRI:
    U.ReadsDst = true;
    U.ReadsSrc = I.Op == MOp::AluRR;
    U.WritesDst = I.Alu != x86::AluOp::Cmp;
    break;
  case MOp::ImulRR:
    U.ReadsDst = U.ReadsSrc = U.WritesDst = true;
    break;
  case MOp::TestRR:
    U.ReadsDst = U.ReadsSrc = true;
    break;
  case MOp::Neg:
  case MOp::Not:
  case MOp::ShiftRI:
    U.ReadsDst = U.WritesDst = true;
    break;
  case MOp::ShiftRC:
    U.ReadsDst = U.WritesDst = true;
    U.ImplicitReads = ECX; // shift count in CL
    break;
  case MOp::Cdq:
    U.ImplicitReads = EAX;
    U.ImplicitWrites = EDX;
    break;
  case MOp::Idiv:
    U.ReadsSrc = true;
    U.ImplicitReads = EAX | EDX; // dividend EDX:EAX (set up by CDQ)
    U.ImplicitWrites = EAX | EDX;
    break;
  case MOp::Ret:
    U.ImplicitReads = EAX; // return value
    break;
  case MOp::Call:
    // EAX carries the return value; ECX/EDX hold garbage.
    U.ImplicitWrites = EAX | ECX | EDX;
    break;
  // Setcc writes only the 8-bit subregister; the generated code always
  // masks through MOVZX before the value escapes, so the upper bits it
  // technically merges with are never observed and Setcc is treated as
  // a pure definition.
  case MOp::Setcc:
  case MOp::MovRI:
  case MOp::MovGlobal:
  case MOp::LoadFrame:
  case MOp::LeaFrame:
  case MOp::Pop:
    U.WritesDst = true;
    break;
  case MOp::PushI:
  case MOp::AdjustSP:
  case MOp::Jmp:
  case MOp::Jcc:
  case MOp::Nop:
  case MOp::ProfInc:
    break;
  }
  return U;
}

/// Invokes \p Fn(x86::Reg) for every register \p I reads, explicit
/// operands and implicit uses (CDQ/IDIV/Ret read EAX, ShiftRC reads CL,
/// ...) alike: Dst, then Src, then the implicit registers in register
/// order, once per operand (a register read twice is reported twice).
template <typename FnT> void forEachReadReg(const mir::MInstr &I, FnT &&Fn) {
  RegOperands U = regOperands(I);
  if (U.ReadsDst)
    Fn(I.Dst);
  if (U.ReadsSrc)
    Fn(I.Src);
  for (unsigned M = U.ImplicitReads; M; M &= M - 1)
    Fn(static_cast<x86::Reg>(std::countr_zero(M)));
}

/// Invokes \p Fn(x86::Reg) for every register \p I writes: Dst, then
/// the implicit registers in register order.
template <typename FnT>
void forEachWrittenReg(const mir::MInstr &I, FnT &&Fn) {
  RegOperands U = regOperands(I);
  if (U.WritesDst)
    Fn(I.Dst);
  for (unsigned M = U.ImplicitWrites; M; M &= M - 1)
    Fn(static_cast<x86::Reg>(std::countr_zero(M)));
}

/// Bitmask (bit n = register number n) of the registers \p I reads.
inline uint8_t readRegMask(const mir::MInstr &I) {
  RegOperands U = regOperands(I);
  unsigned M = U.ImplicitReads;
  if (U.ReadsDst)
    M |= 1u << x86::regNum(I.Dst);
  if (U.ReadsSrc)
    M |= 1u << x86::regNum(I.Src);
  return static_cast<uint8_t>(M);
}

/// Bitmask (bit n = register number n) of the registers \p I writes.
inline uint8_t writtenRegMask(const mir::MInstr &I) {
  RegOperands U = regOperands(I);
  unsigned M = U.ImplicitWrites;
  if (U.WritesDst)
    M |= 1u << x86::regNum(I.Dst);
  return static_cast<uint8_t>(M);
}

/// Number of argument words \p Target consumes from the stack.
unsigned calleeArgWords(const mir::MModule &M, const ir::Callee &Target);

/// Configuration of one analysis run.
struct AnalysisOptions {
  /// Per-checker enable switches, indexed by CheckerKind.
  bool Enabled[NumCheckers] = {true, true, true, true, true, true};

  /// Diagnostic cap per run; a corrupt module yields a bounded report
  /// instead of one diagnostic per instruction.
  unsigned MaxDiagnostics = 64;

  /// Convenience: everything on (the default).
  static AnalysisOptions all();
  /// Convenience: only \p K (plus CfgWellFormed, which gates the
  /// flow-sensitive checkers and is always kept on).
  static AnalysisOptions only(CheckerKind K);
};

/// Renders "func: mbb<B> #<K> '<instr>'" for diagnostics.
std::string instrLocation(const mir::MFunction &F, uint32_t Block,
                          uint32_t Instr);

/// Runs the enabled checkers over every function of \p M. An empty
/// report is a proof (within the rule set) that the module upholds the
/// invariants diversification must preserve.
verify::Report analyzeModule(const mir::MModule &M,
                             const AnalysisOptions &Opts =
                                 AnalysisOptions());

/// The EFLAGS checker alone (with its CFG gate). The NOP-insertion pass
/// asserts this stays clean after every transformation.
verify::Report checkEflags(const mir::MModule &M);

} // namespace analysis
} // namespace pgsd

#endif // PGSD_ANALYSIS_ANALYSIS_H
