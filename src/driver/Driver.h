//===-- driver/Driver.h - End-to-end pipeline facade -------------*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One-call public API over the whole pipeline of the paper's Figure 3:
///
///   source --parse/lower--> IR --O2--> MIR --[profile]--> counts
///          --[NOP insertion]--> diversified MIR --emit/link--> image
///
/// Typical use (see examples/quickstart.cpp):
/// \code
///   driver::Program P = driver::compileProgram(Source, "demo");
///   driver::profileAndStamp(P, TrainInput);               // train run
///   auto Opts = diversity::DiversityOptions::profiled(
///       diversity::ProbabilityModel::Log, 0.0, 0.3);
///   driver::Variant V = driver::makeVariant(P, Opts, /*Seed=*/42);
///   auto Result = driver::execute(V.MIR, RefInput);       // measure
///   auto Gadgets = gadget::scanGadgets(V.Image.Text.data(),
///                                      V.Image.Text.size());
/// \endcode
///
//======---------------------------------------------------------------===//

#ifndef PGSD_DRIVER_DRIVER_H
#define PGSD_DRIVER_DRIVER_H

#include "codegen/Linker.h"
#include "diversity/NopInsertion.h"
#include "diversity/Transform.h"
#include "ir/IR.h"
#include "lir/MIR.h"
#include "mexec/Interp.h"
#include "profile/Profile.h"
#include "support/Hash.h"
#include "verify/BaselineCache.h"
#include "verify/Diagnostic.h"
#include "verify/Verifier.h"

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace pgsd {
namespace driver {

/// Hash states derived from a program's MIR by an expensive walk (the
/// serve store's key prefix prints the whole module), one per MIR state,
/// keyed by mir::digest as verify::BaselineMemo keys baseline runs. The
/// first request for a digest computes its state under the lock, so
/// concurrent callers walk the module once; later requests copy it.
class KeyPrefixMemo {
public:
  using State = support::Fnv1aPair;

  /// The state memoized for \p M's digest, computed by \p Compute(M) on
  /// the first request for it.
  State stateFor(const mir::MModule &M,
                 const std::function<State(const mir::MModule &)> &Compute);

  /// How many states were computed: one per distinct digest requested.
  uint64_t computed() const;

private:
  struct Slot {
    uint64_t Digest;
    State S;
  };
  mutable std::mutex Mutex;
  std::vector<Slot> Slots;
};

/// A compiled (but not yet diversified) program.
struct Program {
  verify::Report Diags; ///< Structured diagnostics; empty when usable.
  std::string Name;
  ir::Module IR;        ///< After mid-level optimization.
  mir::MModule MIR;     ///< Machine IR; profile-stamped after
                        ///< profileAndStamp.
  bool HasProfile = false;
  /// Baseline battery runs of this program, computed by the first
  /// verified call that needs them and read by every later one. Keyed by
  /// the digest of MIR, so a copy shares the runs while its MIR is
  /// unchanged and gets its own once the MIR is mutated or re-stamped.
  std::shared_ptr<verify::BaselineMemo> Baselines =
      std::make_shared<verify::BaselineMemo>();
  /// The serve store's key prefix of MIR (serve/VariantStore.h), computed
  /// by the first serve call on this program and copied by every later
  /// one. Keyed and shared like Baselines.
  std::shared_ptr<KeyPrefixMemo> KeyPrefixes =
      std::make_shared<KeyPrefixMemo>();

  /// True when compilation succeeded and the program is usable.
  bool ok() const { return Diags.ok(); }
  /// All diagnostics rendered one per line (for logs and test output).
  std::string errors() const { return Diags.str(); }
};

/// Compiles MiniC \p Source. \p Optimize runs the -O2-style pipeline.
Program compileProgram(std::string_view Source, const std::string &Name,
                       bool Optimize = true);

/// Runs the instrumented program on \p TrainInput and stamps per-block
/// execution counts into P.MIR. Returns false when the training run
/// trapped (the program is left unstamped).
bool profileAndStamp(Program &P, const std::vector<int32_t> &TrainInput);

/// A diversified build.
struct Variant {
  mir::MModule MIR;
  codegen::Image Image;
  /// Per-transform counters of the pipeline that produced this variant.
  diversity::PipelineStats Pipeline;
};

/// Produces a diversified variant of \p P under transform pipeline
/// \p Pipe and links its image.
Variant makeVariant(const Program &P, const diversity::Pipeline &Pipe,
                    const diversity::DiversityOptions &Opts, uint64_t Seed,
                    const codegen::LinkOptions &Link = codegen::LinkOptions());

/// Produces a diversified variant of \p P (NOP insertion only -- the
/// default pipeline) and links its image.
Variant makeVariant(const Program &P,
                    const diversity::DiversityOptions &Opts, uint64_t Seed,
                    const codegen::LinkOptions &Link = codegen::LinkOptions());

/// Links the undiversified baseline image of \p P.
codegen::Image linkBaseline(const Program &P,
                            const codegen::LinkOptions &Link =
                                codegen::LinkOptions());

/// Executes machine IR on \p Input with the default cost model on the
/// precompiled engine.
mexec::RunResult execute(const mir::MModule &MIR,
                         const std::vector<int32_t> &Input,
                         bool CollectOutput = false);

/// The baseline runs a verified call on \p P reads: the runs behind
/// \p VOpts.Cache when the caller supplied one, else P's memoized runs
/// for (its MIR, the resolved battery, MaxSteps). makeVariantsBatch and
/// makeVariantVerified count their own requests through a
/// verify::BaselineCache handle on the result.
std::shared_ptr<verify::BaselineRuns>
baselineFor(const Program &P, const verify::VerifyOptions &VOpts);

/// A diversified build that has been through the verification pipeline.
struct VerifiedVariant {
  Variant V;              ///< Accepted variant, or the baseline fallback.
  verify::Report Report;  ///< Diagnostics from every failed attempt.
  uint64_t SeedUsed = 0;  ///< Seed of the accepted attempt.
  unsigned Attempts = 0;  ///< Variant builds tried (1 when first passed).
  bool UsedFallback = false; ///< True when V is the undiversified image.

  /// True when a diversified variant passed verification.
  bool ok() const { return !UsedFallback; }
};

/// Produces a *verified* diversified variant of \p P: builds a variant,
/// runs verify::verifyVariant on it, and on failure retries with seeds
/// from verify::deriveRetrySeed (bounded by VOpts.MaxAttempts). When
/// every attempt fails, degrades gracefully to the undiversified
/// baseline image and reports ErrorCode::RetriesExhausted instead of
/// aborting -- a deployment pipeline prefers an unprotected-but-correct
/// binary plus a loud diagnostic over no binary at all.
VerifiedVariant
makeVariantVerified(const Program &P,
                    const diversity::DiversityOptions &Opts, uint64_t Seed,
                    const verify::VerifyOptions &VOpts =
                        verify::VerifyOptions(),
                    const codegen::LinkOptions &Link =
                        codegen::LinkOptions());

/// makeVariantVerified under transform pipeline \p Pipe. The verifier's
/// NOP-only structural diff (VerifyOptions::CheckStructure) presumes the
/// baseline's instruction sequence survives up to inserted NOPs and
/// shift preludes; pipelines containing schedule randomization or
/// register shuffling legitimately break that, so the check is disabled
/// for them automatically (the equivalence prover and differential
/// execution still run).
VerifiedVariant
makeVariantVerified(const Program &P, const diversity::Pipeline &Pipe,
                    const diversity::DiversityOptions &Opts, uint64_t Seed,
                    const verify::VerifyOptions &VOpts =
                        verify::VerifyOptions(),
                    const codegen::LinkOptions &Link =
                        codegen::LinkOptions());

} // namespace driver
} // namespace pgsd

#endif // PGSD_DRIVER_DRIVER_H
