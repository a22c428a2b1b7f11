//===-- driver/Driver.cpp - End-to-end pipeline facade ---------------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"

#include "analysis/Analysis.h"
#include "analysis/Equiv.h"
#include "frontend/Lower.h"
#include "frontend/Parser.h"
#include "lir/ISel.h"
#include "mexec/Precompiled.h"
#include "obs/Metrics.h"
#include "passes/Passes.h"
#include "verify/BaselineCache.h"

#include <cassert>
#include <cstdio>
#include <utility>

using namespace pgsd;
using namespace pgsd::driver;

Program driver::compileProgram(std::string_view Source,
                               const std::string &Name, bool Optimize) {
  Program P;
  P.Name = Name;
  std::vector<frontend::Diag> Diags;
  {
    obs::Span S("pipeline.frontend");
    P.IR = frontend::compileToIR(Source, Name, Diags);
  }
  if (!Diags.empty()) {
    P.Diags.add(verify::ErrorCode::ParseError,
                frontend::formatDiags(Diags));
    return P;
  }
  std::string Problem = ir::verify(P.IR);
  if (!Problem.empty()) {
    P.Diags.add(verify::ErrorCode::IRInvalid,
                "internal error: IR does not verify: " + Problem);
    return P;
  }
  if (Optimize) {
    obs::Span S("pipeline.passes");
    passes::optimize(P.IR);
  }
  {
    obs::Span S("pipeline.isel");
    P.MIR = lir::selectInstructions(P.IR);
    // Passes expose each other's opportunities (a dead store uncovers a
    // dead constant materialization); iterate to a bounded fixpoint.
    for (unsigned Iter = 0; Iter != 4 && lir::peephole(P.MIR) != 0;
         ++Iter)
      ;
  }
  Problem = mir::verify(P.MIR);
  if (!Problem.empty()) {
    P.Diags.add(verify::ErrorCode::MIRInvalid,
                "internal error: MIR does not verify: " + Problem);
    return P;
  }
  // The baseline MIR must already uphold every invariant the analyzer
  // proves; a diagnostic here is a backend bug, not a diversity bug.
  {
    obs::Span S("pipeline.analyze");
    P.Diags.merge(analysis::analyzeModule(P.MIR));
  }
  obs::counterAdd("driver.programs_compiled");
  return P;
}

bool driver::profileAndStamp(Program &P,
                             const std::vector<int32_t> &TrainInput) {
  mexec::RunOptions Opts;
  Opts.Input = TrainInput;
  profile::ProfileData Data = profile::profileModule(P.MIR, Opts);
  if (Data.empty())
    return false;
  profile::applyCounts(P.MIR, Data);
  P.HasProfile = true;
  return true;
}

Variant driver::makeVariant(const Program &P,
                            const diversity::Pipeline &Pipe,
                            const diversity::DiversityOptions &Opts,
                            uint64_t Seed,
                            const codegen::LinkOptions &Link) {
  Variant V;
  {
    obs::Span S("pipeline.diversify");
    V.MIR = P.MIR;
    V.Pipeline = Pipe.run(V.MIR, Opts, Seed);
  }
  {
    obs::Span S("pipeline.emit");
    V.Image = codegen::link(V.MIR, Link);
  }
  return V;
}

Variant driver::makeVariant(const Program &P,
                            const diversity::DiversityOptions &Opts,
                            uint64_t Seed,
                            const codegen::LinkOptions &Link) {
  // The default pipeline is {nop} drawing from Rng(Seed), which is
  // diversity::makeVariant's historical stream byte-for-byte.
  return makeVariant(P, diversity::Pipeline(), Opts, Seed, Link);
}

codegen::Image driver::linkBaseline(const Program &P,
                                    const codegen::LinkOptions &Link) {
  obs::Span S("pipeline.emit");
  return codegen::link(P.MIR, Link);
}

mexec::RunResult driver::execute(const mir::MModule &MIR,
                                 const std::vector<int32_t> &Input,
                                 bool CollectOutput) {
  mexec::RunOptions Opts;
  Opts.Input = Input;
  Opts.CollectOutput = CollectOutput;
  return mexec::Precompiled(MIR).run(Opts);
}

VerifiedVariant
driver::makeVariantVerified(const Program &P,
                            const diversity::DiversityOptions &Opts,
                            uint64_t Seed,
                            const verify::VerifyOptions &VOpts,
                            const codegen::LinkOptions &Link) {
  return makeVariantVerified(P, diversity::Pipeline(), Opts, Seed, VOpts,
                             Link);
}

std::shared_ptr<verify::BaselineRuns>
driver::baselineFor(const Program &P, const verify::VerifyOptions &VOpts) {
  if (VOpts.Cache)
    return VOpts.Cache->runs();
  assert(P.Baselines && "verified call on a moved-from Program");
  return P.Baselines->runsFor(P.MIR, VOpts);
}

KeyPrefixMemo::State KeyPrefixMemo::stateFor(
    const mir::MModule &M,
    const std::function<State(const mir::MModule &)> &Compute) {
  const uint64_t Digest = mir::digest(M);
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const Slot &S : Slots)
    if (S.Digest == Digest)
      return S.S;
  Slots.push_back({Digest, Compute(M)});
  return Slots.back().S;
}

uint64_t KeyPrefixMemo::computed() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Slots.size();
}

namespace {

/// The retry loop of makeVariantVerified; \p Effective carries the
/// baseline cache every attempt reads.
VerifiedVariant verifyWithRetries(const Program &P,
                                  const diversity::Pipeline &Pipe,
                                  const diversity::DiversityOptions &Opts,
                                  uint64_t Seed,
                                  const verify::VerifyOptions &Effective,
                                  const codegen::LinkOptions &Link) {
  VerifiedVariant Out;
  // One schedule object walks the attempt seeds; with the default
  // SeedStride of 0 this reproduces the historical
  // deriveRetrySeed(Seed, Attempt) sequence exactly.
  verify::RetrySchedule Schedule(Seed, Effective.MaxAttempts,
                                 Effective.SeedStride);
  while (!Schedule.exhausted()) {
    unsigned Attempt = Schedule.attemptsMade();
    uint64_t S = Schedule.next();
    Variant V = makeVariant(P, Pipe, Opts, S, Link);
    if (Effective.InjectFault)
      Effective.InjectFault(V.MIR, V.Image, S);
    // Static screening first: when the analyzer can refute the variant
    // from its MIR alone, skip the much more expensive differential
    // execution and go straight to the next seed.
    obs::counterAdd("verify.attempts");
    verify::Report R;
    {
      obs::Span VS("pipeline.verify");
      R = analysis::analyzeModule(V.MIR);
      if (!R.ok()) {
        obs::counterAdd("verify.static_rejections");
        R.add(verify::ErrorCode::StaticAnalysisRejected,
              "variant rejected by static analysis before execution");
      } else {
        // Translation validation second: a symbolic equivalence proof
        // against the baseline (analysis/Equiv.h). Still static -- a
        // refutation carries a counterexample and skips differential
        // execution entirely.
        if (Effective.CheckEquiv)
          R = analysis::proveEquivalent(P.MIR, V.MIR);
        if (!R.ok()) {
          obs::counterAdd("verify.equiv_rejections");
          R.add(verify::ErrorCode::EquivRejected,
                "variant rejected by translation validation before "
                "execution");
        } else {
          R = verify::verifyVariant(P.MIR, V.MIR, V.Image, Effective);
        }
      }
    }
    Out.Attempts = Attempt + 1;
    if (R.ok()) {
      Out.V = std::move(V);
      Out.SeedUsed = S;
      obs::counterAdd("verify.accepted");
      return Out;
    }
    obs::counterAdd("verify.rejected_attempts");
    // Prefix each rejected attempt's diagnostics so a multi-attempt
    // report reads as a timeline.
    char Prefix[64];
    std::snprintf(Prefix, sizeof(Prefix), "attempt %u (seed %llu): ",
                  Attempt + 1, static_cast<unsigned long long>(S));
    for (verify::Diagnostic &D : R.Diags)
      Out.Report.add(D.Code, Prefix + D.Context);
  }
  // Every attempt failed: degrade to the undiversified baseline image
  // rather than shipping an unverified variant or nothing at all.
  obs::counterAdd("verify.fallbacks");
  Out.UsedFallback = true;
  Out.SeedUsed = Seed;
  Out.V.MIR = P.MIR;
  Out.V.Image = linkBaseline(P, Link);
  Out.V.Pipeline = diversity::PipelineStats();
  Out.Report.add(verify::ErrorCode::RetriesExhausted,
                 "all " + std::to_string(Schedule.budget()) +
                     " attempts failed verification; emitting "
                     "undiversified baseline image");
  return Out;
}

} // namespace

VerifiedVariant
driver::makeVariantVerified(const Program &P,
                            const diversity::Pipeline &Pipe,
                            const diversity::DiversityOptions &Opts,
                            uint64_t Seed,
                            const verify::VerifyOptions &VOpts,
                            const codegen::LinkOptions &Link) {
  verify::VerifyOptions Effective = VOpts;
  Effective.Link = Link;
  // The structural diff only models NOP insertion and shift preludes;
  // reordering/renaming pipelines are screened by the equivalence
  // prover and differential execution instead.
  Effective.CheckStructure =
      VOpts.CheckStructure && Pipe.structurePreserving();
  if (Effective.Cache)
    return verifyWithRetries(P, Pipe, Opts, Seed, Effective, Link);
  // Every attempt, and every later call on P, diffs against the same
  // baseline on the same battery: read P's memoized runs through a
  // handle that counts this call's own hits and fills.
  verify::BaselineCache Cache(baselineFor(P, Effective));
  Effective.Cache = &Cache;
  VerifiedVariant Out =
      verifyWithRetries(P, Pipe, Opts, Seed, Effective, Link);
  obs::counterAdd("verify.baseline_cache.hits", Cache.hits());
  obs::counterAdd("verify.baseline_cache.fills", Cache.fills());
  return Out;
}
