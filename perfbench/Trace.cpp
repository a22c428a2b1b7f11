//===-- perfbench/Trace.cpp - Bench-side spans and the traced walk ---------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "analysis/Analysis.h"
#include "analysis/Equiv.h"
#include "support/Time.h"

#include <cstdio>

using namespace perfbench;

Tracer::Scope::Scope(Tracer *Tr, const char *Name, uint64_t Request)
    : T(Tr) {
  if (!T)
    return;
  SpanRec R;
  R.Name = Name;
  R.Parent = T->Stack.empty() ? -1 : T->Stack.back();
  R.Request = Request;
  Id = static_cast<int32_t>(T->Spans.size());
  T->Stack.push_back(Id);
  R.Start = support::monotonicSeconds();
  T->Spans.push_back(R);
}

Tracer::Scope::~Scope() {
  if (!T)
    return;
  T->Spans[Id].End = support::monotonicSeconds();
  T->Stack.pop_back();
}

std::vector<double> Tracer::durations(std::string_view Name) const {
  std::vector<double> Out;
  for (const SpanRec &S : Spans)
    if (Name == S.Name)
      Out.push_back(S.End - S.Start);
  return Out;
}

double Tracer::total(std::string_view Name) const {
  double Sum = 0.0;
  for (double D : durations(Name))
    Sum += D;
  return Sum;
}

double Tracer::selfTotal(std::string_view Name) const {
  // Spans on one thread nest strictly, so a parent's children never
  // overlap and their durations add up to the time they cover.
  std::vector<double> ChildTime(Spans.size(), 0.0);
  for (const SpanRec &S : Spans)
    if (S.Parent >= 0)
      ChildTime[S.Parent] += S.End - S.Start;
  double Sum = 0.0;
  for (size_t I = 0; I != Spans.size(); ++I)
    if (Name == Spans[I].Name)
      Sum += Spans[I].End - Spans[I].Start - ChildTime[I];
  return Sum;
}

bool Tracer::writeJson(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  const double T0 = Spans.empty() ? 0.0 : Spans.front().Start;
  std::fputs("[\n", F);
  for (size_t I = 0; I != Spans.size(); ++I) {
    const SpanRec &S = Spans[I];
    std::fprintf(F,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                 "\"end_us\": %.3f, \"parent\": %d, \"request\": %llu}%s\n",
                 I, S.Name, (S.Start - T0) * 1e6, (S.End - T0) * 1e6,
                 S.Parent, static_cast<unsigned long long>(S.Request),
                 I + 1 == Spans.size() ? "" : ",");
  }
  std::fputs("]\n", F);
  return std::fclose(F) == 0;
}

WalkResult perfbench::walkAdmission(const Prepared &Pr,
                                    const diversity::Pipeline &Pipe,
                                    const diversity::DiversityOptions &Opts,
                                    uint64_t Seed, Tracer &T) {
  // The same effective options driver::makeVariantVerified derives from
  // default VerifyOptions and LinkOptions.
  const verify::VerifyOptions VOpts;
  const codegen::LinkOptions Link;
  verify::VerifyOptions Effective = VOpts;
  Effective.Link = Link;
  Effective.CheckStructure = VOpts.CheckStructure && Pipe.structurePreserving();
  Effective.Cache = Pr.Cache.get();
  // Differential execution alone: the other families are walked
  // separately below.
  verify::VerifyOptions DiffOnly = Effective;
  DiffOnly.CheckImage = false;
  DiffOnly.CheckStructure = false;
  DiffOnly.CheckProfile = false;

  WalkResult Out;
  Tracer::Scope Root(&T, "admission", Seed);
  verify::RetrySchedule Schedule(Seed, VOpts.MaxAttempts, VOpts.SeedStride);
  while (!Schedule.exhausted()) {
    Tracer::Scope Attempt(&T, "attempt", Seed);
    const uint64_t S = Schedule.next();
    mir::MModule M = Pr.P.MIR;
    diversity::PipelineStats Stats;
    {
      Tracer::Scope Sp(&T, "diversity.run", Seed);
      Stats = Pipe.run(M, Opts, S);
    }
    codegen::Image Img;
    {
      Tracer::Scope Sp(&T, "codegen.link", Seed);
      Img = codegen::link(M, Link);
    }
    verify::Report R;
    {
      Tracer::Scope Sp(&T, "analysis.checkers", Seed);
      R = analysis::analyzeModule(M);
    }
    if (R.ok() && Effective.CheckEquiv) {
      Tracer::Scope Sp(&T, "analysis.equiv", Seed);
      analysis::EquivStats ES;
      R = analysis::proveEquivalent(Pr.P.MIR, M, analysis::EquivOptions(),
                                    &ES);
      Out.EquivFunctions += ES.FunctionsProved;
    }
    if (R.ok()) {
      {
        Tracer::Scope Sp(&T, "verify.diff_execute", Seed);
        R = verify::verifyVariant(Pr.P.MIR, M, Img, DiffOnly);
      }
      if (Effective.CheckImage) {
        Tracer::Scope Sp(&T, "verify.image", Seed);
        R.merge(verify::verifyImage(M, Img, Link));
      }
      if (Effective.CheckProfile) {
        Tracer::Scope Sp(&T, "verify.profile", Seed);
        R.merge(verify::verifyProfileFlow(M));
      }
    }
    Out.Attempts = Schedule.attemptsMade();
    if (R.ok()) {
      Out.Image = std::move(Img);
      Out.SeedUsed = S;
      Out.Nops = Stats.Nop.NopsInserted;
      return Out;
    }
  }
  Out.Fallback = true;
  Out.SeedUsed = Seed;
  Out.Image = codegen::link(Pr.P.MIR, Link);
  return Out;
}
