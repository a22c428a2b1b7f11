//===-- bench/equiv_throughput.cpp - Static proof vs. dynamic diff cost ----===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// Measures what the static admission gates cost against what they
// replace: for every workload of the SPEC-like suite, two populations
// of diversified variants -- the paper's NOP pipeline ("nop") and all
// four transforms ("nop,shift,sched,regs", which exercises the prover's
// callee-saved renaming search) -- are each checked three ways:
//
//   checkers: analysis::analyzeModule, the six MIR safety checkers,
//   static:   analysis::proveEquivalent, the symbolic equivalence proof
//             (no execution at all), and
//   dynamic:  verify::verifyVariant restricted to differential execution
//             over the default input battery (image/structure/profile
//             families off, baseline runs served from a shared
//             BaselineCache filled before timing, i.e. the marginal
//             cost a batch pays per variant),
//
// and the per-variant wall costs are recorded as JSON (BENCH_equiv.json
// by default, or argv[1]). The bench is self-checking: a clean variant
// rejected by the checkers, refuted by the prover, or rejected by
// differential execution is a correctness bug and fails the run rather
// than publishing numbers.
//
// Knobs:
//   PGSD_QUICK=1     -- 4 variants over a 5-workload subset (CI smoke).
//   PGSD_VARIANTS=N  -- variants per workload and population (default 16).
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "analysis/Equiv.h"
#include "bench/BenchCommon.h"
#include "diversity/Transform.h"
#include "driver/Driver.h"
#include "obs/Json.h"
#include "verify/BaselineCache.h"
#include "verify/Verifier.h"
#include "workloads/Workloads.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace pgsd;

namespace {

unsigned envUnsigned(const char *Name, unsigned Default) {
  if (const char *V = std::getenv(Name)) {
    int N = std::atoi(V);
    if (N > 0)
      return static_cast<unsigned>(N);
  }
  return Default;
}

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One variant population: a transform pipeline and its label.
struct Population {
  const char *Label;
  diversity::Pipeline Pipe;
};

std::vector<Population> populations() {
  std::vector<diversity::TransformKind> All;
  diversity::parseTransformList("nop,shift,sched,regs", All);
  return {{"nop", diversity::Pipeline()},
          {"nop,shift,sched,regs", diversity::Pipeline(All)}};
}

struct Row {
  std::string Name;
  std::string Population;
  unsigned Variants = 0;
  uint64_t FunctionsProved = 0;
  double CheckersWall = 0.0;
  double StaticWall = 0.0;
  double DynamicWall = 0.0;

  double ratio() const {
    return StaticWall > 0.0 ? DynamicWall / StaticWall : 0.0;
  }
  double perVariantMs(double Wall) const {
    return Variants ? 1e3 * Wall / Variants : 0.0;
  }
};

void appendJsonRow(std::string &Out, const Row &R, bool Last) {
  Out += "    {\"name\": " + obs::jsonString(R.Name) +
         ", \"population\": " + obs::jsonString(R.Population) +
         ", \"variants\": " + obs::jsonUInt(R.Variants) +
         ", \"functions_proved\": " + obs::jsonUInt(R.FunctionsProved) +
         ", \"checkers_wall_s\": " + obs::jsonNumber(R.CheckersWall, 5) +
         ", \"checkers_per_variant_ms\": " +
         obs::jsonNumber(R.perVariantMs(R.CheckersWall), 4) +
         ", \"static_wall_s\": " + obs::jsonNumber(R.StaticWall, 5) +
         ", \"static_per_variant_ms\": " +
         obs::jsonNumber(R.perVariantMs(R.StaticWall), 4) +
         ", \"dynamic_wall_s\": " + obs::jsonNumber(R.DynamicWall, 5) +
         ", \"dynamic_per_variant_ms\": " +
         obs::jsonNumber(R.perVariantMs(R.DynamicWall), 4) +
         ", \"dynamic_over_static\": " + obs::jsonNumber(R.ratio(), 2) +
         "}" + (Last ? "\n" : ",\n");
}

/// Totals of one population over every workload.
struct Total {
  uint64_t Variants = 0;
  double Checkers = 0, Static = 0, Dynamic = 0;
};

} // namespace

int main(int Argc, char **Argv) {
  const char *OutPath = Argc > 1 ? Argv[1] : "BENCH_equiv.json";
  bool Quick = [] {
    const char *Q = std::getenv("PGSD_QUICK");
    return Q && Q[0] == '1';
  }();
  unsigned VariantsPer = envUnsigned("PGSD_VARIANTS", Quick ? 4 : 16);

  const std::vector<workloads::Workload> &Suite = workloads::specSuite();
  size_t NumWorkloads =
      Quick ? std::min<size_t>(5, Suite.size()) : Suite.size();

  auto Opts = diversity::DiversityOptions::profiled(
      diversity::ProbabilityModel::Log, 0.0, 0.3);
  const std::vector<Population> Pops = populations();

  std::vector<Row> Rows;
  std::vector<Total> Totals(Pops.size());
  for (size_t WI = 0; WI != NumWorkloads; ++WI) {
    const workloads::Workload &W = Suite[WI];
    driver::Program P = driver::compileProgram(W.Source, W.Name);
    if (!P.ok()) {
      std::fprintf(stderr, "equiv_throughput: %s failed to compile:\n%s",
                   W.Name.c_str(), P.errors().c_str());
      return 1;
    }
    if (!driver::profileAndStamp(P, W.TrainInput)) {
      std::fprintf(stderr, "equiv_throughput: %s training run trapped\n",
                   W.Name.c_str());
      return 1;
    }

    // Differential execution only, marginal cost: baseline runs come
    // from one shared cache, filled before any timed section, as in a
    // production batch.
    verify::VerifyOptions VO;
    VO.CheckImage = false;
    VO.CheckStructure = false;
    VO.CheckProfile = false;
    verify::BaselineCache Cache(P.MIR, VO);
    VO.Cache = &Cache;
    for (size_t I = 0; I != Cache.battery().size(); ++I)
      (void)Cache.baselineRun(I);

    for (size_t PI = 0; PI != Pops.size(); ++PI) {
      const Population &Pop = Pops[PI];
      // Build the population up front so no timed section pays for
      // diversification or linking.
      std::vector<driver::Variant> Variants;
      Variants.reserve(VariantsPer);
      for (unsigned S = 0; S != VariantsPer; ++S)
        Variants.push_back(driver::makeVariant(
            P, Pop.Pipe, Opts, 0xe9010000ull + WI * 1000 + S));

      Row R;
      R.Name = W.Name;
      R.Population = Pop.Label;
      R.Variants = VariantsPer;
      auto Reject = [&](const char *Gate, const verify::Report &Rep) {
        std::fprintf(stderr, "equiv_throughput: %s [%s]: %s rejected a "
                     "clean variant:\n%s",
                     W.Name.c_str(), Pop.Label, Gate, Rep.str().c_str());
        return 1;
      };

      // Checkers: the six MIR safety checkers on every variant.
      double T0 = now();
      for (const driver::Variant &V : Variants) {
        verify::Report Rep = analysis::analyzeModule(V.MIR);
        if (!Rep.ok())
          return Reject("the checkers", Rep);
      }
      R.CheckersWall = now() - T0;

      // Static: the symbolic proof, every variant against the baseline.
      T0 = now();
      for (const driver::Variant &V : Variants) {
        analysis::EquivStats S;
        verify::Report Rep = analysis::proveEquivalent(
            P.MIR, V.MIR, analysis::EquivOptions(), &S);
        if (!Rep.ok())
          return Reject("the prover", Rep);
        R.FunctionsProved += S.FunctionsProved;
      }
      R.StaticWall = now() - T0;

      T0 = now();
      for (const driver::Variant &V : Variants) {
        verify::Report Rep = verify::verifyVariant(P.MIR, V.MIR, V.Image, VO);
        if (!Rep.ok())
          return Reject("differential execution", Rep);
      }
      R.DynamicWall = now() - T0;

      Totals[PI].Variants += VariantsPer;
      Totals[PI].Checkers += R.CheckersWall;
      Totals[PI].Static += R.StaticWall;
      Totals[PI].Dynamic += R.DynamicWall;
      std::printf("%-16s %-20s %2u variants: checkers %.2fms, static "
                  "%.2fms, dynamic %.2fms per variant (%.1fx)\n",
                  W.Name.c_str(), Pop.Label, VariantsPer,
                  R.perVariantMs(R.CheckersWall),
                  R.perVariantMs(R.StaticWall),
                  R.perVariantMs(R.DynamicWall), R.ratio());
      Rows.push_back(std::move(R));
    }
  }

  std::string Json;
  Json += "{\n";
  Json += "  \"variants_per_workload\": " + obs::jsonUInt(VariantsPer) +
          ",\n  \"populations\": [\n";
  for (size_t PI = 0; PI != Pops.size(); ++PI) {
    const Total &T = Totals[PI];
    double Ratio = T.Static > 0 ? T.Dynamic / T.Static : 0.0;
    std::printf("total [%s]: %llu variants, checkers %.3fs, static %.3fs, "
                "dynamic %.3fs, dynamic/static %.1fx\n",
                Pops[PI].Label, static_cast<unsigned long long>(T.Variants),
                T.Checkers, T.Static, T.Dynamic, Ratio);
    Json += "    {\"population\": " + obs::jsonString(Pops[PI].Label) +
            ", \"total_variants\": " + obs::jsonUInt(T.Variants) +
            ", \"total_checkers_wall_s\": " + obs::jsonNumber(T.Checkers, 4) +
            ", \"total_static_wall_s\": " + obs::jsonNumber(T.Static, 4) +
            ", \"total_dynamic_wall_s\": " + obs::jsonNumber(T.Dynamic, 4) +
            ", \"dynamic_over_static\": " + obs::jsonNumber(Ratio, 2) + "}" +
            (PI + 1 == Pops.size() ? "\n" : ",\n");
  }
  Json += "  ],\n  \"workloads\": [\n";
  for (size_t I = 0; I != Rows.size(); ++I)
    appendJsonRow(Json, Rows[I], I + 1 == Rows.size());
  Json += "  ]\n}\n";

  std::FILE *Out = std::fopen(OutPath, "w");
  if (!Out) {
    std::fprintf(stderr, "equiv_throughput: cannot write %s\n", OutPath);
    return 1;
  }
  std::fputs(Json.c_str(), Out);
  std::fclose(Out);
  std::printf("wrote %s\n", OutPath);
  return 0;
}
