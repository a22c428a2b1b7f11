//===-- bench/gadget_throughput.cpp - Scanner throughput comparison --------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
// Measures the gadget-scan pipeline that backs the paper's Tables 2/3 in
// four execution modes over the same (original, variants) corpus:
//
//   reference   -- the test-only per-offset oracle (tests/ScanOracle.h),
//                  one fresh O(Size x MaxInstrs) survivor pass per
//                  variant: the pre-optimization behaviour.
//   full        -- decode-once ImageScan, serial, fresh scan per variant
//                  but one shared original-image scan.
//   incremental -- decode-once + each variant scan seeded from the
//                  original scan, re-decoding only the diffed ranges.
//   parallel    -- incremental sharded across all cores.
//
// Every mode must produce identical survivor lists (the bench refuses to
// publish numbers for diverging runs -- ScannerParityTest pins the same
// property exhaustively). Results go to BENCH_gadget.json (or argv[1])
// with per-workload MB/s and aggregate speedups.
//
// Knobs:
//   PGSD_QUICK=1     -- 5-workload subset, 4 variants each (CI smoke).
//   PGSD_VARIANTS=N  -- variants per workload (default 16).
//   PGSD_JOBS=J      -- worker count for the parallel mode (default 0 =
//                       all cores).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "driver/Driver.h"
#include "gadget/Scanner.h"
#include "obs/Json.h"
#include "support/ThreadPool.h"
#include "tests/ScanOracle.h"
#include "workloads/Workloads.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace pgsd;
using Clock = std::chrono::steady_clock;

namespace {

unsigned envUnsigned(const char *Name, unsigned Default) {
  if (const char *V = std::getenv(Name)) {
    int N = std::atoi(V);
    if (N > 0)
      return static_cast<unsigned>(N);
  }
  return Default;
}

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

struct Row {
  std::string Name;
  unsigned Variants = 0;
  uint64_t Bytes = 0; ///< Original + all variant .text bytes.
  double ReferenceS = 0, FullS = 0, IncrementalS = 0, ParallelS = 0;

  double mbps(double Wall) const {
    return Wall > 0 ? static_cast<double>(Bytes) / (1e6 * Wall) : 0.0;
  }
};

bool sameSurvivors(const std::vector<std::vector<gadget::SurvivingGadget>> &A,
                   const std::vector<std::vector<gadget::SurvivingGadget>> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I) {
    if (A[I].size() != B[I].size())
      return false;
    for (size_t J = 0; J != A[I].size(); ++J)
      if (A[I][J].Offset != B[I][J].Offset ||
          A[I][J].NormHash != B[I][J].NormHash)
        return false;
  }
  return true;
}

void appendJsonRow(std::string &Out, const Row &R, bool Last) {
  Out += "    {\"name\": " + obs::jsonString(R.Name) +
         ", \"variants\": " + obs::jsonUInt(R.Variants) +
         ", \"bytes\": " + obs::jsonUInt(R.Bytes) +
         ", \"reference_wall_s\": " + obs::jsonNumber(R.ReferenceS, 4) +
         ", \"full_wall_s\": " + obs::jsonNumber(R.FullS, 4) +
         ", \"incremental_wall_s\": " + obs::jsonNumber(R.IncrementalS, 4) +
         ", \"parallel_wall_s\": " + obs::jsonNumber(R.ParallelS, 4) +
         ", \"reference_mbps\": " + obs::jsonNumber(R.mbps(R.ReferenceS), 2) +
         ", \"full_mbps\": " + obs::jsonNumber(R.mbps(R.FullS), 2) +
         ", \"incremental_mbps\": " +
         obs::jsonNumber(R.mbps(R.IncrementalS), 2) +
         ", \"parallel_mbps\": " + obs::jsonNumber(R.mbps(R.ParallelS), 2) +
         "}" + (Last ? "\n" : ",\n");
}

} // namespace

int main(int Argc, char **Argv) {
  const char *OutPath = Argc > 1 ? Argv[1] : "BENCH_gadget.json";
  bool Quick = [] {
    const char *Q = std::getenv("PGSD_QUICK");
    return Q && Q[0] == '1';
  }();
  unsigned VariantsPer = envUnsigned("PGSD_VARIANTS", Quick ? 4 : 16);
  unsigned Jobs = envUnsigned("PGSD_JOBS", 0);

  const std::vector<workloads::Workload> &Suite = workloads::specSuite();
  size_t NumWorkloads =
      Quick ? std::min<size_t>(5, Suite.size()) : Suite.size();

  auto Opts = diversity::DiversityOptions::uniform(0.3);

  gadget::ScanOptions Full; // decode-once, serial, shared original scan
  gadget::ScanOptions Incremental = Full;
  Incremental.Incremental = true;
  gadget::ScanOptions Parallel = Full;
  Parallel.Jobs = Jobs;

  std::vector<Row> Rows;
  double TotalRef = 0, TotalFull = 0, TotalIncr = 0, TotalPar = 0;
  uint64_t TotalBytes = 0;
  for (size_t WI = 0; WI != NumWorkloads; ++WI) {
    const workloads::Workload &W = Suite[WI];
    driver::Program P = driver::compileProgram(W.Source, W.Name);
    if (!P.ok()) {
      std::fprintf(stderr, "gadget_throughput: %s failed to compile:\n%s",
                   W.Name.c_str(), P.errors().c_str());
      return 1;
    }
    const std::vector<uint8_t> Base = driver::linkBaseline(P).Text;
    std::vector<std::vector<uint8_t>> Versions;
    for (unsigned S = 0; S != VariantsPer; ++S)
      Versions.push_back(
          driver::makeVariant(P, Opts, 0x9ad9e700ull + WI * 1000 + S)
              .Image.Text);

    Row R;
    R.Name = W.Name;
    R.Variants = VariantsPer;
    R.Bytes = Base.size();
    for (const auto &V : Versions)
      R.Bytes += V.size();

    auto T0 = Clock::now();
    // Pre-optimization shape: one independent reference pass per pair.
    std::vector<std::vector<gadget::SurvivingGadget>> RefOut;
    for (const auto &V : Versions)
      RefOut.push_back(gadget::reference::survivingGadgets(Base, V));
    R.ReferenceS = secondsSince(T0);

    T0 = Clock::now();
    auto FullOut = gadget::survivingGadgetsMulti(Base, Versions, Full);
    R.FullS = secondsSince(T0);

    T0 = Clock::now();
    auto IncrOut =
        gadget::survivingGadgetsMulti(Base, Versions, Incremental);
    R.IncrementalS = secondsSince(T0);

    T0 = Clock::now();
    auto ParOut = gadget::survivingGadgetsMulti(Base, Versions, Parallel);
    R.ParallelS = secondsSince(T0);

    if (!sameSurvivors(RefOut, FullOut) || !sameSurvivors(RefOut, IncrOut) ||
        !sameSurvivors(RefOut, ParOut)) {
      std::fprintf(stderr, "gadget_throughput: %s: modes disagree\n",
                   W.Name.c_str());
      return 1;
    }

    TotalRef += R.ReferenceS;
    TotalFull += R.FullS;
    TotalIncr += R.IncrementalS;
    TotalPar += R.ParallelS;
    TotalBytes += R.Bytes;
    std::printf("%-16s %2u variants, %7.1f KB: ref %6.1f MB/s, "
                "full %7.1f MB/s, incr %7.1f MB/s, par %7.1f MB/s\n",
                W.Name.c_str(), VariantsPer,
                static_cast<double>(R.Bytes) / 1e3, R.mbps(R.ReferenceS),
                R.mbps(R.FullS), R.mbps(R.IncrementalS),
                R.mbps(R.ParallelS));
    Rows.push_back(std::move(R));
  }

  const double FullSpeedup = TotalFull > 0 ? TotalRef / TotalFull : 0.0;
  const double IncrSpeedup = TotalIncr > 0 ? TotalRef / TotalIncr : 0.0;
  const double ParSpeedup = TotalPar > 0 ? TotalRef / TotalPar : 0.0;
  std::printf("total: reference %.3fs, full %.3fs (%.1fx), incremental "
              "%.3fs (%.1fx), parallel %.3fs (%.1fx, %u hw threads)\n",
              TotalRef, TotalFull, FullSpeedup, TotalIncr, IncrSpeedup,
              TotalPar, ParSpeedup,
              support::ThreadPool::defaultConcurrency());

  std::string Json;
  Json += "{\n";
  Json += "  \"jobs\": " + obs::jsonUInt(Jobs) + ",\n";
  Json += "  \"hardware_concurrency\": " +
          obs::jsonUInt(support::ThreadPool::defaultConcurrency()) + ",\n";
  Json += "  \"variants_per_workload\": " + obs::jsonUInt(VariantsPer) +
          ",\n";
  Json += "  \"total_bytes\": " + obs::jsonUInt(TotalBytes) + ",\n";
  Json += "  \"total_reference_wall_s\": " + obs::jsonNumber(TotalRef, 4) +
          ",\n";
  Json += "  \"total_full_wall_s\": " + obs::jsonNumber(TotalFull, 4) +
          ",\n";
  Json += "  \"total_incremental_wall_s\": " +
          obs::jsonNumber(TotalIncr, 4) + ",\n";
  Json += "  \"total_parallel_wall_s\": " + obs::jsonNumber(TotalPar, 4) +
          ",\n";
  Json += "  \"full_speedup\": " + obs::jsonNumber(FullSpeedup, 3) + ",\n";
  Json += "  \"incremental_speedup\": " + obs::jsonNumber(IncrSpeedup, 3) +
          ",\n";
  Json += "  \"parallel_speedup\": " + obs::jsonNumber(ParSpeedup, 3) +
          ",\n  \"workloads\": [\n";
  for (size_t I = 0; I != Rows.size(); ++I)
    appendJsonRow(Json, Rows[I], I + 1 == Rows.size());
  Json += "  ]\n}\n";

  std::FILE *Out = std::fopen(OutPath, "w");
  if (!Out) {
    std::fprintf(stderr, "gadget_throughput: cannot write %s\n", OutPath);
    return 1;
  }
  std::fputs(Json.c_str(), Out);
  std::fclose(Out);
  std::printf("wrote %s\n", OutPath);
  return 0;
}
