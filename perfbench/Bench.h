//===-- perfbench/Bench.h - Shared benchmark types ---------------*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by the repository benchmark (perfbench/README.md): the
/// run configuration, one profiled program with its baseline state, the
/// metric records every workload reports, and the workload interface.
/// Everything here calls the libraries through their public headers;
/// the benchmark never changes the code it measures.
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_PERFBENCH_BENCH_H
#define PGSD_PERFBENCH_BENCH_H

#include "codegen/Linker.h"
#include "diversity/NopInsertion.h"
#include "diversity/Transform.h"
#include "driver/Driver.h"
#include "verify/BaselineCache.h"
#include "verify/Verifier.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using namespace pgsd;

/// Command-line configuration of one benchmark process.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Worker threads of the workload (fixed at 4; the determinism check
  /// re-runs at 1).
  unsigned Jobs = 4;
  /// Stop after this many timed iterations (0: run for Seconds).
  unsigned MaxIterations = 0;
  std::string ExpectedPath; ///< Committed baseline outputs.
  std::string WorkDir;      ///< Scratch root for stores and traces.
  std::string Commit;       ///< Source revision (from the launcher).
};

/// One input the correctness gate runs a baseline on.
struct GateInput {
  std::string Label; ///< "train", "ref" or "clbg:<script>".
  std::vector<int32_t> Input;
};

/// One program a workload diversifies.
struct ProgramSpec {
  std::string Name;   ///< Report name, e.g. "403.gcc" or "php:nbody".
  std::string Source; ///< MiniC text.
  std::string GateName; ///< Expected-output key (the workload name).
  std::vector<int32_t> Train; ///< Profiling input.
  std::vector<int32_t> Ref;   ///< Measurement input (may be empty).
  std::vector<GateInput> Gate; ///< Baseline outputs checked at start.
};

/// One compiled, profiled program with its filled baseline cache and
/// baseline image. Pinned in memory: the cache refers to P.MIR.
struct Prepared {
  ProgramSpec Spec;
  driver::Program P;
  std::unique_ptr<verify::BaselineCache> Cache;
  codegen::Image Base;
  double RefCycles = 0.0; ///< Baseline cost on Spec.Ref (gate fills it).
  uint32_t RefChecksum = 0;
  int32_t RefExit = 0;
};

using PreparedSet = std::vector<std::unique_ptr<Prepared>>;

/// A reported number.
struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
  std::string Note; ///< Printed beside the value in the human report.
};

/// What one timed iteration did.
struct IterStats {
  double Wall = 0.0;        ///< Seconds.
  double Cpu = 0.0;         ///< Process CPU seconds.
  uint64_t Units = 0;       ///< Verified variants produced or served.
  uint64_t Attempted = 0;   ///< Variants or requests asked for.
  uint64_t Failed = 0;      ///< Fallbacks + shed + failed.
};

/// Accumulated correctness verdict: any failure voids the run.
struct Checks {
  std::vector<std::string> Failures;
  void fail(std::string Why) { Failures.push_back(std::move(Why)); }
  bool ok() const { return Failures.empty(); }
};

/// One benchmark workload. The runner sets up (compile, profile, fill,
/// then setupExtra()), runs the gate, then alternates iterate() with a
/// timed repeat of the set-up until the time budget ends, then calls
/// finish(). Quality metrics come from iteration 0 only, so they are a
/// pure function of the seed.
class Workload {
public:
  virtual ~Workload() = default;

  virtual const char *name() const = 0;

  /// Programs this workload diversifies.
  virtual std::vector<ProgramSpec> programs() const = 0;

  /// The pipeline and budget the traced admission walk uses.
  virtual diversity::Pipeline pipeline() const { return {}; }
  virtual diversity::DiversityOptions diversity() const;

  /// Whether set-up fills the baseline battery (the paper workload
  /// verifies nothing in its timed section, so it skips the fill).
  virtual bool fillsBaseline() const { return true; }

  /// Extra set-up beyond compile/profile/fill (timed with it).
  virtual void setupExtra(const RunConfig &, PreparedSet &, Checks &) {}

  /// One timed unit of work. \p Iter numbers iterations from 0.
  virtual IterStats iterate(const RunConfig &C, PreparedSet &Progs,
                            unsigned Iter, Checks &Chk) = 0;

  /// End-of-run checks and metrics. Appends end-to-end metrics that the
  /// JSON result carries to \p EndToEnd and workload-specific ones to
  /// \p Extra; deterministic quality metrics also go to \p Determ.
  virtual void finish(const RunConfig &C, PreparedSet &Progs, Checks &Chk,
                      std::vector<Metric> &EndToEnd,
                      std::vector<Metric> &Extra,
                      std::vector<Metric> &Determ) = 0;

  /// serve.queue_peak / serve.shed from the ServeResults (0 elsewhere).
  virtual std::pair<uint64_t, uint64_t> serveQueue() const { return {0, 0}; }
};

/// Creates the workload named \p Name, or null when unknown.
std::unique_ptr<Workload> makeWorkload(const std::string &Name);

/// Names of every workload, in BENCHMARK.json order.
std::vector<std::string> workloadNames();

/// Derives the seed of variant \p Index in iteration \p Iter of a run
/// with workload seed \p Seed (SplitMix64 over the triple).
uint64_t variantSeed(uint64_t Seed, unsigned Iter, uint64_t Index);

/// FNV-1a digest of an image's .text.
uint64_t textDigest(const std::vector<uint8_t> &Text);

/// Runs Fn(0..N-1) on \p Jobs threads (inline when Jobs <= 1). Each
/// index must write only its own slot, so results do not depend on Jobs.
void forEachIndex(unsigned Jobs, size_t N,
                  const std::function<void(size_t)> &Fn);

/// Median of \p V (0 when empty).
double medianOf(std::vector<double> V);

/// Peak resident set of this process in MB.
double peakRssMb();

} // namespace perfbench

#endif // PGSD_PERFBENCH_BENCH_H
