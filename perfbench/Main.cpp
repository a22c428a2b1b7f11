//===-- perfbench/Main.cpp - Repository benchmark runner -------------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
//
// Runs one workload in one process and prints, as the last line of
// stdout, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced (--trace 0) or the per-layer metrics from the traced
// run (--trace 1). Any failed check exits 1 without that line.
//
//   pgsd_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --expected FILE --workdir DIR [--jobs J]
//                  [--iterations K] [--commit REV]
//   pgsd_perfbench --write-expected FILE
//
// perfbench/run.py builds this program and is the normal entry point.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Trace.h"

#include "frontend/Lower.h"
#include "frontend/Parser.h"
#include "gadget/Attack.h"
#include "gadget/Scanner.h"
#include "lir/ISel.h"
#include "obs/Metrics.h"
#include "passes/Passes.h"
#include "serve/VariantStore.h"
#include "support/Time.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string_view>
#include <thread>

using namespace perfbench;
namespace fs = std::filesystem;

namespace {

//===-- Output helpers ----------------------------------------------------===//

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      Out += ' ';
    } else {
      Out += C;
    }
  }
  return Out;
}

std::string jsonNumber(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

/// {"name": {"value": v, "unit": u}, ...}; with \p Notes, also "note".
std::string metricsJson(const std::vector<Metric> &Ms, bool Notes) {
  std::string Out = "{";
  for (size_t I = 0; I != Ms.size(); ++I) {
    const Metric &M = Ms[I];
    Out += (I ? ", \"" : "\"") + jsonEscape(M.Name) +
           "\": {\"value\": " + jsonNumber(M.Value) + ", \"unit\": \"" +
           jsonEscape(M.Unit) + "\"";
    if (Notes && !M.Note.empty())
      Out += ", \"note\": \"" + jsonEscape(M.Note) + "\"";
    Out += "}";
  }
  return Out + "}";
}

void printTable(const char *Title, const std::vector<Metric> &Ms) {
  std::printf("%s\n", Title);
  for (const Metric &M : Ms)
    std::printf("  %-30s %16.6g %-12s %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), M.Note.c_str());
}

//===-- Provenance --------------------------------------------------------===//

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        return Line.substr(Line.find_first_not_of(' ', Colon + 1));
    }
  return "unknown";
}

#ifdef __OPTIMIZE__
constexpr bool Optimised = true;
#else
constexpr bool Optimised = false;
#endif

std::string provenanceJson(const RunConfig &C) {
  char Host[256] = "unknown";
  gethostname(Host, sizeof(Host) - 1);
  std::string Out = "{\"commit\": \"" + jsonEscape(C.Commit) +
                    "\", \"host\": \"" + jsonEscape(Host) +
                    "\", \"cpu\": \"" + jsonEscape(cpuModel()) +
                    "\", \"nproc\": " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ", \"compiler\": \"" + jsonEscape(PERFBENCH_COMPILER) +
                    "\", \"build_type\": \"" +
                    jsonEscape(PERFBENCH_BUILD_TYPE) +
                    "\", \"optimised\": " + (Optimised ? "true" : "false") +
                    ", \"workload\": \"" + jsonEscape(C.Workload) +
                    "\", \"seed\": " + std::to_string(C.Seed) +
                    ", \"jobs\": " + std::to_string(C.Jobs) + "}";
  return Out;
}

//===-- Expected baseline outputs -----------------------------------------===//

struct Expected {
  int32_t Exit = 0;
  uint32_t Checksum = 0;
};

using ExpectedMap = std::map<std::string, Expected>;

std::string gateKey(const ProgramSpec &S, const GateInput &G) {
  return S.GateName + " " + G.Label;
}

bool loadExpected(const std::string &Path, ExpectedMap &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream L(Line);
    std::string Name, Label;
    long long Exit = 0;
    unsigned long long Sum = 0;
    if (!(L >> Name >> Label >> Exit >> Sum))
      return false;
    Out[Name + " " + Label] = {static_cast<int32_t>(Exit),
                               static_cast<uint32_t>(Sum)};
  }
  return !Out.empty();
}

//===-- Set-up ------------------------------------------------------------===//

/// Counts the traced set-up records beside its spans.
struct CompileCounts {
  uint64_t IrInstrs = 0;
  uint64_t MirInstrs = 0;
};

uint64_t countInstrs(const ir::Module &M) {
  uint64_t N = 0;
  for (const ir::Function &F : M.Functions)
    for (const ir::BasicBlock &B : F.Blocks)
      N += B.Instrs.size();
  return N;
}

uint64_t countInstrs(const mir::MModule &M) {
  uint64_t N = 0;
  for (const mir::MFunction &F : M.Functions)
    for (const mir::MBasicBlock &B : F.Blocks)
      N += B.Instrs.size();
  return N;
}

/// Compiles, profiles and (when \p Fill) fills the baseline battery of
/// \p Spec. With a tracer the compile stages are also walked one public
/// call at a time under spans, and must reproduce compileProgram's MIR.
std::unique_ptr<Prepared> prepare(const ProgramSpec &Spec, bool Fill,
                                  Tracer *T, CompileCounts &Counts,
                                  Checks &Chk) {
  auto Pr = std::make_unique<Prepared>();
  Pr->Spec = Spec;
  if (T) {
    std::vector<frontend::Diag> Diags;
    frontend::Program Ast;
    ir::Module IR;
    mir::MModule MIR;
    {
      Tracer::Scope S(T, "frontend.parse");
      Ast = frontend::parse(Spec.Source, Diags);
    }
    {
      Tracer::Scope S(T, "frontend.lower");
      IR = frontend::lower(Ast, Spec.GateName, Diags);
    }
    {
      Tracer::Scope S(T, "passes.optimize");
      passes::optimize(IR);
    }
    Counts.IrInstrs += countInstrs(IR);
    {
      Tracer::Scope S(T, "lir.isel");
      MIR = lir::selectInstructions(IR);
      for (unsigned Iter = 0; Iter != 4 && lir::peephole(MIR) != 0; ++Iter)
        ;
    }
    Counts.MirInstrs += countInstrs(MIR);
    Pr->P = driver::compileProgram(Spec.Source, Spec.GateName);
    if (!Diags.empty() || mir::print(MIR) != mir::print(Pr->P.MIR))
      Chk.fail(Spec.Name + ": staged compile differs from compileProgram");
  } else {
    Pr->P = driver::compileProgram(Spec.Source, Spec.GateName);
  }
  if (!Pr->P.ok()) {
    Chk.fail(Spec.Name + ": compile failed: " + Pr->P.errors());
    return Pr;
  }
  {
    Tracer::Scope S(T, "profile.train");
    if (!driver::profileAndStamp(Pr->P, Spec.Train))
      Chk.fail(Spec.Name + ": training run trapped");
  }
  if (Fill) {
    Tracer::Scope S(T, "verify.baseline_fill");
    Pr->Cache = std::make_unique<verify::BaselineCache>(
        Pr->P.MIR, verify::VerifyOptions());
    for (size_t I = 0; I != Pr->Cache->battery().size(); ++I)
      Pr->Cache->baselineRun(I);
  }
  Pr->Base = driver::linkBaseline(Pr->P);
  return Pr;
}

PreparedSet prepareAll(Workload &W, const RunConfig &C, bool Fill,
                       Tracer *T, CompileCounts &Counts, Checks &Chk) {
  PreparedSet Progs;
  for (const ProgramSpec &S : W.programs()) {
    Progs.push_back(prepare(S, Fill, T, Counts, Chk));
    if (!Chk.ok())
      return Progs;
  }
  W.setupExtra(C, Progs, Chk);
  return Progs;
}

//===-- Correctness gate --------------------------------------------------===//

struct GateRun {
  Prepared *Pr;
  const GateInput *G;
  mexec::RunResult R;
};

/// Runs every baseline on its gate inputs and compares exit code and
/// output checksum with the committed expected file. Ref results also
/// become the Fig. 4 baseline. Traced: on the calling thread under
/// mexec spans; otherwise on \p Jobs threads.
void runGate(PreparedSet &Progs, const ExpectedMap &Exp, unsigned Jobs,
             Tracer *T, uint64_t &RefInstrs, Checks &Chk) {
  std::vector<GateRun> Runs;
  for (auto &Pr : Progs)
    for (const GateInput &G : Pr->Spec.Gate)
      Runs.push_back({Pr.get(), &G, {}});
  auto RunOne = [&](size_t I) {
    GateRun &GR = Runs[I];
    const bool IsRef = GR.G->Label != "train";
    Tracer::Scope S(T, IsRef ? "mexec.ref_run" : "mexec.train_run");
    GR.R = driver::execute(GR.Pr->P.MIR, GR.G->Input);
  };
  forEachIndex(T ? 1 : Jobs, Runs.size(), RunOne);
  RefInstrs = 0;
  for (GateRun &GR : Runs) {
    const std::string Key = gateKey(GR.Pr->Spec, *GR.G);
    auto It = Exp.find(Key);
    if (It == Exp.end()) {
      Chk.fail("gate: no expected output for " + Key);
      continue;
    }
    if (GR.R.Trapped || GR.R.ExitCode != It->second.Exit ||
        GR.R.Checksum != It->second.Checksum) {
      char Buf[160];
      std::snprintf(Buf, sizeof(Buf),
                    "gate: %s: exit %d checksum %u (trapped %d), "
                    "expected exit %d checksum %u",
                    Key.c_str(), GR.R.ExitCode, GR.R.Checksum,
                    GR.R.Trapped ? 1 : 0, It->second.Exit,
                    It->second.Checksum);
      Chk.fail(Buf);
    }
    if (GR.G->Label != "train")
      RefInstrs += GR.R.Instructions;
    if (GR.G->Label == "ref") {
      GR.Pr->RefCycles = GR.R.cycles();
      GR.Pr->RefChecksum = GR.R.Checksum;
      GR.Pr->RefExit = GR.R.ExitCode;
    }
  }
  // Programs sharing a gate (the PHP profiles) share its ref baseline.
  for (auto &Pr : Progs)
    if (!Pr->Spec.Ref.empty() && Pr->RefCycles == 0.0)
      Chk.fail(Pr->Spec.Name + ": ref input has no gate entry");
}

//===-- Expected-file generation ------------------------------------------===//

/// Writes the expected baseline outputs of every workload's programs,
/// computed on the tree-walking reference interpreter (mexec::run), not
/// the fast engine the benchmark checks. The fast engine must agree.
int writeExpected(const std::string &Path) {
  std::map<std::string, Expected> Out;
  for (const std::string &Name : workloadNames()) {
    std::unique_ptr<Workload> W = makeWorkload(Name);
    for (const ProgramSpec &S : W->programs()) {
      if (S.Gate.empty())
        continue;
      driver::Program P = driver::compileProgram(S.Source, S.GateName);
      if (!P.ok() || !driver::profileAndStamp(P, S.Train)) {
        std::fprintf(stderr, "%s: set-up failed\n", S.Name.c_str());
        return 1;
      }
      for (const GateInput &G : S.Gate) {
        if (Out.count(gateKey(S, G)))
          continue;
        mexec::RunOptions O;
        O.Input = G.Input;
        mexec::RunResult Ref = mexec::run(P.MIR, O);
        mexec::RunResult Fast = driver::execute(P.MIR, G.Input);
        if (Ref.Trapped || Fast.ExitCode != Ref.ExitCode ||
            Fast.Checksum != Ref.Checksum) {
          std::fprintf(stderr, "%s: engines disagree\n",
                       gateKey(S, G).c_str());
          return 1;
        }
        Out[gateKey(S, G)] = {Ref.ExitCode, Ref.Checksum};
      }
    }
  }
  std::ofstream F(Path);
  F << "# Baseline outputs the benchmark's correctness gate expects:\n"
       "# <program> <input> <exit code> <output checksum>.\n"
       "# Generated by `pgsd_perfbench --write-expected` on the reference\n"
       "# interpreter (mexec::run), which the benchmark does not run.\n";
  for (const auto &[Key, E] : Out)
    F << Key << " " << E.Exit << " " << E.Checksum << "\n";
  return F.good() ? 0 : 1;
}

//===-- Traced run: layer probes and per-layer metrics --------------------===//

double meanOf(const std::vector<double> &V) {
  double Sum = 0.0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0.0 : Sum / static_cast<double>(V.size());
}

struct WalkTotals {
  std::vector<double> Attempts, Nops, TextKb;
  uint64_t EquivFunctions = 0;
  uint64_t ScannedBytes = 0;
};

/// Walks admission for the first \p SeedsPerProgram iteration-0 seeds of
/// every program, checks each image against driver::makeVariantVerified,
/// then probes the gadget and serve layers with the accepted images.
WalkTotals tracedWalk(Workload &W, const RunConfig &C, PreparedSet &Progs,
                      unsigned SeedsPerProgram, Tracer &T, Checks &Chk) {
  WalkTotals Tot;
  const diversity::Pipeline Pipe = W.pipeline();
  const diversity::DiversityOptions Opts = W.diversity();
  fs::path StoreDir = fs::path(C.WorkDir) / "trace-store";
  fs::remove_all(StoreDir);
  serve::VariantStore Store(StoreDir.string());
  std::string Err;
  if (!Store.open(&Err)) {
    Chk.fail("trace store: " + Err);
    return Tot;
  }
  for (size_t I = 0; I != Progs.size(); ++I) {
    Prepared &Pr = *Progs[I];
    std::vector<std::vector<uint8_t>> Images;
    std::vector<uint64_t> Seeds;
    for (unsigned J = 0; J != SeedsPerProgram; ++J) {
      const uint64_t Seed = variantSeed(C.Seed, 0, I * 1000 + J);
      WalkResult WR = walkAdmission(Pr, Pipe, Opts, Seed, T);
      // The reference call runs with telemetry off so the obs
      // cross-check sees only the walked calls.
      verify::VerifyOptions VO;
      VO.Cache = Pr.Cache.get();
      obs::setEnabled(false);
      driver::VerifiedVariant DV =
          driver::makeVariantVerified(Pr.P, Pipe, Opts, Seed, VO);
      obs::setEnabled(true);
      if (DV.V.Image.Text != WR.Image.Text || DV.Attempts != WR.Attempts ||
          DV.SeedUsed != WR.SeedUsed || DV.UsedFallback != WR.Fallback)
        Chk.fail(Pr.Spec.Name + ": traced walk differs from "
                                "makeVariantVerified for seed " +
                 std::to_string(Seed));
      Tot.Attempts.push_back(WR.Attempts);
      Tot.EquivFunctions += WR.EquivFunctions;
      if (WR.Fallback)
        continue;
      Tot.Nops.push_back(static_cast<double>(WR.Nops));
      Tot.TextKb.push_back(static_cast<double>(WR.Image.Text.size()) /
                           1024.0);
      Images.push_back(std::move(WR.Image.Text));
      Seeds.push_back(Seed);
    }

    // Gadget layer.
    {
      Tracer::Scope S(&T, "gadget.scan");
      gadget::ImageScan Scan(Pr.Base.Text);
      Tot.ScannedBytes += Scan.size();
      for (const std::vector<uint8_t> &Img : Images)
        Tot.ScannedBytes += gadget::ImageScan(Img).size();
    }
    for (size_t K = 0; K != Images.size(); ++K) {
      std::vector<gadget::SurvivingGadget> Surv;
      {
        Tracer::Scope S(&T, "gadget.survivor", Seeds[K]);
        Surv = gadget::survivingGadgets(Pr.Base.Text, Images[K]);
      }
      Tracer::Scope S(&T, "gadget.attack", Seeds[K]);
      auto Usable = gadget::filterToSurvivors(
          gadget::classifyGadgets(Images[K].data(), Images[K].size()), Surv);
      for (auto M : {gadget::AttackModel::RopGadget,
                     gadget::AttackModel::Microgadget})
        gadget::checkAttack(Usable, M);
    }
    {
      Tracer::Scope S(&T, "gadget.multi");
      gadget::gadgetsInAtLeast(Images, {2, 3, 5});
    }

    // Serve layer: key, publish and load of each accepted image.
    const std::string Material = serve::baseKeyMaterial(Pr.P.MIR, {});
    for (size_t K = 0; K != Images.size(); ++K) {
      serve::StoreKey Key;
      {
        Tracer::Scope S(&T, "serve.key", Seeds[K]);
        Key = serve::makeVariantKey(Material, Pipe, Opts, Seeds[K]);
      }
      serve::StoredVariant SV;
      SV.Text = Images[K];
      SV.Seed = Seeds[K];
      {
        Tracer::Scope S(&T, "serve.publish", Seeds[K]);
        if (!Store.publish(Key, SV, &Err))
          Chk.fail("trace store publish: " + Err);
      }
      serve::StoredVariant Back;
      {
        Tracer::Scope S(&T, "serve.load", Seeds[K]);
        if (Store.load(Key, Back) != serve::LoadStatus::Hit ||
            Back.Text != Images[K])
          Chk.fail("trace store: published image did not load back");
      }
    }
  }
  fs::remove_all(StoreDir);
  return Tot;
}

/// Compares bench-side span totals with the program's own obs spans
/// where both time the same work; a wrapper around the wrong call shows
/// up as a ratio far from 1.
std::vector<Metric> crossCheck(const Tracer &T, const obs::LocalMetrics &M) {
  struct Pair {
    std::vector<const char *> Bench;
    const char *Obs;
  };
  static const Pair Pairs[] = {
      {{"frontend.parse", "frontend.lower"}, "pipeline.frontend"},
      {{"passes.optimize"}, "pipeline.passes"},
      {{"lir.isel"}, "pipeline.isel"},
      {{"analysis.equiv"}, "equiv.prove"},
      {{"verify.diff_execute"}, "verify.diff_execute"},
      {{"gadget.survivor"}, "gadget.survivor"},
      {{"gadget.multi"}, "gadget.multiversion"},
  };
  std::vector<Metric> Out;
  for (const Pair &P : Pairs) {
    double Bench = 0.0;
    std::string Names;
    for (const char *N : P.Bench) {
      Bench += T.total(N);
      Names += (Names.empty() ? "" : "+") + std::string(N);
    }
    auto It = M.Phases.find(P.Obs);
    const double Obs = It == M.Phases.end() ? 0.0 : It->second.WallSeconds;
    const uint64_t ObsCount = It == M.Phases.end() ? 0 : It->second.Count;
    const double Ratio = Bench > 0.0 ? Obs / Bench : 0.0;
    // The compile pairs time two separate calls of the same sub-
    // millisecond work, so host noise alone moves them; the rest time
    // one call from outside and inside, where the inner span can only
    // be shorter.
    const bool Separate = std::string_view(P.Obs).rfind("pipeline.", 0) == 0;
    const bool Ok = Separate ? Ratio > 0.25 && Ratio < 4.0
                             : Ratio > 0.5 && Ratio < 1.05;
    Out.push_back({"obs/" + std::string(P.Obs), Ratio, "ratio",
                   std::string(Ok ? "ok" : "MISMATCH") + ": bench " + Names +
                       " " + jsonNumber(Bench) + " s in " +
                       std::to_string(T.durations(P.Bench[0]).size()) +
                       " spans, obs " + jsonNumber(Obs) + " s in " +
                       std::to_string(ObsCount)});
  }
  return Out;
}

} // namespace

//===-- main --------------------------------------------------------------===//

int main(int Argc, char **Argv) {
  RunConfig C;
  std::string WriteExpected;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "missing value for %s\n", A.c_str());
        std::exit(2);
      }
      return Argv[++I];
    };
    if (A == "--workload")
      C.Workload = Next();
    else if (A == "--seed")
      C.Seed = std::strtoull(Next().c_str(), nullptr, 10);
    else if (A == "--seconds")
      C.Seconds = std::strtod(Next().c_str(), nullptr);
    else if (A == "--trace")
      C.Trace = Next() != "0";
    else if (A == "--jobs")
      C.Jobs = static_cast<unsigned>(std::strtoul(Next().c_str(), nullptr, 10));
    else if (A == "--iterations")
      C.MaxIterations =
          static_cast<unsigned>(std::strtoul(Next().c_str(), nullptr, 10));
    else if (A == "--expected")
      C.ExpectedPath = Next();
    else if (A == "--workdir")
      C.WorkDir = Next();
    else if (A == "--commit")
      C.Commit = Next();
    else if (A == "--write-expected")
      WriteExpected = Next();
    else {
      std::fprintf(stderr, "unknown argument %s\n", A.c_str());
      return 2;
    }
  }
  if (!WriteExpected.empty())
    return writeExpected(WriteExpected);

  std::unique_ptr<Workload> W = makeWorkload(C.Workload);
  if (!W || C.WorkDir.empty() || C.Jobs == 0) {
    std::fprintf(stderr, "usage: --workload {fleet-large,fleet-hot,"
                         "serve-restart,paper} --workdir DIR ...\n");
    return 2;
  }
  ExpectedMap Exp;
  if (!loadExpected(C.ExpectedPath, Exp)) {
    std::fprintf(stderr, "cannot read expected outputs %s\n",
                 C.ExpectedPath.c_str());
    return 2;
  }
  fs::create_directories(C.WorkDir);

  std::printf("perfbench-provenance: %s\n", provenanceJson(C).c_str());
  if (!Optimised)
    std::printf("WARNING: this build is not optimised; timings are not "
                "comparable\n");

  Checks Chk;
  auto Abort = [&]() {
    for (const std::string &F : Chk.Failures)
      std::fprintf(stderr, "CHECK FAILED: %s\n", F.c_str());
    return 1;
  };

  // Traced runs turn on the program's own telemetry too, for the
  // cross-check; untraced runs leave it off.
  Tracer T;
  Tracer *TP = C.Trace ? &T : nullptr;
  obs::Registry::global().reset();
  obs::setEnabled(C.Trace);

  // Set-up: compile, profile, fill (and the workload's extra set-up).
  // This first, cold set-up makes the programs the run uses. An
  // untraced run repeats the set-up in its timed loop below and times
  // only those; a traced run reports this one.
  std::vector<double> SetupTimes;
  CompileCounts Counts;
  const bool Fill = W->fillsBaseline() || C.Trace;
  const double Setup0 = support::monotonicSeconds();
  PreparedSet Progs = prepareAll(*W, C, Fill, TP, Counts, Chk);
  if (C.Trace)
    SetupTimes.push_back(support::monotonicSeconds() - Setup0);
  if (!Chk.ok())
    return Abort();

  uint64_t RefInstrs = 0;
  runGate(Progs, Exp, C.Jobs, TP, RefInstrs, Chk);
  if (!Chk.ok())
    return Abort();
  obs::LocalMetrics ObsSetup = obs::Registry::global().snapshot();

  // Timed section. Iteration 0 warms pools, caches and the allocator
  // and supplies the quality metrics; it is not timed. An untraced run
  // repeats the set-up after every iteration and setup_s is the median,
  // so set-up and iterations sample the host over the same stretch of
  // time; the set-up after iteration 0 is a warm-up and is not timed
  // either. A traced run instead alternates telemetry off and on per
  // iteration; the difference of the two medians is the tracing
  // overhead.
  std::vector<double> Walls, TracedWalls, Rates, CpuUtil;
  uint64_t Units = 0, Attempted = 0, Failed = 0;
  double Elapsed = 0.0;
  const double Budget = C.Trace ? C.Seconds * 0.5 : C.Seconds;
  for (unsigned Iter = 0;; ++Iter) {
    const bool Timed = Iter > 0;
    const bool ObsOn = C.Trace && Timed && Iter % 2 == 0;
    obs::setEnabled(ObsOn);
    IterStats S = W->iterate(C, Progs, Iter, Chk);
    if (!Chk.ok())
      return Abort();
    Attempted += S.Attempted;
    Failed += S.Failed;
    if (Timed) {
      (ObsOn ? TracedWalls : Walls).push_back(S.Wall);
      if (!ObsOn)
        Rates.push_back(static_cast<double>(S.Units) / S.Wall);
      CpuUtil.push_back(S.Cpu / (S.Wall * C.Jobs));
      Units += S.Units;
      Elapsed += S.Wall;
    }
    if (!C.Trace) {
      CompileCounts Round;
      const double T0 = support::monotonicSeconds();
      PreparedSet Again = prepareAll(*W, C, Fill, nullptr, Round, Chk);
      const double Setup = support::monotonicSeconds() - T0;
      if (!Chk.ok())
        return Abort();
      if (Timed) {
        SetupTimes.push_back(Setup);
        Elapsed += Setup;
      }
    }
    if (C.MaxIterations != 0 && Iter + 1 >= C.MaxIterations)
      break;
    if (Elapsed >= Budget && Iter >= 3)
      break;
  }
  obs::setEnabled(false);

  std::vector<Metric> EndToEnd, Extra, Determ;
  EndToEnd.push_back({"setup_s", medianOf(SetupTimes), "s",
                      std::to_string(SetupTimes.size()) + " set-ups"});
  EndToEnd.push_back({"wall_s", medianOf(Walls), "s",
                      std::to_string(Walls.size()) + " iterations"});
  EndToEnd.push_back({"variants_per_s", medianOf(Rates), "variants/s",
                      "median per iteration; " + std::to_string(Units) +
                          " variants in timed iterations"});
  W->finish(C, Progs, Chk, EndToEnd, Extra, Determ);
  EndToEnd.push_back({"peak_rss_mb", peakRssMb(), "MB", "getrusage"});
  Extra.push_back({"failed_ratio",
                   static_cast<double>(Failed) /
                       static_cast<double>(std::max<uint64_t>(Attempted, 1)),
                   "ratio", "(fallbacks + shed + failed) / attempted"});
  if (!Chk.ok())
    return Abort();

  std::vector<Metric> Layers;
  if (C.Trace) {
    obs::Registry::global().reset();
    obs::setEnabled(true);
    // Fleet and serve walk four seeds per program, the paper (26
    // programs) one.
    const unsigned WalkSeeds = Progs.size() > 8 ? 1 : 4;
    WalkTotals Tot = tracedWalk(*W, C, Progs, WalkSeeds, T, Chk);
    obs::setEnabled(false);
    obs::LocalMetrics ObsAll = obs::Registry::global().snapshot();
    ObsAll.merge(ObsSetup);
    if (!Chk.ok())
      return Abort();

    auto Med = [&](const char *Name, double Scale) {
      return medianOf(T.durations(Name)) * Scale;
    };
    const double RefRun = T.total("mexec.ref_run");
    const auto [QueuePeak, Shed] = W->serveQueue();
    Layers = {
        {"frontend.parse_s", T.total("frontend.parse"), "s", ""},
        {"frontend.lower_s", T.total("frontend.lower"), "s", ""},
        {"passes.optimize_s", T.total("passes.optimize"), "s", ""},
        {"passes.ir_instrs", static_cast<double>(Counts.IrInstrs), "count",
         "IR instructions after optimize"},
        {"lir.isel_s", T.total("lir.isel"), "s",
         "selectInstructions + peephole fixpoint"},
        {"lir.mir_instrs", static_cast<double>(Counts.MirInstrs), "count",
         "MIR instructions after isel"},
        {"profile.train_s", T.total("profile.train"), "s", ""},
        {"verify.baseline_fill_s", T.total("verify.baseline_fill"), "s", ""},
        {"diversity.run_us", Med("diversity.run", 1e6), "us",
         "median per attempt"},
        {"diversity.nops_per_variant", meanOf(Tot.Nops), "count",
         "mean over accepted walked variants"},
        {"codegen.link_us", Med("codegen.link", 1e6), "us",
         "median per attempt"},
        {"codegen.text_kb", meanOf(Tot.TextKb), "KB",
         "mean accepted .text"},
        {"analysis.checkers_ms", Med("analysis.checkers", 1e3), "ms",
         "median per attempt"},
        {"analysis.equiv_ms", Med("analysis.equiv", 1e3), "ms",
         "median per attempt"},
        {"analysis.equiv_functions", static_cast<double>(Tot.EquivFunctions),
         "count", "functions proved across walked attempts"},
        {"verify.diff_execute_ms", Med("verify.diff_execute", 1e3), "ms",
         "median per attempt"},
        {"verify.image_ms", Med("verify.image", 1e3), "ms",
         "median per attempt"},
        {"verify.profile_ms", Med("verify.profile", 1e3), "ms",
         "median per attempt"},
        {"verify.attempts_per_variant", meanOf(Tot.Attempts), "count",
         "mean over walked seeds"},
        {"mexec.mips",
         RefRun > 0 ? static_cast<double>(RefInstrs) / RefRun / 1e6 : 0.0,
         "MIPS", "baseline ref-input gate runs"},
        {"mexec.run_s", RefRun, "s", "baseline ref-input gate runs"},
        {"gadget.scan_mb_per_s",
         T.total("gadget.scan") > 0
             ? static_cast<double>(Tot.ScannedBytes) / 1e6 /
                   T.total("gadget.scan")
             : 0.0,
         "MB/s", "ImageScan over baselines and walked images"},
        {"gadget.survivor_ms", Med("gadget.survivor", 1e3), "ms",
         "median per image"},
        {"gadget.multi_s", T.total("gadget.multi"), "s",
         "gadgetsInAtLeast {2,3,5} over walked images"},
        {"gadget.attack_s", T.total("gadget.attack"), "s",
         "classify + filter + both attack models"},
        {"serve.key_us", Med("serve.key", 1e6), "us",
         "makeVariantKey from baseKeyMaterial"},
        {"serve.load_us", Med("serve.load", 1e6), "us",
         "VariantStore::load"},
        {"serve.publish_us", Med("serve.publish", 1e6), "us",
         "VariantStore::publish"},
        {"serve.queue_peak", static_cast<double>(QueuePeak), "count",
         "ServeResult.QueuePeakDepth (0 without serve)"},
        {"serve.shed", static_cast<double>(Shed), "count",
         "ServeResult.Shed (0 without serve)"},
        {"driver.cpu_util", medianOf(CpuUtil), "ratio",
         "CPU seconds / (wall seconds x jobs) per iteration"},
    };
    for (const char *Name : {"passes.ir_instrs", "lir.mir_instrs",
                             "diversity.nops_per_variant",
                             "analysis.equiv_functions",
                             "verify.attempts_per_variant"})
      for (const Metric &M : Layers)
        if (M.Name == Name)
          Determ.push_back(M);

    const double Untraced = medianOf(Walls);
    const double Traced = medianOf(TracedWalls);
    Extra.push_back({"trace_overhead_s", Traced - Untraced, "s",
                     "median wall with telemetry on minus off (" +
                         jsonNumber(Untraced > 0 ? 100.0 *
                                                       (Traced - Untraced) /
                                                       Untraced
                                                 : 0.0) +
                         "%)"});
    const double Root = T.total("admission");
    Extra.push_back({"walk_unattributed_pct",
                     Root > 0 ? 100.0 *
                                    (T.selfTotal("admission") +
                                     T.selfTotal("attempt")) /
                                    Root
                              : 0.0,
                     "%", "admission time outside every layer span"});
    for (Metric &M : crossCheck(T, ObsAll))
      Extra.push_back(std::move(M));
    const std::string TracePath =
        (fs::path(C.WorkDir) /
         ("trace-" + C.Workload + "-" + std::to_string(C.Seed) + ".json"))
            .string();
    if (T.writeJson(TracePath))
      Extra.push_back({"trace_spans", static_cast<double>(T.spans().size()),
                       "count", TracePath});
  }

  auto List = [](const std::vector<double> &V) {
    std::string Out;
    for (double X : V)
      Out += (Out.empty() ? "" : ", ") + jsonNumber(X);
    return Out;
  };
  std::printf("perfbench-iteration-walls: [%s]\n", List(Walls).c_str());
  std::printf("perfbench-setup-walls: [%s]\n", List(SetupTimes).c_str());
  printTable("End-to-end metrics (untraced iterations):", EndToEnd);
  printTable("Workload and self-check metrics:", Extra);
  if (C.Trace)
    printTable("Per-layer metrics (traced run):", Layers);
  std::printf("perfbench-deterministic: %s\n",
              metricsJson(Determ, false).c_str());
  std::vector<Metric> All = EndToEnd;
  All.insert(All.end(), Extra.begin(), Extra.end());
  All.insert(All.end(), Layers.begin(), Layers.end());
  std::printf("perfbench-report: %s\n", metricsJson(All, true).c_str());
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(std::max<uint64_t>(Attempted, 1)),
              static_cast<unsigned long long>(Failed),
              metricsJson(C.Trace ? Layers : EndToEnd, false).c_str());
  return 0;
}
