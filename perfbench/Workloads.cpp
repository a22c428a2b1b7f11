//===-- perfbench/Workloads.cpp - The four benchmark workloads -------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
//
// fleet-large, fleet-hot, serve-restart and paper. README.md gives the
// reason for each; the sizes below keep one iteration well under a
// second (paper: a few seconds) on a 4-core host, so a 10 s run takes
// a median over several iterations.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "driver/Batch.h"
#include "gadget/Attack.h"
#include "gadget/Scanner.h"
#include "serve/Server.h"
#include "serve/VariantStore.h"
#include "support/Statistics.h"
#include "support/ThreadPool.h"
#include "support/Time.h"
#include "workloads/Workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <set>
#include <unordered_map>

using namespace perfbench;
namespace fs = std::filesystem;

uint64_t perfbench::variantSeed(uint64_t Seed, unsigned Iter,
                                uint64_t Index) {
  auto Mix = [](uint64_t Z) {
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  };
  return Mix(Mix(Seed * 0x9E3779B97F4A7C15ull + Iter) + Index);
}

uint64_t perfbench::textDigest(const std::vector<uint8_t> &Text) {
  return serve::fnv1a64(Text.data(), Text.size());
}

double perfbench::medianOf(std::vector<double> V) {
  return V.empty() ? 0.0 : median(std::move(V));
}

double perfbench::peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

diversity::DiversityOptions Workload::diversity() const {
  // The paper's default: log heuristic, pNOP 0-30%.
  return diversity::DiversityOptions::profiled(
      diversity::ProbabilityModel::Log, 0.0, 0.30);
}

namespace {

ProgramSpec specProgram(const std::string &Name) {
  const workloads::Workload &W = workloads::specWorkload(Name);
  ProgramSpec S;
  S.Name = W.Name;
  S.Source = W.Source;
  S.GateName = W.Name;
  S.Train = W.TrainInput;
  S.Ref = W.RefInput;
  S.Gate = {{"train", W.TrainInput}, {"ref", W.RefInput}};
  return S;
}

/// The PHP-like interpreter profiled on CLBG script \p Script. With
/// \p WithGate the baseline is checked on every script.
ProgramSpec phpProgram(const workloads::PhpScript &Script, bool WithGate) {
  workloads::Workload W = workloads::phpInterpreter();
  ProgramSpec S;
  S.Name = "php:" + Script.Name;
  S.Source = W.Source;
  S.GateName = W.Name;
  S.Train = Script.Input;
  if (WithGate)
    for (const workloads::PhpScript &G : workloads::clbgScripts())
      S.Gate.push_back({"clbg:" + G.Name, G.Input});
  return S;
}

} // namespace

void perfbench::forEachIndex(unsigned Jobs, size_t N,
                             const std::function<void(size_t)> &Fn) {
  if (Jobs <= 1) {
    for (size_t I = 0; I != N; ++I)
      Fn(I);
    return;
  }
  support::ThreadPool Pool(Jobs);
  for (size_t I = 0; I != N; ++I)
    Pool.enqueue([&Fn, I] { Fn(I); });
  Pool.wait();
}

namespace {

/// Survivor and size totals of accepted images against one baseline.
struct Quality {
  uint64_t Survivors = 0;
  uint64_t BaseGadgets = 0; ///< Baseline gadget count x images scored.
  uint64_t VariantText = 0;
  uint64_t BaseText = 0;    ///< Baseline .text bytes x images scored.

  void add(uint64_t NumSurvivors, uint64_t NumBaseGadgets,
           size_t VariantBytes, size_t BaseBytes) {
    Survivors += NumSurvivors;
    BaseGadgets += NumBaseGadgets;
    VariantText += VariantBytes;
    BaseText += BaseBytes;
  }

  void report(std::vector<Metric> &EndToEnd,
              std::vector<Metric> &Determ) const {
    Metric Surv{"surviving_gadget_pct",
                BaseGadgets ? 100.0 * static_cast<double>(Survivors) /
                                  static_cast<double>(BaseGadgets)
                            : 0.0,
                "%", "iteration 0; Survivor vs baseline"};
    Metric Growth{"text_growth_pct",
                  BaseText ? 100.0 * (static_cast<double>(VariantText) /
                                          static_cast<double>(BaseText) -
                                      1.0)
                           : 0.0,
                  "%", "iteration 0; .text growth over baseline"};
    EndToEnd.push_back(Surv);
    EndToEnd.push_back(Growth);
    Determ.push_back(Surv);
    Determ.push_back(Growth);
  }
};

uint64_t gadgetCount(const std::vector<uint8_t> &Text) {
  return gadget::ImageScan(Text).gadgetCount();
}

/// Flags any two equal images among \p Texts.
void checkDistinct(const std::string &What,
                   const std::vector<const std::vector<uint8_t> *> &Texts,
                   Checks &Chk) {
  std::set<std::pair<uint64_t, size_t>> Seen;
  for (const std::vector<uint8_t> *T : Texts)
    if (!Seen.emplace(textDigest(*T), T->size()).second) {
      Chk.fail(What + ": two accepted images are byte-identical");
      return;
    }
}

//===-- fleet-large / fleet-hot -------------------------------------------===//

class FleetWorkload : public Workload {
public:
  FleetWorkload(const char *WorkloadName, std::vector<std::string> Programs,
                diversity::Pipeline Transforms, unsigned Seeds, bool Php)
      : Name(WorkloadName), Names(std::move(Programs)),
        Pipe(std::move(Transforms)), SeedsPerProgram(Seeds), WithPhp(Php) {}

  const char *name() const override { return Name; }

  std::vector<ProgramSpec> programs() const override {
    std::vector<ProgramSpec> Out;
    for (const std::string &N : Names)
      Out.push_back(specProgram(N));
    if (WithPhp)
      Out.push_back(phpProgram(workloads::clbgScripts()[0], true));
    return Out;
  }

  diversity::Pipeline pipeline() const override { return Pipe; }

  IterStats iterate(const RunConfig &C, PreparedSet &Progs, unsigned Iter,
                    Checks &Chk) override {
    IterStats S;
    std::vector<driver::BatchResult> Results(Progs.size());
    std::vector<std::vector<std::vector<gadget::SurvivingGadget>>> Survivors(
        Progs.size());
    const double W0 = support::monotonicSeconds();
    const double C0 = support::processCpuSeconds();
    for (size_t I = 0; I != Progs.size(); ++I) {
      std::vector<uint64_t> Seeds;
      for (unsigned J = 0; J != SeedsPerProgram; ++J)
        Seeds.push_back(variantSeed(C.Seed, Iter, I * 1000 + J));
      driver::BatchOptions BO;
      BO.Jobs = C.Jobs;
      Results[I] = driver::makeVariantsBatch(Progs[I]->P, Pipe, diversity(),
                                             Seeds, BO);
      // Survivor-score every accepted image against the baseline.
      std::vector<std::vector<uint8_t>> Accepted;
      for (const driver::VerifiedVariant &V : Results[I].Variants)
        if (V.ok())
          Accepted.push_back(V.V.Image.Text);
      gadget::ScanOptions SO;
      SO.Jobs = C.Jobs;
      Survivors[I] =
          gadget::survivingGadgetsMulti(Progs[I]->Base.Text, Accepted, SO);
    }
    S.Wall = support::monotonicSeconds() - W0;
    S.Cpu = support::processCpuSeconds() - C0;

    for (size_t I = 0; I != Progs.size(); ++I) {
      const driver::BatchResult &R = Results[I];
      S.Units += R.Accepted;
      S.Attempted += R.Variants.size();
      S.Failed += R.Rejected;
      std::vector<const std::vector<uint8_t> *> Texts;
      for (const driver::VerifiedVariant &V : R.Variants)
        if (V.ok())
          Texts.push_back(&V.V.Image.Text);
      checkDistinct(Progs[I]->Spec.Name, Texts, Chk);
      if (Iter != 0)
        continue;
      const uint64_t BaseGadgets = gadgetCount(Progs[I]->Base.Text);
      size_t K = 0;
      for (const driver::VerifiedVariant &V : R.Variants)
        if (V.ok())
          Q.add(Survivors[I][K++].size(), BaseGadgets,
                V.V.Image.Text.size(), Progs[I]->Base.Text.size());
    }
    return S;
  }

  void finish(const RunConfig &, PreparedSet &, Checks &,
              std::vector<Metric> &EndToEnd, std::vector<Metric> &,
              std::vector<Metric> &Determ) override {
    Q.report(EndToEnd, Determ);
  }

private:
  const char *Name;
  std::vector<std::string> Names;
  diversity::Pipeline Pipe;
  unsigned SeedsPerProgram;
  bool WithPhp;
  Quality Q;
};

//===-- serve-restart -----------------------------------------------------===//

/// Latency at the highest of a few standard percentiles that leaves at
/// least ten samples beyond it; the note says which percentile.
Metric tailMetric(const std::string &Name, const std::vector<double> &V,
                  double Scale, const std::string &Unit) {
  double P = 50.0;
  for (double Candidate : {99.9, 99.0, 95.0, 90.0, 75.0})
    if (static_cast<double>(V.size()) * (100.0 - Candidate) / 100.0 >= 10.0) {
      P = Candidate;
      break;
    }
  char Note[96];
  std::snprintf(Note, sizeof(Note), "p%g of %zu samples", P, V.size());
  return {Name, percentile(V, P) * Scale, Unit, Note};
}

class ServeWorkload : public Workload {
public:
  // 16 interleaved blocks of 4 seeds; the cold pass stores the even
  // blocks, so the restart pass finds half its 64 seeds stored.
  static constexpr unsigned BlockSize = 4;
  static constexpr unsigned NumBlocks = 16;

  const char *name() const override { return "serve-restart"; }

  std::vector<ProgramSpec> programs() const override {
    return {specProgram("403.gcc")};
  }

  void setupExtra(const RunConfig &C, PreparedSet &Progs,
                  Checks &Chk) override {
    // Open a fresh store and round-trip the baseline artifact through
    // it, as a restarting daemon would.
    const Prepared &Pr = *Progs[0];
    fs::path Dir = fs::path(C.WorkDir) / "serve-setup";
    fs::remove_all(Dir);
    serve::VariantStore Store(Dir.string());
    std::string Err;
    if (!Store.open(&Err)) {
      Chk.fail("serve store open: " + Err);
      return;
    }
    serve::BaselineArtifact Art;
    for (size_t I = 0; I != Pr.Cache->battery().size(); ++I)
      if (const mexec::RunResult *Run = Pr.Cache->peek(I))
        Art.Runs.emplace_back(static_cast<uint32_t>(I), *Run);
    serve::StoreKey Key = serve::makeBaselineKey(Pr.P.MIR, {});
    if (!Store.publishBaseline(Key, Art, &Err)) {
      Chk.fail("serve baseline publish: " + Err);
      return;
    }
    serve::BaselineArtifact Back;
    verify::BaselineCache Warm(Pr.P.MIR, verify::VerifyOptions());
    if (Store.loadBaseline(Key, Back) != serve::LoadStatus::Hit) {
      Chk.fail("serve baseline artifact did not load back");
      return;
    }
    for (const auto &[Index, Run] : Back.Runs)
      if (Index < Warm.battery().size())
        Warm.prewarm(Index, Run);
    if (Warm.prewarmed() != Pr.Cache->battery().size())
      Chk.fail("serve prewarm restored only part of the battery");
    fs::remove_all(Dir);
  }

  IterStats iterate(const RunConfig &C, PreparedSet &Progs, unsigned Iter,
                    Checks &Chk) override {
    const Prepared &Pr = *Progs[0];
    fs::path Dir = fs::path(C.WorkDir) / ("serve-store-" +
                                          std::to_string(Iter));
    fs::remove_all(Dir);
    serve::ServeOptions O;
    O.StoreDir = Dir.string();
    O.Jobs = C.Jobs;
    O.Pipe = pipeline();
    O.Diversity = diversity();
    // Keep BaseSeed + Requests far from wrap-around.
    const uint64_t Base = variantSeed(C.Seed, Iter, 0) >> 8;

    IterStats S;
    std::vector<serve::ServeResult> Cold;
    const double W0 = support::monotonicSeconds();
    const double C0 = support::processCpuSeconds();
    for (unsigned B = 0; B < NumBlocks; B += 2) {
      O.BaseSeed = Base + B * BlockSize;
      O.Requests = BlockSize;
      Cold.push_back(serve::serveVariants(Pr.P, O));
    }
    O.BaseSeed = Base;
    O.Requests = NumBlocks * BlockSize;
    serve::ServeResult Restart = serve::serveVariants(Pr.P, O);
    S.Wall = support::monotonicSeconds() - W0;
    S.Cpu = support::processCpuSeconds() - C0;

    std::unordered_map<uint64_t, uint64_t> ColdDigest;
    auto Account = [&](const serve::ServeResult &R) {
      if (!R.ok())
        Chk.fail("serve: " + R.Error);
      S.Attempted += R.Requests.size();
      S.Units += R.Served;
      S.Failed += R.Shed + R.Failed;
      QueuePeak = std::max<uint64_t>(QueuePeak, R.QueuePeakDepth);
      Shed += R.Shed;
      if (Iter == 0) // The warm-up iteration is not timed.
        return;
      for (const serve::RequestResult &Req : R.Requests) {
        if (Req.Outcome == serve::RequestOutcome::Fill)
          FillLat.push_back(Req.Seconds);
        else if (Req.Outcome == serve::RequestOutcome::Hit)
          HitLat.push_back(Req.Seconds);
      }
    };
    for (const serve::ServeResult &R : Cold) {
      Account(R);
      for (const serve::RequestResult &Req : R.Requests) {
        if (Req.Outcome != serve::RequestOutcome::Fill)
          Chk.fail("serve: cold-pass request was not a fill");
        ColdDigest[Req.Seed] = Req.TextDigest;
      }
    }
    Account(Restart);
    std::set<uint64_t> Distinct;
    for (const serve::RequestResult &Req : Restart.Requests) {
      auto It = ColdDigest.find(Req.Seed);
      if (It == ColdDigest.end()) {
        if (Req.Outcome != serve::RequestOutcome::Fill)
          Chk.fail("serve: unstored seed was not filled");
      } else if (Req.Outcome != serve::RequestOutcome::Hit ||
                 Req.TextDigest != It->second) {
        Chk.fail("serve: restart hit does not match the cold-pass image");
      }
      Distinct.insert(Req.TextDigest);
    }
    if (Distinct.size() != Restart.Requests.size())
      Chk.fail("serve: two served images are byte-identical");
    if (Iter != 0) {
      Requests += S.Attempted;
      ServeSeconds += S.Wall;
    }

    if (Iter == 0) {
      // Score what the daemon serves: reload every restart-pass image.
      serve::VariantStore Store(Dir.string());
      const std::string Material = serve::baseKeyMaterial(Pr.P.MIR, O.Link);
      const uint64_t BaseGadgets = gadgetCount(Pr.Base.Text);
      std::vector<std::vector<uint8_t>> Texts;
      for (const serve::RequestResult &Req : Restart.Requests) {
        serve::StoredVariant SV;
        if (Store.load(serve::makeVariantKey(Material, O.Pipe, O.Diversity,
                                             Req.Seed),
                       SV) != serve::LoadStatus::Hit) {
          Chk.fail("serve: served image missing from the store");
          continue;
        }
        Texts.push_back(std::move(SV.Text));
      }
      auto Surv = gadget::survivingGadgetsMulti(Pr.Base.Text, Texts);
      for (size_t K = 0; K != Texts.size(); ++K)
        Q.add(Surv[K].size(), BaseGadgets, Texts[K].size(),
              Pr.Base.Text.size());
    }
    fs::remove_all(Dir);
    return S;
  }

  void finish(const RunConfig &, PreparedSet &, Checks &,
              std::vector<Metric> &EndToEnd, std::vector<Metric> &Extra,
              std::vector<Metric> &Determ) override {
    Q.report(EndToEnd, Determ);
    Extra.push_back({"requests_per_s",
                     ServeSeconds > 0 ? static_cast<double>(Requests) /
                                            ServeSeconds
                                      : 0.0,
                     "requests/s", "both passes"});
    char Note[64];
    std::snprintf(Note, sizeof(Note), "%zu samples", FillLat.size());
    Extra.push_back({"fill_p50_ms", percentile(FillLat, 50.0) * 1e3, "ms",
                     Note});
    Extra.push_back(tailMetric("fill_tail_ms", FillLat, 1e3, "ms"));
    std::snprintf(Note, sizeof(Note), "%zu samples", HitLat.size());
    Extra.push_back({"hit_p50_us", percentile(HitLat, 50.0) * 1e6, "us",
                     Note});
    Extra.push_back(tailMetric("hit_tail_us", HitLat, 1e6, "us"));
  }

  std::pair<uint64_t, uint64_t> serveQueue() const override {
    return {QueuePeak, Shed};
  }

private:
  Quality Q;
  std::vector<double> FillLat, HitLat;
  uint64_t Requests = 0;
  double ServeSeconds = 0.0;
  uint64_t QueuePeak = 0;
  uint64_t Shed = 0;
};

//===-- paper -------------------------------------------------------------===//

struct PaperConfig {
  const char *Label;
  diversity::DiversityOptions Opts;
};

/// The paper's five Figure 4 configurations, in column order; the
/// reported geometric-mean overhead must fall strictly along it.
std::vector<PaperConfig> paperConfigs() {
  using diversity::DiversityOptions;
  using diversity::ProbabilityModel;
  return {
      {"pNOP=50%", DiversityOptions::uniform(0.50)},
      {"pNOP=30%", DiversityOptions::uniform(0.30)},
      {"pNOP=25-50%",
       DiversityOptions::profiled(ProbabilityModel::Log, 0.25, 0.50)},
      {"pNOP=10-50%",
       DiversityOptions::profiled(ProbabilityModel::Log, 0.10, 0.50)},
      {"pNOP=0-30%",
       DiversityOptions::profiled(ProbabilityModel::Log, 0.00, 0.30)},
  };
}

class PaperWorkload : public Workload {
public:
  // Per iteration: Fig. 4 and Table 2 take one variant per (program,
  // config) over the whole suite; Table 3 takes five versions per config
  // on two fixed mid-sized programs (a seeded pick would make the work
  // per iteration depend on the seed); the PHP study two versions per
  // profile.
  static constexpr const char *Table3Names[] = {"433.milc", "403.gcc"};
  static constexpr unsigned Table3Versions = 5;
  static constexpr unsigned PhpVersions = 2;

  const char *name() const override { return "paper"; }

  bool fillsBaseline() const override { return false; }

  std::vector<ProgramSpec> programs() const override {
    std::vector<ProgramSpec> Out;
    for (const workloads::Workload &W : workloads::specSuite())
      Out.push_back(specProgram(W.Name));
    bool First = true;
    for (const workloads::PhpScript &S : workloads::clbgScripts()) {
      Out.push_back(phpProgram(S, First));
      First = false;
    }
    return Out;
  }

  IterStats iterate(const RunConfig &C, PreparedSet &Progs, unsigned Iter,
                    Checks &Chk) override {
    const std::vector<PaperConfig> Configs = paperConfigs();
    const size_t NC = Configs.size();
    std::vector<const Prepared *> Spec, Php;
    for (const auto &Pr : Progs)
      (Pr->Spec.Ref.empty() ? Php : Spec).push_back(Pr.get());
    std::vector<size_t> T3;
    for (size_t P = 0; P != Spec.size(); ++P)
      for (const char *Name : Table3Names)
        if (Spec[P]->Spec.Name == Name)
          T3.push_back(P);

    IterStats S;
    struct Fig4Cell {
      double Ratio = 0.0;
      bool Match = false;
    };
    std::vector<Fig4Cell> Fig4(Spec.size() * NC);
    std::vector<std::vector<std::vector<uint8_t>>> T2Images(Spec.size());
    std::vector<std::vector<std::vector<gadget::SurvivingGadget>>> T2Surv(
        Spec.size());
    std::vector<std::vector<uint64_t>> T3Counts(T3.size() * NC);
    std::vector<std::pair<uint64_t, unsigned>> PhpOut(Php.size());
    const std::vector<unsigned> Thresholds = {2, 3, 5};

    const double W0 = support::monotonicSeconds();
    const double C0 = support::processCpuSeconds();
    // Figure 4: every variant runs on the ref input.
    forEachIndex(C.Jobs, Fig4.size(), [&](size_t K) {
      const Prepared &Pr = *Spec[K / NC];
      mir::MModule V = diversity::makeVariant(
          Pr.P.MIR, Configs[K % NC].Opts, variantSeed(C.Seed, Iter, K));
      mexec::RunResult R = driver::execute(V, Pr.Spec.Ref);
      Fig4[K].Match = !R.Trapped && R.ExitCode == Pr.RefExit &&
                      R.Checksum == Pr.RefChecksum;
      Fig4[K].Ratio = R.cycles() / Pr.RefCycles;
    });
    // Table 2: Survivor over one linked variant per config.
    forEachIndex(C.Jobs, Spec.size(), [&](size_t P) {
      for (size_t CI = 0; CI != NC; ++CI)
        T2Images[P].push_back(
            driver::makeVariant(Spec[P]->P, Configs[CI].Opts,
                                variantSeed(C.Seed, Iter, 10000 + P * NC +
                                                              CI))
                .Image.Text);
      T2Surv[P] = gadget::survivingGadgetsMulti(Spec[P]->Base.Text,
                                                T2Images[P]);
    });
    // Table 3: gadgets surviving in at least k of 5 versions.
    forEachIndex(C.Jobs, T3Counts.size(), [&](size_t K) {
      const Prepared &Pr = *Spec[T3[K / NC]];
      std::vector<std::vector<uint8_t>> Versions;
      for (unsigned V = 0; V != Table3Versions; ++V)
        Versions.push_back(
            driver::makeVariant(Pr.P, Configs[K % NC].Opts,
                                variantSeed(C.Seed, Iter,
                                            20000 + K * Table3Versions + V))
                .Image.Text);
      T3Counts[K] = gadget::gadgetsInAtLeast(Versions, Thresholds);
    });
    // PHP case study: both attack models on each version's survivors.
    const Prepared &PhpBase = *Php.front();
    forEachIndex(C.Jobs, Php.size(), [&](size_t P) {
      for (unsigned V = 0; V != PhpVersions; ++V) {
        driver::Variant Var = driver::makeVariant(
            Php[P]->P, diversity(),
            variantSeed(C.Seed, Iter, 30000 + P * PhpVersions + V));
        auto Survivors =
            gadget::survivingGadgets(PhpBase.Base.Text, Var.Image.Text);
        auto Usable = gadget::filterToSurvivors(
            gadget::classifyGadgets(Var.Image.Text.data(),
                                    Var.Image.Text.size()),
            Survivors);
        PhpOut[P].first += Survivors.size();
        for (auto M : {gadget::AttackModel::RopGadget,
                       gadget::AttackModel::Microgadget})
          PhpOut[P].second += gadget::checkAttack(Usable, M).Feasible;
      }
    });
    S.Wall = support::monotonicSeconds() - W0;
    S.Cpu = support::processCpuSeconds() - C0;
    S.Attempted = Fig4.size() + Spec.size() * NC + T3Counts.size() *
                  Table3Versions + Php.size() * PhpVersions;
    S.Units = S.Attempted;

    PooledRatios.resize(NC);
    for (size_t K = 0; K != Fig4.size(); ++K) {
      if (!Fig4[K].Match)
        Chk.fail("paper: " + Spec[K / NC]->Spec.Name + " " +
                 Configs[K % NC].Label +
                 " variant diverged from the baseline on ref");
      PooledRatios[K % NC].push_back(Fig4[K].Ratio);
    }
    for (size_t P = 0; P != Php.size(); ++P)
      if (PhpOut[P].second != 0)
        Chk.fail("paper: " + Php[P]->Spec.Name +
                 " version remained attackable");

    if (Iter == 0) {
      // The attack study needs an attackable starting point.
      for (auto M : {gadget::AttackModel::RopGadget,
                     gadget::AttackModel::Microgadget})
        if (!gadget::checkAttackOnImage(PhpBase.Base.Text, M).Feasible)
          Chk.fail("php: undiversified binary is not attackable");
      std::vector<double> Zero30;
      for (size_t K = NC - 1; K < Fig4.size(); K += NC)
        Zero30.push_back(Fig4[K].Ratio);
      OverheadPct = 100.0 * (geometricMean(Zero30) - 1.0);
      for (size_t P = 0; P != Spec.size(); ++P) {
        const uint64_t BaseGadgets = gadgetCount(Spec[P]->Base.Text);
        Q.add(T2Surv[P][NC - 1].size(), BaseGadgets,
              T2Images[P][NC - 1].size(), Spec[P]->Base.Text.size());
      }
      for (size_t K = 0; K != T3Counts.size(); ++K)
        for (size_t T = 0; T != Thresholds.size(); ++T)
          Table3[T] += T3Counts[K][T];
      for (const auto &Out : PhpOut)
        PhpSurvivors += Out.first;
    }
    return S;
  }

  void finish(const RunConfig &, PreparedSet &, Checks &Chk,
              std::vector<Metric> &EndToEnd, std::vector<Metric> &Extra,
              std::vector<Metric> &Determ) override {
    const std::vector<PaperConfig> Configs = paperConfigs();
    std::vector<double> Geo;
    std::string Order;
    for (size_t CI = 0; CI != PooledRatios.size(); ++CI) {
      Geo.push_back(100.0 * (geometricMean(PooledRatios[CI]) - 1.0));
      char Cell[64];
      std::snprintf(Cell, sizeof(Cell), "%s%s %.2f%%", CI ? " > " : "",
                    Configs[CI].Label, Geo.back());
      Order += Cell;
    }
    for (size_t CI = 1; CI < Geo.size(); ++CI)
      if (!(Geo[CI] < Geo[CI - 1]))
        Chk.fail("paper: Fig. 4 ordering broken: " + Order);
    Q.report(EndToEnd, Determ);
    Metric Overhead{"overhead_pct", OverheadPct, "%",
                    "iteration 0; Fig. 4 geomean at pNOP=0-30%"};
    Extra.push_back(Overhead);
    Determ.push_back(Overhead);
    Extra.push_back({"fig4_order", 0.0, "", Order});
    for (size_t T = 0; T != 3; ++T) {
      static const char *Names[] = {"table3_ge2of5", "table3_ge3of5",
                                    "table3_ge5of5"};
      Metric M{Names[T], static_cast<double>(Table3[T]), "gadgets",
               "iteration 0; summed over configs and Table 3 programs"};
      Extra.push_back(M);
      Determ.push_back(M);
    }
    Metric Php{"php_survivors", static_cast<double>(PhpSurvivors),
               "gadgets", "iteration 0; every version attack-infeasible"};
    Extra.push_back(Php);
    Determ.push_back(Php);
  }

private:
  Quality Q;
  std::vector<std::vector<double>> PooledRatios;
  double OverheadPct = 0.0;
  uint64_t Table3[3] = {0, 0, 0};
  uint64_t PhpSurvivors = 0;
};

diversity::Pipeline allTransforms() {
  std::vector<diversity::TransformKind> Kinds;
  diversity::parseTransformList("nop,shift,sched,regs", Kinds);
  return diversity::Pipeline(Kinds);
}

} // namespace

std::vector<std::string> perfbench::workloadNames() {
  return {"fleet-large", "fleet-hot", "serve-restart", "paper"};
}

std::unique_ptr<Workload> perfbench::makeWorkload(const std::string &Name) {
  if (Name == "fleet-large")
    return std::make_unique<FleetWorkload>(
        "fleet-large",
        std::vector<std::string>{"483.xalancbmk", "403.gcc"},
        allTransforms(), 16, true);
  if (Name == "fleet-hot")
    return std::make_unique<FleetWorkload>(
        "fleet-hot",
        std::vector<std::string>{"473.astar", "445.gobmk", "482.sphinx3",
                                 "447.dealII"},
        diversity::Pipeline(), 16, false);
  if (Name == "serve-restart")
    return std::make_unique<ServeWorkload>();
  if (Name == "paper")
    return std::make_unique<PaperWorkload>();
  return nullptr;
}
