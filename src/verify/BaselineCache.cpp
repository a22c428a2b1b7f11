//===-- verify/BaselineCache.cpp - Shared baseline run cache ---------------===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//

#include "verify/BaselineCache.h"

#include <cassert>

using namespace pgsd;
using namespace pgsd::verify;

namespace {

std::vector<std::vector<int32_t>> resolveBattery(const VerifyOptions &Opts) {
  return Opts.InputBattery.empty() ? defaultInputBattery()
                                   : Opts.InputBattery;
}

} // namespace

//===----------------------------------------------------------------------===//
// BaselineRuns
//===----------------------------------------------------------------------===//

struct BaselineRuns::Entry {
  std::once_flag Once;
  mexec::RunResult Result;
  /// Release-published after the once body ran, so peek() can observe a
  /// completed Result without touching the once_flag.
  std::atomic<bool> Filled{false};
};

BaselineRuns::BaselineRuns(const mir::MModule &BaselineMod,
                           std::vector<std::vector<int32_t>> Inputs,
                           uint64_t Steps)
    : MaxSteps(Steps), Battery(std::move(Inputs)),
      Src(std::make_unique<Source>(BaselineMod)), Unfilled(Battery.size()),
      Entries(std::make_unique<Entry[]>(Battery.size())) {}

BaselineRuns::~BaselineRuns() = default;

void BaselineRuns::entryDone() const {
  if (Unfilled.fetch_sub(1, std::memory_order_acq_rel) == 1)
    Src.reset();
}

const mexec::RunResult &BaselineRuns::run(size_t Index,
                                          bool &Computed) const {
  assert(Index < Battery.size() && "input index outside the battery");
  Entry &E = Entries[Index];
  Computed = false;
  std::call_once(E.Once, [&] {
    mexec::RunOptions Run;
    Run.Input = Battery[Index];
    Run.CollectOutput = true;
    Run.MaxSteps = MaxSteps;
    E.Result = Src->Compiled.run(Run);
    Computed = true;
  });
  if (Computed) {
    E.Filled.store(true, std::memory_order_release);
    entryDone();
  }
  return E.Result;
}

bool BaselineRuns::prewarm(size_t Index, const mexec::RunResult &R) {
  assert(Index < Battery.size() && "input index outside the battery");
  Entry &E = Entries[Index];
  bool Installed = false;
  std::call_once(E.Once, [&] {
    E.Result = R;
    Installed = true;
  });
  if (Installed) {
    E.Filled.store(true, std::memory_order_release);
    entryDone();
  }
  return Installed;
}

const mexec::RunResult *BaselineRuns::peek(size_t Index) const {
  assert(Index < Battery.size() && "input index outside the battery");
  const Entry &E = Entries[Index];
  if (!E.Filled.load(std::memory_order_acquire))
    return nullptr;
  return &E.Result;
}

//===----------------------------------------------------------------------===//
// BaselineMemo
//===----------------------------------------------------------------------===//

std::shared_ptr<BaselineRuns>
BaselineMemo::runsFor(const mir::MModule &Baseline,
                      const VerifyOptions &Opts) {
  const uint64_t Digest = mir::digest(Baseline);
  std::vector<std::vector<int32_t>> Battery = resolveBattery(Opts);
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const Slot &S : Slots)
    if (S.Digest == Digest && S.Runs->maxSteps() == Opts.MaxSteps &&
        S.Runs->battery() == Battery)
      return S.Runs;
  Slots.push_back({Digest, std::make_shared<BaselineRuns>(
                               Baseline, std::move(Battery), Opts.MaxSteps)});
  return Slots.back().Runs;
}

//===----------------------------------------------------------------------===//
// BaselineCache
//===----------------------------------------------------------------------===//

BaselineCache::BaselineCache(const mir::MModule &Baseline,
                             const VerifyOptions &Opts)
    : BaselineCache(std::make_shared<BaselineRuns>(
          Baseline, resolveBattery(Opts), Opts.MaxSteps)) {}

BaselineCache::BaselineCache(std::shared_ptr<BaselineRuns> Shared)
    : Runs(std::move(Shared)) {}

const mexec::RunResult &BaselineCache::baselineRun(size_t Index) const {
  bool Computed = false;
  const mexec::RunResult &R = Runs->run(Index, Computed);
  (Computed ? Fills : Hits).fetch_add(1, std::memory_order_relaxed);
  return R;
}

bool BaselineCache::prewarm(size_t Index, const mexec::RunResult &R) {
  if (!Runs->prewarm(Index, R))
    return false;
  Prewarmed.fetch_add(1, std::memory_order_relaxed);
  return true;
}
