//===-- verify/BaselineCache.h - Shared baseline run cache ------*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memoizes the baseline half of differential execution. Every variant
/// of one program verifies against the *same* baseline on the *same*
/// input battery, so without a memo the baseline runs once per variant
/// attempt per input. Three layers share that work:
///
///  - BaselineRuns holds the runs of one (baseline module, resolved
///    battery, MaxSteps) triple. It owns a copy of the baseline module
///    and its compiled stream, so it never refers to the caller's MIR,
///    and it computes each input's RunResult on first use only. Once
///    every entry holds a result it frees the copy and the stream: a
///    memo kept for the life of a program then costs only its results.
///  - BaselineMemo maps a module's structural digest (mir::digest) to its
///    BaselineRuns. driver::Program carries one, so every verified call
///    on a program reads the runs the first call computed, and a program
///    whose MIR changed gets fresh runs instead of stale ones.
///  - BaselineCache is one caller's handle on a BaselineRuns: what
///    VerifyOptions::Cache points at. It counts the hits, fills and
///    prewarms made through it, so a batch reports its own share even
///    when other calls read the same runs concurrently.
///
/// Thread-safety: entries fill under a per-entry std::once_flag, so
/// ThreadPool workers share the runs without coordination; whoever asks
/// first computes, everyone else blocks until the result is published
/// and then reads it read-only. Handle counters are atomic.
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_VERIFY_BASELINECACHE_H
#define PGSD_VERIFY_BASELINECACHE_H

#include "lir/MIR.h"
#include "mexec/Interp.h"
#include "mexec/Precompiled.h"
#include "verify/Verifier.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace pgsd {
namespace verify {

/// Baseline RunResults for one (baseline module, battery, MaxSteps)
/// triple, computed lazily and shared read-only. Non-copyable.
class BaselineRuns {
public:
  /// Copies \p Baseline and compiles the copy eagerly so every entry
  /// fill reuses one stream (until the last entry fills).
  BaselineRuns(const mir::MModule &Baseline,
               std::vector<std::vector<int32_t>> Battery, uint64_t MaxSteps);
  ~BaselineRuns();

  BaselineRuns(const BaselineRuns &) = delete;
  BaselineRuns &operator=(const BaselineRuns &) = delete;

  const std::vector<std::vector<int32_t>> &battery() const {
    return Battery;
  }
  uint64_t maxSteps() const { return MaxSteps; }

  /// The baseline RunResult for battery()[Index], computed on first
  /// request (CollectOutput set, MaxSteps as constructed). \p Computed
  /// is set when this call ran the baseline. Safe to call concurrently.
  const mexec::RunResult &run(size_t Index, bool &Computed) const;

  /// Installs \p R as entry \p Index without executing the baseline;
  /// true when this call installed it (see BaselineCache::prewarm).
  bool prewarm(size_t Index, const mexec::RunResult &R);

  /// The already-computed entry for \p Index, or nullptr.
  const mexec::RunResult *peek(size_t Index) const;

private:
  /// What a fill executes: the baseline copy and its compiled stream.
  struct Source {
    explicit Source(const mir::MModule &M) : Baseline(M), Compiled(Baseline) {}
    mir::MModule Baseline;       ///< Private copy; Compiled points into it.
    mexec::Precompiled Compiled; ///< Baseline stream shared by every fill.
  };

  /// Counts one more entry holding a result; the last one frees Src. Every
  /// fill has returned from Src by then (its decrement follows its run),
  /// and no later fill body runs, so nothing reads Src after the reset.
  void entryDone() const;

  uint64_t MaxSteps;
  std::vector<std::vector<int32_t>> Battery;
  mutable std::unique_ptr<Source> Src;
  mutable std::atomic<size_t> Unfilled;
  struct Entry; // Holds a std::once_flag: non-movable, hence the array.
  std::unique_ptr<Entry[]> Entries;
};

/// The BaselineRuns already built for one program, keyed by the MIR's
/// structural digest, the resolved battery and MaxSteps. Lookups are
/// serialized; the runs they return fill concurrently. Nothing is
/// evicted: a program's MIR takes few distinct states (compiled,
/// profile-stamped), so the list stays short and lives as long as the
/// program and its copies.
class BaselineMemo {
public:
  /// The runs of \p Baseline under \p Opts, built on the first request
  /// for that key. Taking the digest is a walk over the module, far
  /// cheaper than one baseline run.
  std::shared_ptr<BaselineRuns> runsFor(const mir::MModule &Baseline,
                                        const VerifyOptions &Opts);

private:
  struct Slot {
    uint64_t Digest;
    std::shared_ptr<BaselineRuns> Runs;
  };
  std::mutex Mutex;
  std::vector<Slot> Slots;
};

/// One caller's handle on shared BaselineRuns, with its own counters.
/// Non-copyable.
class BaselineCache {
public:
  /// Fresh runs of \p Baseline: resolves the battery from \p Opts
  /// (falling back to defaultInputBattery()).
  BaselineCache(const mir::MModule &Baseline, const VerifyOptions &Opts);
  /// A handle on runs another cache or a BaselineMemo already holds.
  explicit BaselineCache(std::shared_ptr<BaselineRuns> Runs);

  BaselineCache(const BaselineCache &) = delete;
  BaselineCache &operator=(const BaselineCache &) = delete;

  /// The runs this handle reads; share them with another handle to
  /// count a call of its own against the same entries.
  const std::shared_ptr<BaselineRuns> &runs() const { return Runs; }

  /// The resolved input battery (built once per VerifyOptions
  /// resolution, handed around by reference).
  const std::vector<std::vector<int32_t>> &battery() const {
    return Runs->battery();
  }

  /// The baseline RunResult for battery()[Index], computed on first
  /// request by any handle on the same runs. Safe to call concurrently.
  const mexec::RunResult &baselineRun(size_t Index) const;

  /// Persistence hooks (serve::VariantStore round trip).
  ///
  /// prewarm() installs \p R as entry \p Index without executing the
  /// baseline -- the restart path of a persistent daemon: baseline runs
  /// recorded by a previous process are re-published into the fresh
  /// cache, so verification fills after the restart skip baseline
  /// execution entirely. Races benignly with concurrent baselineRun()
  /// fills (whoever gets the once_flag wins; both compute the same pure
  /// function). Returns true when this call installed the entry.
  bool prewarm(size_t Index, const mexec::RunResult &R);

  /// The already-computed entry for \p Index, or nullptr when it has
  /// not filled yet -- the export half of persistence: a daemon
  /// snapshots exactly the entries it actually computed, without
  /// forcing the rest of the battery to execute. Safe to call
  /// concurrently with fills.
  const mexec::RunResult *peek(size_t Index) const {
    return Runs->peek(Index);
  }

  /// Requests through this handle served from an already-filled entry.
  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }

  /// Requests through this handle that computed the entry (at most
  /// battery().size() over all handles on the same runs).
  uint64_t fills() const { return Fills.load(std::memory_order_relaxed); }

  /// Entries this handle installed by prewarm() rather than computed.
  uint64_t prewarmed() const {
    return Prewarmed.load(std::memory_order_relaxed);
  }

private:
  std::shared_ptr<BaselineRuns> Runs;
  mutable std::atomic<uint64_t> Hits{0};
  mutable std::atomic<uint64_t> Fills{0};
  std::atomic<uint64_t> Prewarmed{0};
};

} // namespace verify
} // namespace pgsd

#endif // PGSD_VERIFY_BASELINECACHE_H
