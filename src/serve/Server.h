//===-- serve/Server.h - Persistent variant-serving daemon ------*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `pgsdc serve` daemon core. The paper's deployment model (Section
/// 1) has an "App Store"-style distribution point hand every user a
/// unique diversified binary; this module is that distribution point's
/// engine: compile and profile the workload once, then answer a stream
/// of requests, each with a distinct *verified* variant.
///
/// Request path, per seed:
///   1. Derive the content address (serve/VariantStore keying) and probe
///      the persistent store. A hit serves the cached artifact -- this is
///      what makes a restarted daemon resume instead of recompiling its
///      whole fleet.
///   2. On miss (or corruption, which self-heals to a miss), the fill --
///      diversify, verify, link, publish -- is admitted to a bounded
///      queue (serve/Admission). Under overload the request waits up to
///      the admit budget, then is shed; the daemon degrades by rejecting
///      requests, never by unbounded queueing.
///   3. A fill whose verification exhausts retries (baseline fallback) is
///      *failed*, not served: the daemon's contract is that every served
///      artifact is a diversified variant that passed verification.
///
/// Baseline persistence: the verify::BaselineCache entries computed
/// while filling are published as a baseline artifact on shutdown and
/// prewarmed back on startup, so a restart also skips baseline
/// re-execution, not just variant recompiles. A cache passed in
/// ServeOptions::Verify.Cache is the one prewarmed, read and persisted;
/// otherwise each call builds its own (it does not read the Program's
/// baseline memo, see driver/Batch.h).
///
/// Multi-writer rule: any number of serveVariants calls, threads or
/// processes may share one StoreDir without a lock. Each publish writes
/// a private temp file and renames it over the entry, so a load sees a
/// whole entry or none, and concurrent writers of one key write the same
/// bytes (an entry is a pure function of its key). The worst a race can
/// do is cost a refill: a loader that unlinks a corrupt entry may remove
/// a fresh one renamed in at the same moment.
///
/// Keys: every key of one call is derived from one base state (see
/// serve/VariantStore.h), whose printed-MIR head is memoized on the
/// Program, so only the first call on a program prints its MIR.
///
/// Telemetry: serve.* counters, queue gauges, and a request-latency
/// histogram (p50/p99 in ServeResult), exported via src/obs and checked
/// by `metrics_check --serve`.
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_SERVE_SERVER_H
#define PGSD_SERVE_SERVER_H

#include "codegen/Linker.h"
#include "diversity/NopInsertion.h"
#include "diversity/Transform.h"
#include "driver/Driver.h"
#include "verify/Verifier.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pgsd {
namespace serve {

/// How one request ended.
enum class RequestOutcome {
  Hit,    ///< Served from the persistent store.
  Fill,   ///< Compiled, verified, published, served.
  Shed,   ///< Rejected by admission control under overload.
  Failed, ///< Admitted but not servable (verify fallback or I/O error).
};

/// One request's record, as streamed to ServeOptions::Observer and
/// collected in ServeResult::Requests.
struct RequestResult {
  uint64_t Seed = 0;     ///< Request seed (BaseSeed + index).
  RequestOutcome Outcome = RequestOutcome::Shed;
  double Seconds = 0.0;  ///< Latency: submit to served/shed/failed.
  uint64_t SeedUsed = 0; ///< Seed of the accepted verify attempt.
  uint32_t Attempts = 0; ///< Verify attempts behind the artifact.
  uint64_t TextDigest = 0; ///< FNV-1a of the served image bytes.
  uint64_t TextSize = 0;   ///< Served image size in bytes.

  bool served() const {
    return Outcome == RequestOutcome::Hit || Outcome == RequestOutcome::Fill;
  }
};

/// Configuration for one serve run.
struct ServeOptions {
  std::string StoreDir;      ///< Persistent store root (required).
  uint64_t Requests = 64;    ///< Seeds BaseSeed .. BaseSeed+Requests-1.
  uint64_t BaseSeed = 1;
  unsigned Jobs = 0;         ///< Fill workers; 0 = defaultConcurrency.
  unsigned QueueDepth = 16;  ///< Admission slots beyond the workers.
  double AdmitWaitSeconds = 30.0; ///< Backpressure budget before shedding.
  diversity::Pipeline Pipe;
  diversity::DiversityOptions Diversity;
  verify::VerifyOptions Verify;
  codegen::LinkOptions Link;
  /// Streaming observer, invoked once per finished request. Hit and Shed
  /// records arrive on the serving thread, Fill and Failed records on a
  /// worker -- the callback must be thread-safe. Null is fine.
  std::function<void(const RequestResult &)> Observer;
  /// Test seam: runs at the start of every admitted fill (on the
  /// worker). Lets tests hold a fill in flight to pin shedding
  /// deterministically. Null is fine.
  std::function<void(uint64_t Seed)> FillGate;
};

/// Aggregate outcome of a serve run.
struct ServeResult {
  std::vector<RequestResult> Requests; ///< One per request, in order.
  uint64_t Served = 0;   ///< Hits + Fills.
  uint64_t Hits = 0;     ///< Requests served from the store.
  uint64_t Fills = 0;    ///< Requests compiled and published.
  uint64_t Shed = 0;     ///< Requests rejected by admission control.
  uint64_t Failed = 0;   ///< Admitted requests that were not servable.
  uint64_t StoreCorrupt = 0;    ///< Corrupt entries detected (self-healed).
  uint64_t DistinctVariants = 0; ///< Pairwise-distinct served images.
  uint64_t BaselinePrewarmed = 0; ///< Cache entries restored from disk.
  /// This call's baseline requests served from the cache, and those that
  /// executed the baseline.
  uint64_t BaselineCacheHits = 0;
  uint64_t BaselineCacheFills = 0;
  unsigned Jobs = 0;
  unsigned QueueCapacity = 0;
  unsigned QueuePeakDepth = 0;
  double WallSeconds = 0.0;
  double P50LatencySeconds = 0.0; ///< Over served requests.
  double P99LatencySeconds = 0.0;
  std::string Error; ///< First store I/O error; empty when none.

  /// False when the store failed to open or a publish failed -- the
  /// caller maps this to the file-I/O exit code, never ignores it.
  bool ok() const { return Error.empty(); }
};

/// Runs the daemon loop over \p O.Requests seeds against compiled,
/// profile-stamped program \p P. Synchronous: returns when every request
/// was served, shed, or failed and the baseline artifact is persisted.
ServeResult serveVariants(const driver::Program &P, const ServeOptions &O);

} // namespace serve
} // namespace pgsd

#endif // PGSD_SERVE_SERVER_H
