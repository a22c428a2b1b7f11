//===-- perfbench/Trace.h - Bench-side spans and the traced walk -*- C++ -*-===//
//
// Part of the PGSD project, a reproduction of "Profile-guided Automated
// Software Diversity" (Homescu et al., CGO 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's instruments. Spans are recorded by the benchmark
/// around calls into each layer's public functions, on the calling
/// thread: name, start, end, parent span and a request id (the variant
/// seed). They stay in memory and are written out when the run ends.
///
/// walkAdmission() re-walks driver::makeVariantVerified's admission path
/// one layer call at a time so each can carry its own span; the runner
/// checks that every walked image is byte-identical to
/// driver::makeVariantVerified's.
///
//===----------------------------------------------------------------------===//

#ifndef PGSD_PERFBENCH_TRACE_H
#define PGSD_PERFBENCH_TRACE_H

#include "Bench.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct SpanRec {
  const char *Name = nullptr;
  double Start = 0.0; ///< Seconds on the monotonic clock.
  double End = 0.0;
  int32_t Parent = -1; ///< Index of the enclosing span; -1 at the root.
  uint64_t Request = 0; ///< Variant seed, or 0 outside a request.
};

/// In-memory span recorder for one thread.
class Tracer {
public:
  /// RAII span; inert when the tracer is null.
  class Scope {
  public:
    Scope(Tracer *T, const char *Name, uint64_t Request = 0);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *T;
    int32_t Id = -1;
  };

  const std::vector<SpanRec> &spans() const { return Spans; }

  /// Durations of every span named \p Name, in recording order.
  std::vector<double> durations(std::string_view Name) const;
  /// Sum of durations(Name).
  double total(std::string_view Name) const;
  /// Sum over spans named \p Name of duration minus the time covered by
  /// their child spans.
  double selfTotal(std::string_view Name) const;

  /// Writes every span as a JSON array.
  bool writeJson(const std::string &Path) const;

private:
  std::vector<SpanRec> Spans;
  std::vector<int32_t> Stack;
};

/// Outcome of one walked admission.
struct WalkResult {
  codegen::Image Image;
  uint64_t SeedUsed = 0;
  unsigned Attempts = 0;
  bool Fallback = false;
  uint64_t Nops = 0;           ///< NOPs inserted in the accepted variant.
  uint64_t EquivFunctions = 0; ///< Functions proved across attempts.
};

/// Walks the admission path for \p Seed under \p T: per attempt
/// diversity::Pipeline::run, codegen::link, analysis::analyzeModule,
/// analysis::proveEquivalent, then the verifier families
/// (verifyVariant with only differential execution, verifyImage,
/// verifyProfileFlow), drawing seeds from verify::RetrySchedule exactly
/// as driver::makeVariantVerified does.
WalkResult walkAdmission(const Prepared &Pr, const diversity::Pipeline &Pipe,
                         const diversity::DiversityOptions &Opts,
                         uint64_t Seed, Tracer &T);

} // namespace perfbench

#endif // PGSD_PERFBENCH_TRACE_H
