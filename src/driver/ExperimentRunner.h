//===- driver/ExperimentRunner.h - Parallel sweep execution -----*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bounded-concurrency execution of sweep jobs (docs/SWEEPS.md). Jobs are
/// claimed from an atomic cursor by a pool of std::jthread workers; every
/// job runs a private Pipeline (its own Program copy, DiagnosticEngine and
/// optional telemetry sinks), so workers share nothing mutable. Results are
/// written into a preallocated slot per job and rendered in job-index
/// order, which makes the "dra-sweep-v1" aggregate report byte-identical
/// for any worker count — determinism is a property of the collection
/// order, not of scheduling luck.
///
/// A failing job (verification error, file I/O, any std::exception) is
/// captured in its slot as status "error" and never aborts the sweep; the
/// remaining jobs run to completion.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_DRIVER_EXPERIMENTRUNNER_H
#define DRA_DRIVER_EXPERIMENTRUNNER_H

#include "apps/Apps.h"
#include "driver/SweepSpec.h"
#include "obs/RunReport.h"

#include <string>
#include <vector>

namespace dra {

/// The outcome of one sweep job.
struct JobOutcome {
  SweepPoint Point;
  PipelineConfig Config;
  bool Ok = false;
  std::string Error; ///< what() of the failure; empty when Ok.
  SchemeRun Run;     ///< Valid only when Ok.
  /// Host wall time of the job, milliseconds. Non-deterministic by nature;
  /// excluded from the aggregate report unless timings are requested.
  double WallMs = 0.0;
};

/// Execution options of one sweep.
struct SweepOptions {
  /// Worker threads. 1 executes jobs in index order on the calling thread
  /// (the serial reference); N > 1 adds N-1 pool threads. The aggregate
  /// output is byte-identical for every value.
  unsigned Workers = 1;
  /// When non-empty, each job writes its private telemetry to
  /// <dir>/job-NNNNN.{trace,metrics,report,timeline}.json (distinct files
  /// per job; the directory is created if missing).
  std::string TelemetryDir;
};

/// Runs sweep jobs on a bounded worker pool.
class ExperimentRunner {
public:
  explicit ExperimentRunner(SweepOptions Opts) : Opts(std::move(Opts)) {}

  /// Executes every job and returns outcomes indexed exactly like \p Jobs.
  std::vector<JobOutcome> run(const std::vector<SweepJob> &Jobs) const;

  const SweepOptions &options() const { return Opts; }

private:
  SweepOptions Opts;

  JobOutcome runOne(const SweepJob &J) const;
};

/// Renders the "dra-sweep-v1" aggregate document (docs/FORMATS.md): the
/// normalized spec, job/failure counts and one entry per job in index
/// order, each carrying its full "dra-report-v1" payload. \p IncludeTimings
/// adds per-job host wall time — useful interactively, but it breaks the
/// byte-identical guarantee, so it is off by default.
std::string renderSweepJson(const SweepSpec &Spec,
                            const std::vector<JobOutcome> &Outcomes,
                            bool IncludeTimings = false);

/// Convenience for the figure benches: runs the \p Apps x \p Schemes matrix
/// through the worker pool and regroups the outcomes as per-app results in
/// serial order (one Pipeline per app running every scheme). Results are
/// identical to the serial path for every worker count; the first failing
/// job (which the serial path would have propagated) is rethrown as
/// std::runtime_error.
std::vector<AppResults> runAppMatrix(const PipelineConfig &Config,
                                     const std::vector<Scheme> &Schemes,
                                     const std::vector<AppUnderTest> &Apps,
                                     unsigned Workers);

} // namespace dra

#endif // DRA_DRIVER_EXPERIMENTRUNNER_H
