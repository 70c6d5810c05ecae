//===- bench/BenchCommon.h - Shared harness for figure benches --*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for the per-table/per-figure benchmark binaries: run the
/// six applications through a scheme list, print the paper-style table, and
/// print the paper's reported averages next to the measured ones.
///
/// The app x scheme matrix executes through the driver's ExperimentRunner
/// (docs/SWEEPS.md): one job per (app, scheme) pair on a bounded worker
/// pool, results regrouped in deterministic order — numbers are identical
/// to the old serial loop for every worker count.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_BENCH_BENCHCOMMON_H
#define DRA_BENCH_BENCHCOMMON_H

#include "apps/Apps.h"
#include "core/Report.h"
#include "driver/ExperimentRunner.h"
#include "obs/RunReport.h"
#include "support/FileIO.h"
#include "support/Format.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace dra {

/// Scale used by the figure benches. 1.0 reproduces the paper-sized request
/// counts (Table 2's 74k-149k range); the DRA_BENCH_SCALE environment
/// variable overrides it for quick runs.
inline double benchScale() {
  if (const char *S = std::getenv("DRA_BENCH_SCALE"))
    return std::atof(S);
  return 1.0;
}

/// Worker threads for the app x scheme matrix: DRA_BENCH_JOBS when set,
/// otherwise the hardware concurrency. Results do not depend on the value.
inline unsigned benchJobs() {
  if (const char *S = std::getenv("DRA_BENCH_JOBS")) {
    unsigned N = 0;
    if (parseUnsigned(S, N, 1, 1024))
      return N;
    std::fprintf(stderr,
                 "warning: ignoring DRA_BENCH_JOBS='%s' (want [1, 1024])\n",
                 S);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Runs all six applications through \p Rep's scheme list on the parallel
/// experiment runner.
inline std::vector<AppResults> runAllApps(const Report &Rep) {
  std::vector<AppUnderTest> Apps = paperApps(benchScale());
  unsigned Jobs = benchJobs();
  std::fprintf(stderr, "  running %zu apps x %zu schemes on %u worker%s...\n",
               Apps.size(), Rep.schemes().size(), Jobs, Jobs == 1 ? "" : "s");
  return runAppMatrix(Rep.config(), Rep.schemes(), Apps, Jobs);
}

/// Writes \p Data as <dir>/<name>.<ext>, creating missing parent
/// directories, and returns the path. A directory or file that cannot be
/// created or written is a hard error: the bench prints a diagnostic and
/// exits nonzero instead of silently succeeding with no artifact.
inline std::string writeArtifact(const char *Dir, const std::string &Name,
                                 const char *Ext, std::string_view Data) {
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC) {
    std::fprintf(stderr, "error: cannot create artifact directory '%s': %s\n",
                 Dir, EC.message().c_str());
    std::exit(1);
  }
  std::string Path = std::string(Dir) + "/" + Name + "." + Ext;
  WriteResult R = writeFile(Path, Data);
  if (!R) {
    std::fprintf(stderr,
                 R.Opened ? "error: cannot write artifact '%s'\n"
                          : "error: cannot open artifact '%s' for writing\n",
                 Path.c_str());
    std::exit(1);
  }
  return Path;
}

/// Writes the artifacts of bench \p Name the environment asks for: with
/// DRA_BENCH_CSV set to a directory, the raw numbers as <dir>/<name>.csv
/// for external plotting; with DRA_BENCH_JSON set, the full run report as
/// <dir>/<name>.json — the "dra-report-v1" schema (docs/FORMATS.md) that
/// `drac --report-json` emits, so the CI regression gate can diff it
/// against bench/baselines and `dra-compare` can read it.
inline void writeBenchArtifacts(const Report &Rep,
                                const std::vector<AppResults> &All,
                                const char *Name) {
  if (const char *Dir = std::getenv("DRA_BENCH_CSV")) {
    std::string Path = writeArtifact(Dir, Name, "csv", Rep.renderCsv(All));
    std::printf("(raw numbers written to %s)\n", Path.c_str());
  }
  const char *Dir = std::getenv("DRA_BENCH_JSON");
  if (!Dir)
    return;
  std::string Path = writeArtifact(
      Dir, Name, "json", renderRunReportJson(Rep.config(), All, Name));
  std::printf("(run report written to %s)\n", Path.c_str());
}

/// Average per-app missed-opportunity energy (sub-break-even idle joules
/// at full RPM) of scheme index \p SI, normalized to Base energy.
inline double avgNormalizedMissedOpportunity(const Report &Rep,
                                             const std::vector<AppResults> &All,
                                             size_t SI) {
  double Sum = 0.0;
  for (const AppResults &A : All) {
    double MissedJ = 0.0;
    for (const DiskStats &S : A.Runs[SI].Sim.PerDisk)
      MissedJ += S.MissedOpportunityJ;
    Sum += MissedJ / A.Runs[Rep.baseIndex()].Sim.EnergyJ;
  }
  return All.empty() ? 0.0 : Sum / double(All.size());
}

/// Prints a "paper vs measured" comparison line for one scheme average.
inline void printComparison(const char *Metric, const char *SchemeName,
                            double PaperValue, double Measured) {
  std::printf("  %-10s %-9s paper %7.3f   measured %7.3f\n", Metric,
              SchemeName, PaperValue, Measured);
}

} // namespace dra

#endif // DRA_BENCH_BENCHCOMMON_H
