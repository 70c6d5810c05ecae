//===- bench/BenchCommon.h - Shared harness for figure benches --*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for the per-table/per-figure benchmark binaries: run the
/// six applications through a scheme list, render the runs' dra-report-v1
/// document once, normalize it to Base through the one Comparison
/// (obs/CompareReport.h) the figures print from, and print the paper's
/// reported averages next to the measured ones.
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
#include "driver/ExperimentRunner.h"
#include "obs/CompareReport.h"
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

/// Runs all six applications through \p Schemes under \p Config on the
/// parallel experiment runner.
inline std::vector<AppResults> runAllApps(const PipelineConfig &Config,
                                          const std::vector<Scheme> &Schemes) {
  std::vector<AppUnderTest> Apps = paperApps(benchScale());
  unsigned Jobs = benchJobs();
  std::fprintf(stderr, "  running %zu apps x %zu schemes on %u worker%s...\n",
               Apps.size(), Schemes.size(), Jobs, Jobs == 1 ? "" : "s");
  return runAppMatrix(Config, Schemes, Apps, Jobs);
}

/// Normalizes the rendered report \p ReportJson of bench \p Name to Base
/// (compareReportJson): the figures take every ratio from the document
/// that DRA_BENCH_JSON saves and dra-compare reads. A report that cannot
/// be normalized is a hard error.
inline Comparison compareBenchReport(const std::string &ReportJson,
                                     const char *Name) {
  Comparison C;
  std::string Error;
  if (!compareReportJson(ReportJson, Name, "Base", C, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    std::exit(1);
  }
  return C;
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

/// With DRA_BENCH_JSON set to a directory, writes bench \p Name's run
/// report \p ReportJson as <dir>/<name>.json: the "dra-report-v1" schema
/// (docs/FORMATS.md) that `drac --report-json` emits, so the CI regression
/// gate can diff it against bench/baselines and `dra-compare` can read it.
inline void writeBenchArtifacts(const std::string &ReportJson,
                                const char *Name) {
  const char *Dir = std::getenv("DRA_BENCH_JSON");
  if (!Dir)
    return;
  std::string Path = writeArtifact(Dir, Name, "json", ReportJson);
  std::printf("(run report written to %s)\n", Path.c_str());
}

/// Prints a "paper vs measured" comparison line for one scheme average.
inline void printComparison(const char *Metric, const char *SchemeName,
                            double PaperValue, double Measured) {
  std::printf("  %-10s %-9s paper %7.3f   measured %7.3f\n", Metric,
              SchemeName, PaperValue, Measured);
}

} // namespace dra

#endif // DRA_BENCH_BENCHCOMMON_H
