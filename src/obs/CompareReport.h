//===- obs/CompareReport.h - Cross-scheme comparison reports ----*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one normalization of results to a baseline scheme (Base by
/// default), the paper's Fig. 9/10 view: per-scheme energy and disk I/O
/// time relative to the baseline, energy broken down by ledger category
/// and the missed-opportunity energy the restructuring exists to shrink.
/// It reads the runs of "dra-report-v1" documents (readRunReport, obs/RunReport.h).
/// Each run normalizes against the baseline of its own source document
/// when present (so two reports of the same app from different code
/// versions stay internally consistent), falling back to any source's
/// baseline for the same app, which lets per-job sweep reports, each
/// holding one scheme, be compared as a set. Rendered as "dra-compare-v1"
/// JSON (docs/FORMATS.md), as dra-compare's text table, and as the figure
/// benches' Fig. 9/10 matrices and bar chart.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_OBS_COMPAREREPORT_H
#define DRA_OBS_COMPAREREPORT_H

#include "obs/RunReport.h"

#include <string>
#include <utility>
#include <vector>

namespace dra {

/// One run normalized against its resolved baseline (the baseline-scheme
/// run of the same source document, or any source's baseline for the same
/// app when the run's own source has none).
struct ComparedRun {
  ReportRun Run;
  std::string BaselineSource;    ///< Source the baseline came from.
  double BaselineEnergyJ = 0.0;
  double NormalizedEnergy = 0.0; ///< EnergyJ / BaselineEnergyJ.
  bool HasIoDegradation = false; ///< False when the baseline did no I/O.
  double IoDegradation = 0.0; ///< IoTimeMs / baseline IoTimeMs - 1.
  /// MissedOpportunityJ / BaselineEnergyJ.
  double NormalizedMissedOpportunity = 0.0;
  /// CategoriesJ each divided by BaselineEnergyJ, so one run's normalized
  /// categories stack to its NormalizedEnergy.
  std::vector<std::pair<std::string, double>> NormalizedCategories;
};

/// All runs of one app.
struct AppComparison {
  std::string App;
  std::vector<ComparedRun> Runs;
};

/// Mean normalized results of one (scheme, source) across apps.
struct SchemeSummary {
  std::string Scheme;
  std::string Source;
  unsigned Apps = 0;
  double MeanNormalizedEnergy = 0.0;
  double MeanNormalizedMissedOpportunity = 0.0;
  /// Mean IoDegradation over the IoApps apps that have one.
  unsigned IoApps = 0;
  double MeanIoDegradation = 0.0;
};

/// The full comparison.
struct Comparison {
  std::string BaselineScheme;
  std::vector<std::string> Inputs; ///< Source labels, input order.
  std::vector<AppComparison> Apps; ///< First-seen app order.
  std::vector<SchemeSummary> Schemes;
};

/// Normalizes \p Runs against \p BaselineScheme per app. Returns false
/// with \p Error set when an app has no baseline run in any source, when a
/// baseline's energy is zero, or when \p Runs is empty.
bool buildComparison(const std::vector<ReportRun> &Runs,
                     const std::string &BaselineScheme,
                     const std::vector<std::string> &Inputs, Comparison &Out,
                     std::string &Error);

/// Renders the "dra-compare-v1" JSON document.
std::string renderCompareJson(const Comparison &C);

/// Renders the normalized-savings text table (Fig. 9 view): one row per
/// app x scheme plus per-scheme averages, with the normalized category
/// groups (active / idle / standby / transitions / ready penalty), the
/// normalized missed-opportunity energy and the I/O-time degradation.
std::string renderCompareTable(const Comparison &C);

/// Renders Fig. 9's matrix: one row per app plus an "average" row, one
/// column per scheme summary, each entry the energy normalized to the
/// baseline (1.0000 = baseline).
std::string renderEnergyMatrix(const Comparison &C);

/// Renders Fig. 9's grouped bar chart of the same normalized energies.
std::string renderEnergyBars(const Comparison &C);

/// Renders Fig. 10's matrix: the percent increase of disk I/O time over
/// the baseline, with the baseline's own column left out.
std::string renderIoDegradationMatrix(const Comparison &C);

/// Normalizes the runs of the rendered report \p ReportJson (labelled
/// \p Source) against \p BaselineScheme: the figure benches' path from
/// their own runs to Figs. 9 and 10. The report's 17-digit numbers parse
/// back to the exact doubles of the runs, so every ratio equals the one
/// computed from the runs in memory. Returns false with \p Error set when
/// the text does not parse, the reader refuses it or normalization fails.
bool compareReportJson(const std::string &ReportJson,
                       const std::string &Source,
                       const std::string &BaselineScheme, Comparison &Out,
                       std::string &Error);

/// Convenience entry point for tools/dra-compare: loads every report in
/// \p Files (loadRunReport; the file path becomes the run's source label)
/// and normalizes the runs against \p BaselineScheme. Returns false with
/// \p Error naming the offending file on any read/parse/read/normalization
/// failure.
bool compareReportFiles(const std::vector<std::string> &Files,
                        const std::string &BaselineScheme, Comparison &Out,
                        std::string &Error);

} // namespace dra

#endif // DRA_OBS_COMPAREREPORT_H
