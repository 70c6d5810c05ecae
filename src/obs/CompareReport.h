//===- obs/CompareReport.h - Cross-scheme comparison reports ----*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Diffs two or more "dra-report-v1" documents into the paper's Fig. 9
/// view: per-scheme energy normalized to a baseline scheme (Base by
/// default), broken down by the categories of each run's ledger section,
/// with the missed-opportunity energy the restructuring exists to shrink.
/// Each run normalizes against the baseline of its own source document
/// when present (so two reports of the same app from different code
/// versions stay internally consistent), falling back to any source's
/// baseline for the same app — which lets per-job sweep reports, each
/// holding one scheme, be compared as a set. Rendered as the "dra-compare-v1" JSON schema
/// (docs/FORMATS.md) and as a text table (`tools/dra-compare`).
///
//===----------------------------------------------------------------------===//

#ifndef DRA_OBS_COMPAREREPORT_H
#define DRA_OBS_COMPAREREPORT_H

#include "support/Json.h"

#include <string>
#include <utility>
#include <vector>

namespace dra {

/// One (source, app, scheme) energy record extracted from a report.
struct CompareRun {
  std::string Source; ///< Provenance label (usually the input file name).
  std::string App;
  std::string Scheme;
  double EnergyJ = 0.0;
  bool HasIoTime = false;
  double IoTimeMs = 0.0;
  /// False for pre-ledger reports: no categories / missed opportunity.
  bool HasLedger = false;
  double MissedOpportunityJ = 0.0;
  /// Flat category joules in schema order ("active_read_j",
  /// "idle@15000_j", ..., "ready_penalty_j").
  std::vector<std::pair<std::string, double>> CategoriesJ;
};

/// Extracts every app x scheme run of a parsed "dra-report-v1" document.
/// Returns false with \p Error set when the document has another schema or
/// is malformed. A run without a ledger section (a report written before
/// the section existed) still compares on total energy.
bool extractCompareRuns(const JsonValue &Doc, const std::string &SourceLabel,
                        std::vector<CompareRun> &Out, std::string &Error);

/// One run normalized against its resolved baseline (the baseline-scheme
/// run of the same source document, or any source's baseline for the same
/// app when the run's own source has none).
struct ComparedRun {
  CompareRun Run;
  std::string BaselineSource;    ///< Source the baseline came from.
  double BaselineEnergyJ = 0.0;
  double NormalizedEnergy = 0.0; ///< EnergyJ / BaselineEnergyJ.
  bool HasIoDegradation = false;
  double IoDegradation = 0.0; ///< IoTimeMs / baseline IoTimeMs - 1.
  /// MissedOpportunityJ / BaselineEnergyJ (0 unless Run.HasLedger).
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
  bool AllHaveLedger = true;
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
bool buildComparison(const std::vector<CompareRun> &Runs,
                     const std::string &BaselineScheme,
                     const std::vector<std::string> &Inputs, Comparison &Out,
                     std::string &Error);

/// Renders the "dra-compare-v1" JSON document.
std::string renderCompareJson(const Comparison &C);

/// Renders the normalized-savings text table (Fig. 9 view): one row per
/// app x scheme plus per-scheme averages, with the normalized category
/// groups (active / idle / standby / transitions / ready penalty) and the
/// normalized missed-opportunity energy.
std::string renderCompareTable(const Comparison &C);

/// Convenience entry point for tools/dra-compare: reads and parses every
/// file in \p Files (the file path becomes the run's source label),
/// extracts its runs, and normalizes them against \p BaselineScheme.
/// Returns false with \p Error naming the offending file on any
/// read/parse/extract/normalization failure.
bool compareReportFiles(const std::vector<std::string> &Files,
                        const std::string &BaselineScheme, Comparison &Out,
                        std::string &Error);

} // namespace dra

#endif // DRA_OBS_COMPAREREPORT_H
