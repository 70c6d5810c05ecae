//===- core/Report.h - Paper-style result tables ----------------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a set of schemes over a set of applications and renders the
/// normalized tables behind Figs. 9 and 10: energy normalized to Base, and
/// performance degradation (disk I/O time increase) relative to Base.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_CORE_REPORT_H
#define DRA_CORE_REPORT_H

#include "core/Pipeline.h"

#include <functional>
#include <string>
#include <vector>

namespace dra {

/// One application under evaluation.
struct AppUnderTest {
  std::string Name;
  std::function<Program()> Build;
};

/// Results of one app across schemes.
struct AppResults {
  std::string Name;
  std::vector<SchemeRun> Runs; ///< Runs[i] corresponds to Schemes[i].
  /// Rendered "dra-footprint-v1" body for this app (docs/FORMATS.md),
  /// embedded verbatim in the report document when non-empty.
  std::string FootprintJson;
};

/// Evaluation harness shared by the figure benches.
class Report {
public:
  Report(PipelineConfig Config, std::vector<Scheme> Schemes)
      : Config(std::move(Config)), Schemes(std::move(Schemes)) {}

  /// Runs every scheme for \p App, serially on the calling thread. The
  /// figure benches run the same matrix concurrently via
  /// driver/ExperimentRunner::runAppMatrix, which produces identical
  /// results for every worker count.
  AppResults evaluate(const AppUnderTest &App) const;

  const std::vector<Scheme> &schemes() const { return Schemes; }
  const PipelineConfig &config() const { return Config; }

  /// Index of Base in the scheme list (normalization reference).
  size_t baseIndex() const;

  /// "Normalized energy" table: rows = apps (+ average), cols = schemes;
  /// entries are energy relative to Base (1.00 = Base).
  std::string renderEnergyTable(const std::vector<AppResults> &All) const;

  /// Fig. 9-style grouped bar chart of the normalized energies.
  std::string renderEnergyBars(const std::vector<AppResults> &All) const;

  /// "Performance degradation" table: percent increase of disk I/O time
  /// over Base.
  std::string renderPerfTable(const std::vector<AppResults> &All) const;

  /// Machine-readable CSV of the normalized energies and I/O-time
  /// degradations (one row per app x scheme), for external plotting.
  std::string renderCsv(const std::vector<AppResults> &All) const;

  /// Energy-attribution table: rows = schemes, entries = each ledger
  /// category normalized to Base energy and averaged over the apps, plus
  /// the normalized sub-break-even missed-opportunity energy (the idle
  /// power the restructuring exists to reclaim). Columns stack to the
  /// "Total" column, which equals the renderEnergyTable average.
  std::string renderLedgerTable(const std::vector<AppResults> &All) const;

  /// Average normalized energy of scheme index \p SI over \p All.
  double averageNormalizedEnergy(const std::vector<AppResults> &All,
                                 size_t SI) const;

  /// Average I/O-time degradation of scheme index \p SI over \p All.
  double averagePerfDegradation(const std::vector<AppResults> &All,
                                size_t SI) const;

private:
  PipelineConfig Config;
  std::vector<Scheme> Schemes;
};

} // namespace dra

#endif // DRA_CORE_REPORT_H
