//===- obs/IdleGapAnalyzer.h - Idle-gap distribution analytics --*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns the per-disk idle-gap records (DiskStats gap counters + IdleHist)
/// into the paper's Sec. 3 evidence: how many idle gaps clear the TPM
/// break-even time, how much idle time and full-power idle energy sits in
/// the gaps that do not ("missed-opportunity energy"), and the gap-length
/// distribution summarized as p50/p95/p99 percentiles. The restructured
/// schemes exist precisely to move gaps from the sub-break-even class into
/// the exploitable one — this analyzer measures that movement directly.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_OBS_IDLEGAPANALYZER_H
#define DRA_OBS_IDLEGAPANALYZER_H

#include "sim/SimEngine.h"

#include <vector>

namespace dra {

/// Gap statistics of one disk (or of the whole array, for the aggregate).
struct GapStats {
  uint64_t Gaps = 0;              ///< Total idle gaps.
  uint64_t GapsBelowBreakEven = 0;
  uint64_t GapsAtLeastBreakEven = 0;
  double IdleSBelowBreakEven = 0.0;
  double IdleSAtLeastBreakEven = 0.0;
  /// Full-speed idle joules inside sub-break-even gaps.
  double MissedOpportunityJ = 0.0;
  /// Fraction of total idle *time* in gaps at least the break-even length
  /// (bucket-granularity, DurationHistogram::fractionOfTimeInPeriodsAtLeast).
  double CoverageAtLeastBreakEven = 0.0;
  /// Gap-length percentiles in seconds (bucket-interpolated).
  double P50S = 0.0;
  double P95S = 0.0;
  double P99S = 0.0;

  double idleSTotal() const {
    return IdleSBelowBreakEven + IdleSAtLeastBreakEven;
  }
};

/// Per-disk gap statistics with the disk id attached.
struct DiskGapStats {
  unsigned Disk = 0;
  GapStats Stats;
};

/// The full analysis of one run.
struct IdleGapAnalysis {
  double BreakEvenS = 0.0;        ///< Classification threshold used.
  GapStats Total;                 ///< Array-wide aggregate.
  std::vector<DiskGapStats> PerDisk;
};

/// Classifies every disk's idle gaps against \p BreakEvenS
/// (DiskParams::TpmBreakEvenS in normal use). Percentiles of the aggregate
/// come from the merged per-disk histograms.
IdleGapAnalysis analyzeIdleGaps(const SimResults &R, double BreakEvenS);

} // namespace dra

#endif // DRA_OBS_IDLEGAPANALYZER_H
