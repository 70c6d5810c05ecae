//===- obs/IdleGapAnalyzer.cpp - Idle-gap distribution analytics ------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/IdleGapAnalyzer.h"

using namespace dra;

/// Fills the classification part of \p G from one disk's counters.
static void addDiskCounters(GapStats &G, const DiskStats &S) {
  G.Gaps += S.GapsBelowBreakEven + S.GapsAtLeastBreakEven;
  G.GapsBelowBreakEven += S.GapsBelowBreakEven;
  G.GapsAtLeastBreakEven += S.GapsAtLeastBreakEven;
  G.IdleSBelowBreakEven += S.IdleMsBelowBreakEven / 1000.0;
  G.IdleSAtLeastBreakEven += S.IdleMsAtLeastBreakEven / 1000.0;
  G.MissedOpportunityJ += S.MissedOpportunityJ;
}

/// Fills the distribution part of \p G from a gap-length histogram.
static void addHistogram(GapStats &G, const DurationHistogram &H,
                         double BreakEvenS) {
  G.CoverageAtLeastBreakEven = H.fractionOfTimeInPeriodsAtLeast(BreakEvenS);
  G.P50S = H.percentile(0.50);
  G.P95S = H.percentile(0.95);
  G.P99S = H.percentile(0.99);
}

IdleGapAnalysis dra::analyzeIdleGaps(const SimResults &R, double BreakEvenS) {
  IdleGapAnalysis A;
  A.BreakEvenS = BreakEvenS;
  DurationHistogram Merged; // Same default shape as DiskStats::IdleHist.
  for (size_t D = 0; D != R.PerDisk.size(); ++D) {
    const DiskStats &S = R.PerDisk[D];
    DiskGapStats DG;
    DG.Disk = unsigned(D);
    addDiskCounters(DG.Stats, S);
    addHistogram(DG.Stats, S.IdleHist, BreakEvenS);
    A.PerDisk.push_back(DG);
    addDiskCounters(A.Total, S);
    Merged.merge(S.IdleHist);
  }
  addHistogram(A.Total, Merged, BreakEvenS);
  return A;
}
