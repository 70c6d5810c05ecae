//===- obs/AttribDiff.h - Attribution-granularity run diffing ---*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Diffs two saved runs at source-attribution granularity: given the runs
/// of two "dra-report-v1" documents, as read by obs/RunReport.h, matches
/// their apps and schemes and reports the signed per-nest joule and time
/// deltas, sorted by delta magnitude, so "scheme X saved 31 J on app Y"
/// becomes "scheme X saved 28 J of full-RPM idle under nest jacobi.sweep".
/// Nests are matched by label, which the reader keeps unique within a run
/// (stable across code versions even when ids shift); the unattributed
/// bucket diffs like any other row. Rendered as the "dra-diff-v1" JSON
/// schema (docs/FORMATS.md) and as a text table (`dra-compare --nests`).
///
//===----------------------------------------------------------------------===//

#ifndef DRA_OBS_ATTRIBDIFF_H
#define DRA_OBS_ATTRIBDIFF_H

#include "obs/RunReport.h"

#include <string>
#include <vector>

namespace dra {

/// One nest's signed delta between the two runs. A nest present on only
/// one side diffs against zero (a restructuring that removes or introduces
/// a nest still shows its full energy).
struct AttribNestDelta {
  std::string Label;
  bool InA = false;
  bool InB = false;
  double AJ = 0.0, BJ = 0.0, DeltaJ = 0.0;
  double ABusyMs = 0.0, BBusyMs = 0.0, DeltaBusyMs = 0.0;
  double AReadyDelayMs = 0.0, BReadyDelayMs = 0.0, DeltaReadyDelayMs = 0.0;
};

/// One app's diff between a run of document A and a run of document B.
struct AppAttribDiff {
  std::string App;
  std::string SchemeA, SchemeB;
  double TotalAJ = 0.0, TotalBJ = 0.0;
  std::vector<AttribNestDelta> Nests; ///< Sorted by |DeltaJ|, descending.
};

/// The full diff.
struct AttribDiff {
  std::string SourceA, SourceB; ///< Provenance labels (input file paths).
  std::vector<AppAttribDiff> Apps;
};

/// Matches runs of \p A against runs of \p B per app; runs without an
/// attribution section take no part. With \p SchemeA and
/// \p SchemeB empty, every scheme present in both sides of an app is
/// diffed; naming one scheme restricts that side (an empty one defaults to
/// the other, so `--scheme-a Base --scheme-b T-TPM-s` diffs Base against
/// the restructured run). Returns false with \p Error set when no app
/// produces a matching pair.
bool buildAttribDiff(const std::vector<ReportRun> &A,
                     const std::vector<ReportRun> &B,
                     const std::string &SchemeA, const std::string &SchemeB,
                     AttribDiff &Out, std::string &Error);

/// Renders the "dra-diff-v1" JSON document.
std::string renderAttribDiffJson(const AttribDiff &D);

/// Renders the per-app delta table: one row per nest, sorted by joule
/// delta magnitude, with busy/stall time deltas alongside.
std::string renderAttribDiffTable(const AttribDiff &D);

/// Convenience entry point for `dra-compare --nests`: loads both reports
/// (loadRunReport; paths become the source labels) and builds the diff.
/// Returns false with \p Error naming the offending file on any failure,
/// including a file none of whose runs carries an attribution section.
bool diffAttribFiles(const std::string &FileA, const std::string &FileB,
                     const std::string &SchemeA, const std::string &SchemeB,
                     AttribDiff &Out, std::string &Error);

} // namespace dra

#endif // DRA_OBS_ATTRIBDIFF_H
