//===- analysis/SymbolicFootprint.h - Closed-form tile demand ---*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Symbolic footprint and locality analysis (ROADMAP item 2,
/// docs/ANALYSIS.md): derives, per loop nest and per array reference —
/// from the AffineExpr bounds and subscripts alone, without enumerating
/// the iteration space —
///
///   (a) the set of distinct tiles the reference touches, represented as
///       disjoint strided runs over linear tile ids;
///   (b) how many of those tiles reside on each I/O node under the active
///       DiskLayout striping (the per-disk demand); and
///   (c) exact inter-reference overlaps (shared tiles) within a nest,
///       the reuse signal the layout-aware parallelizer consumes without
///       a TileAccessTable.
///
/// Counts (a) and (b) are exact, never estimates: a reference whose shape
/// escapes the closed forms is *demoted* to per-reference enumeration (the
/// fallback), so symbolic and enumerated results agree bit-for-bit — the
/// differential property the tests and the verifier's oracle cross-check
/// (ScheduleVerifier::verifyFootprint) enforce. Only the overlap report (c)
/// may degrade to a marked estimate when run decompositions are truncated.
///
/// Derivation tiers per reference (docs/ANALYSIS.md):
///   ClosedForm   rectangular constant bounds, separable subscripts (each
///                subscript reads at most one induction variable and no
///                variable feeds two subscripts): per-dimension value
///                progressions whose distinct counts multiply; per-disk
///                demand by cyclic residue convolution, O(depth * disks^2).
///   RowSymbolic  affine (possibly triangular) bounds, any affine
///                subscripts: the innermost loop collapses to one strided
///                run per outer iteration; runs union exactly via stride-
///                class interval merging. O(outer iterations * log), still
///                independent of the innermost extent.
///   Fallback     everything else: per-reference enumeration, reading
///                TileAccessTable rows when a table is given or
///                re-evaluating this reference's subscripts when none is.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_ANALYSIS_SYMBOLICFOOTPRINT_H
#define DRA_ANALYSIS_SYMBOLICFOOTPRINT_H

#include "ir/AffineRange.h"
#include "ir/TileAccessTable.h"
#include "layout/DiskLayout.h"
#include "support/Json.h"

#include <cstdint>
#include <vector>

namespace dra {

/// How the pipeline derives footprints (PipelineConfig::Footprint):
///   Enumerated  every reference takes the fallback path — the oracle the
///               differential tests and the bench compare against;
///   Auto        closed forms, with the fallback for irregular references
///               (the default). Given no TileAccessTable, it is the
///               table-free compile path.
enum class FootprintMode { Enumerated, Auto };

/// Lower-case mode name ("enumerated", "auto").
const char *footprintModeName(FootprintMode M);

/// The derivation tier that produced one reference's footprint.
enum class FootprintMethod { ClosedForm, RowSymbolic, Fallback };

/// Kebab-case method name ("closed-form", "row-symbolic", "fallback").
const char *footprintMethodName(FootprintMethod M);

/// Footprint of one array reference of one nest.
struct RefFootprint {
  unsigned RefIndex = 0; ///< Body-order index within the nest.
  ArrayId Array = 0;
  AccessKind Kind = AccessKind::Read;
  FootprintMethod Method = FootprintMethod::Fallback;
  /// Exact number of distinct tiles of Array this reference touches.
  uint64_t DistinctTiles = 0;
  /// Exact count of those tiles whose primary disk is d, per disk d.
  std::vector<uint64_t> PerDiskDemand;
  /// Disjoint strided runs over linear tile ids covering the footprint.
  /// Exact cover iff RunsExact; truncated (and then empty) when the
  /// decomposition would exceed the run budget — the counts above stay
  /// exact either way.
  std::vector<StridedRange> TileRuns;
  bool RunsExact = true;
};

/// Tiles shared by two references of the same array within one nest. Exact
/// when both run decompositions are exact and small enough to intersect;
/// otherwise a marked hull-based upper-bound estimate.
struct RefOverlap {
  unsigned RefA = 0;
  unsigned RefB = 0;
  uint64_t SharedTiles = 0;
  bool Exact = true;
};

/// Footprint of one loop nest.
struct NestFootprint {
  NestId Nest = 0;
  /// Exact iteration count, derived without full enumeration
  /// (LoopNest::numIterations).
  uint64_t Iterations = 0;
  std::vector<RefFootprint> Refs;
  /// Same-array reference pairs (RefA < RefB) with nonzero estimated or
  /// exact sharing.
  std::vector<RefOverlap> Overlaps;
};

/// Work budgets bounding the symbolic tiers. Exactness of the reported
/// counts never depends on them: a reference whose exact derivation would
/// exceed a budget is demoted one tier (ultimately to enumeration); only
/// the stored run decomposition may be dropped (RunsExact = false). Tests
/// shrink them to force the demotion paths at small problem sizes.
struct FootprintBudgets {
  /// Outer-band iterations tier 2 may walk.
  uint64_t OuterRows = uint64_t(1) << 21;
  /// Explicit points a conflicting run union may materialize.
  uint64_t Points = uint64_t(1) << 22;
  /// Cross-stride run pairs tested for disjointness (and overlap pairs).
  uint64_t CrossPairs = uint64_t(1) << 16;
  /// Width of tier 1's per-dimension run fold.
  uint64_t FoldWidth = uint64_t(1) << 16;
  /// Runs retained on a RefFootprint before dropping to RunsExact=false.
  uint64_t StoredRuns = uint64_t(1) << 16;
};

/// The symbolic footprint analysis of one (Program, DiskLayout) pair.
class SymbolicFootprint {
public:
  /// \param Table consulted only by the fallback tier (and required for
  ///        mode Enumerated to reproduce the oracle from table rows when
  ///        present); nullptr enumerates the fallback references directly.
  ///        The null table is deliberate: it is the table-free compile
  ///        path, which analyzes iteration spaces (10^10 and beyond) no
  ///        table could hold. The table's rows must cover exactly the
  ///        program's iteration space in original order.
  SymbolicFootprint(const Program &P, const DiskLayout &Layout,
                    FootprintMode Mode = FootprintMode::Auto,
                    const TileAccessTable *Table = nullptr,
                    const FootprintBudgets &Budgets = {});

  FootprintMode mode() const { return Mode; }
  unsigned numDisks() const { return Disks; }
  const std::vector<NestFootprint> &nests() const { return Nests; }

  /// Reference counts by derivation tier (symbolic-vs-fallback coverage).
  uint64_t numRefs() const { return RefsClosedForm + RefsRowSymbolic + RefsFallback; }
  uint64_t numClosedFormRefs() const { return RefsClosedForm; }
  uint64_t numRowSymbolicRefs() const { return RefsRowSymbolic; }
  uint64_t numFallbackRefs() const { return RefsFallback; }

  /// Fraction of references derived without enumeration, in [0, 1].
  double symbolicCoverage() const;

  /// Sum of per-reference distinct-tile counts (references may overlap, so
  /// this is a demand total, not a distinct union).
  uint64_t totalDistinctTiles() const;

  /// Per-disk demand summed over every reference.
  std::vector<uint64_t> totalPerDiskDemand() const;

  /// Total iterations across all nests.
  uint64_t totalIterations() const;

  /// Serializes the "dra-footprint-v1" body (docs/FORMATS.md) as one JSON
  /// object value into \p W.
  void writeJson(JsonWriter &W) const;

  /// Convenience: the body as a string (the report's per-app "footprint").
  std::string renderJson() const;

private:
  const Program &Prog;
  const DiskLayout &Layout;
  FootprintMode Mode;
  unsigned Disks;
  std::vector<NestFootprint> Nests;
  uint64_t RefsClosedForm = 0;
  uint64_t RefsRowSymbolic = 0;
  uint64_t RefsFallback = 0;
};

} // namespace dra

#endif // DRA_ANALYSIS_SYMBOLICFOOTPRINT_H
