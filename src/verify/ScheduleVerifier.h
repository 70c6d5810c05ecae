//===- verify/ScheduleVerifier.h - Schedule legality ------------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Independent legality checking of the iteration orders emitted by the
/// disk-reuse restructurer (Sec. 5) and the parallelizers (Sec. 6). The
/// verifier re-derives data dependences from scratch — it builds its own
/// IterationGraph from the Program, never consulting the scheduler's
/// bookkeeping — and proves that every emitted schedule is a legal
/// reordering:
///
///   * every iteration of the space appears exactly once across all
///     processors (a schedule is a permutation / partition, Sec. 5);
///   * within one processor, a dependent iteration never runs before its
///     source (the Fig. 3 ready-set invariant);
///   * a dependence that crosses processors is separated by a barrier:
///     its source's phase is strictly smaller (the Sec. 6.1 rule that
///     cross-processor dependences inside a phase are unsynchronizable);
///   * per-processor barrier phases never regress (reordering must not
///     cross a barrier);
///   * every same-nest dependence edge has a lexicographically non-negative
///     distance vector (cross-validation of the dependence machinery
///     against the Sec. 6.1 distance-vector theory).
///
/// It also recounts ScheduleLocality metrics from the raw order and layout
/// so a buggy metrics computation cannot misreport the paper's headline
/// disk-reuse numbers.
///
/// Checks (pass "schedule-verifier"):
///   iteration-out-of-range   scheduled id outside the iteration space
///   duplicate-iteration      iteration scheduled more than once
///   missing-iteration        iteration never scheduled
///   phase-regression         processor order crosses a barrier backwards
///   dependence-violation     same-processor dependence scheduled inverted
///   barrier-violation        cross-processor dependence not barrier-separated
///   negative-distance        same-nest edge with lexicographically negative
///                            distance (dependence machinery inconsistency)
///   locality-mismatch        claimed locality metric != independent recount
///   footprint-iterations-mismatch  symbolic nest iteration count != space
///   footprint-count-mismatch       symbolic distinct-tile count != recount
///   footprint-demand-mismatch      symbolic per-disk demand != recount
///
//===----------------------------------------------------------------------===//

#ifndef DRA_VERIFY_SCHEDULEVERIFIER_H
#define DRA_VERIFY_SCHEDULEVERIFIER_H

#include "analysis/IterationGraph.h"
#include "analysis/SymbolicFootprint.h"
#include "core/Schedule.h"
#include "layout/DiskLayout.h"
#include "support/Diagnostic.h"
#include "trace/TraceGenerator.h"

#include <memory>

namespace dra {

/// Independent schedule-legality verifier.
class ScheduleVerifier {
public:
  /// \param P the program whose schedules are checked.
  /// \param Space its iteration space.
  /// \param Layout disk layout, used only by the locality recount.
  /// \param DE destination for diagnostics.
  /// \param Table optional precomputed access table, consulted only by the
  ///        recounts. The pipeline shares it at VerifyLevel::Cheap; at Full
  ///        it passes nullptr so every verdict rests exclusively on the
  ///        verifier's own re-derivations (docs/VERIFICATION.md). That
  ///        null-table path is deliberate: it is the compile side's single
  ///        independent re-derivation, so a table bug cannot self-certify.
  ///        The dependence checks never read the table at any level.
  ScheduleVerifier(const Program &P, const IterationSpace &Space,
                   const DiskLayout &Layout, DiagnosticEngine &DE,
                   const TileAccessTable *Table = nullptr)
      : Prog(P), Space(Space), Layout(Layout), DE(DE), Table(Table) {}

  /// Cheap structural check: \p Work schedules every iteration exactly once
  /// and per-processor phases never regress. O(iterations), no dependence
  /// analysis.
  bool verifyPartition(const ScheduledWork &Work);

  /// Full legality proof: re-derives the dependence graph and checks every
  /// edge against \p Work's orders, phases, and processor assignment. Also
  /// cross-validates same-nest edges against distance-vector theory.
  bool verifyDependences(const ScheduledWork &Work);

  /// verifyPartition + verifyDependences; emits a closing remark when the
  /// schedule proves legal.
  bool verifyWork(const ScheduledWork &Work);

  /// Recounts locality metrics of \p S from scratch and compares them to
  /// \p Claimed.
  bool verifyLocality(const Schedule &S, const ScheduleLocality &Claimed);

  /// Cross-checks \p FP's symbolically derived counts against an
  /// independent per-reference enumeration: nest iteration totals, distinct
  /// tiles per reference, and per-disk demand per reference must all match
  /// exactly (the footprint's counts are contracts, not estimates). The
  /// recount reads table rows when the verifier holds a table (Cheap) and
  /// re-evaluates every subscript itself otherwise (Full), so at Full a
  /// table bug cannot self-certify a footprint derived from that table.
  bool verifyFootprint(const SymbolicFootprint &FP);

  /// Re-derives, in one walk over the program, everything the checks above
  /// read from it: the reference dependence graph, the per-reference
  /// footprint recount and each iteration's first-accessed tile. A check
  /// walks only for what it reads; a caller that runs every check on one
  /// verifier (Pipeline at Full) calls this first, so one walk serves them
  /// all for the verifier's lifetime. With a table the recounts read its
  /// rows and only the graph comes from the program.
  void rederive() { derive(All); }

private:
  /// What a walk derives, as bits.
  enum Derived : unsigned {
    DepGraph = 1,     ///< The reference dependence graph.
    Recount = 2,      ///< Distinct tiles and per-disk demand per reference.
    FirstTiles = 4,   ///< Each iteration's first-accessed tile.
    All = DepGraph | Recount | FirstTiles
  };

  const Program &Prog;
  const IterationSpace &Space;
  const DiskLayout &Layout;
  DiagnosticEngine &DE;
  const TileAccessTable *Table;
  unsigned Have = 0;
  /// Independently derived dependence graph (never the scheduler's
  /// instance).
  std::unique_ptr<IterationGraph> Graph;
  /// The recount: reference R of nest N is entry RefBase[N] + R of
  /// RefTiles, and row RefBase[N] + R of the numDisks()-wide RefDemand.
  std::vector<uint64_t> RefBase, RefTiles, RefDemand;
  /// Each iteration's first-accessed tile (of its nest's first
  /// reference's array); NoTile for an empty row.
  std::vector<int64_t> FirstTile;

  /// Where an iteration is first scheduled: processor and position in its
  /// order (Proc ~0 when no processor schedules it).
  struct Placement {
    uint32_t Proc = ~uint32_t(0);
    uint32_t Pos = 0;
  };

  /// Walks once for whatever of \p Want is not derived yet.
  void derive(unsigned Want);
  /// verifyPartition, leaving each iteration's placement in \p Placed.
  bool checkPartition(const ScheduledWork &Work,
                      std::vector<Placement> &Placed);
  /// verifyDependences over the placements checkPartition computed.
  bool checkDependences(const ScheduledWork &Work,
                        const std::vector<Placement> &Placed);
  const IterationGraph &graph();
  DiagLocation loc(int64_t Iter = -1) const;
  uint32_t phaseOf(const ScheduledWork &Work, GlobalIter G) const {
    return Work.PhaseOf.empty() ? 0 : Work.PhaseOf[G];
  }
};

} // namespace dra

#endif // DRA_VERIFY_SCHEDULEVERIFIER_H
