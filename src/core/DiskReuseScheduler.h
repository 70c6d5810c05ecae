//===- core/DiskReuseScheduler.h - Fig. 3 restructuring ---------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's core contribution (Sec. 5, Fig. 3): reorder all iterations
/// of the program so that accesses to one disk are clustered before moving
/// to the next disk, subject to data dependences.
///
/// Algorithm (as published): keep the unscheduled set Q in original program
/// order. In rounds, for each disk d in ascending order, sweep Q and
/// schedule every iteration that (a) touches disk d and was not claimed by
/// an earlier disk of this round, and (b) has all of its dependence
/// predecessors already scheduled. Dependences may force several visits per
/// disk (the while-loop of Fig. 3); since original order is a topological
/// order of the dependence DAG, every round makes progress and the
/// scheduler terminates. The worked example of Fig. 4 is reproduced exactly
/// (see tests).
///
/// Implementation: the published formulation rescans the whole unscheduled
/// queue once per disk per round — O(rounds x disks x |Q|). This class
/// instead maintains one *ready bucket* per disk: the candidate iterations
/// touching that disk, kept in ascending global-index order. Each disk
/// visit is one forward sweep of its bucket that schedules every ready
/// entry and compacts the rest in place — the published rescan restricted
/// to the |bucket| candidates instead of all |Q| unscheduled iterations.
/// Because dependence edges always point forward in program order, an
/// iteration readied mid-sweep sits ahead of the cursor and is claimed in
/// the same sweep, so the emitted Schedule, round count and per-round stats
/// are byte-identical to the published algorithm (proved by differential
/// tests against the published rescan, kept in tests/hotpath_test.cpp as
/// the oracle). Cost drops to
/// O(V x popcount(mask) x rounds + E); rounds is small in practice (2-3 on
/// the Table 2 applications). See docs/PERFORMANCE.md.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_CORE_DISKREUSESCHEDULER_H
#define DRA_CORE_DISKREUSESCHEDULER_H

#include "analysis/IterationGraph.h"
#include "core/Schedule.h"
#include "ir/TileAccessTable.h"
#include "layout/DiskLayout.h"

#include <vector>

namespace dra {

/// Telemetry of one while-loop round of the Fig. 3 algorithm: how many
/// iterations were still unscheduled when the round began (the ready-queue
/// depth) and how many the round managed to place.
struct SchedulerRoundStats {
  uint64_t QueueDepth = 0;
  uint64_t Scheduled = 0;

  bool operator==(const SchedulerRoundStats &O) const {
    return QueueDepth == O.QueueDepth && Scheduled == O.Scheduled;
  }
};

/// Disk-reuse oriented code restructurer.
class DiskReuseScheduler {
public:
  /// Derives disk masks from the precomputed access \p Table (one linear
  /// scan, no subscript re-evaluation).
  DiskReuseScheduler(const TileAccessTable &Table, const DiskLayout &Layout);

  /// Restructures the iterations \p Graph spans: its members when it is a
  /// subset graph, every iteration otherwise.
  /// \param StartDisk first disk of the round-robin sweep (the Fig. 3 disk
  ///        order is arbitrary; multi-processor runs stagger it so
  ///        processors cluster different disks at the same time).
  Schedule schedule(const IterationGraph &Graph, unsigned StartDisk = 0) const;

  /// The same, for callers that pass along the subset they built \p Graph
  /// over (empty for a whole-space graph). Throws std::invalid_argument
  /// when \p Subset is not \p Graph's member list.
  Schedule schedule(const IterationGraph &Graph,
                    const std::vector<GlobalIter> &Subset,
                    unsigned StartDisk) const;

  /// The core Fig. 3 loop over explicit disk masks: \p Masks[g] is the set
  /// of disks iteration g touches; the iterations scheduled are those
  /// \p Graph spans, as in schedule(). Exposed for replaying published
  /// examples (Fig. 4) and for testing.
  /// \param RoundsOut when non-null receives the number of while-loop
  ///        rounds used.
  /// \param RoundStatsOut when non-null receives one entry per round
  ///        (telemetry: ready-queue depth and progress).
  static Schedule
  scheduleMasked(const std::vector<uint64_t> &Masks,
                 const IterationGraph &Graph, unsigned NumDisks,
                 unsigned *RoundsOut = nullptr, unsigned StartDisk = 0,
                 std::vector<SchedulerRoundStats> *RoundStatsOut = nullptr);

  /// Number of while-loop rounds the last schedule() call needed (1 when
  /// dependences never block a disk pass; grows with dependence pressure).
  unsigned lastRounds() const { return Rounds; }

  /// Per-round telemetry of the last schedule() call.
  const std::vector<SchedulerRoundStats> &lastRoundStats() const {
    return RoundStats;
  }

  /// Bitmask of disks iteration \p G touches.
  uint64_t diskMask(GlobalIter G) const { return Mask[G]; }

private:
  const DiskLayout &Layout;
  std::vector<uint64_t> Mask;
  mutable unsigned Rounds = 0;
  mutable std::vector<SchedulerRoundStats> RoundStats;
};

} // namespace dra

#endif // DRA_CORE_DISKREUSESCHEDULER_H
