//===- serve/IncrementalScheduler.h - Live tick scheduling -----*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The online serving mode's scheduling core (docs/SERVING.md): iterations
/// of the bound program arrive over timestep ticks, and each tick reorders
/// the arrivals with the same Fig. 3 ready-bucket machinery the batch
/// pipeline uses — a tick is a barrier phase, scheduled exactly like one
/// phase of Pipeline::restructurePerProc (sorted subset, per-subset
/// dependence graph, DiskReuseScheduler::schedule).
///
/// Two things make it incremental:
///
///  - Dependence gating. An arrival becomes *eligible* only once every
///    predecessor in the whole-program dependence DAG has been scheduled
///    (in an earlier tick or earlier in this tick's ascending sweep — edges
///    always point forward in program order, so a sweep co-selects whole
///    chains). Deferred arrivals stay pending and are reconsidered every
///    tick; cross-tick ordering is enforced by the barrier the tick maps
///    to.
///
///  - Live disk state. The scheduler tracks which disks recent ticks
///    touched, predicts which ones the power policy has sent to low power,
///    and starts the next tick's round-robin disk sweep at the primary disk
///    of the last scheduled iteration — clustering new work on the disk
///    that is certainly spun up instead of waking a cold one.
///
/// A per-tick work budget bounds how many iterations one tick may place
/// (0 = unbounded); the eligible prefix beyond the budget carries over.
/// With one tick, an unbounded budget and start disk 0 the emitted order,
/// rounds and round-provenance are byte-identical to the batch compile —
/// the differential tests and the online-replay CI lane hold the serving
/// mode to that contract.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SERVE_INCREMENTALSCHEDULER_H
#define DRA_SERVE_INCREMENTALSCHEDULER_H

#include "analysis/IterationGraph.h"
#include "core/DiskReuseScheduler.h"
#include "ir/TileAccessTable.h"
#include "layout/DiskLayout.h"

#include <cstdint>
#include <vector>

namespace dra {

/// What one tick placed and what it left behind.
struct TickResult {
  /// Iterations scheduled this tick, in execution order.
  std::vector<GlobalIter> Order;
  /// RoundOf[i] is the Fig. 3 round that placed Order[i] (all zero for
  /// non-restructuring schemes).
  std::vector<uint32_t> RoundOf;
  /// Fig. 3 while-loop rounds this tick's schedule() call needed (0 when
  /// nothing was scheduled or restructuring is off).
  unsigned Rounds = 0;
  /// First disk of this tick's round-robin sweep.
  unsigned StartDisk = 0;
  /// Arrivals still pending after the tick (budget- or dependence-deferred).
  uint64_t Deferred = 0;
  /// Disks predicted to sit in low power when the tick began (idle for at
  /// least the scheduler's idle-tick threshold).
  unsigned LowPowerDisks = 0;
};

/// Maintains the pending-arrival set and live per-disk state between ticks.
class IncrementalScheduler {
public:
  /// All references must outlive the scheduler; they are the batch
  /// pipeline's own passes (Pipeline::table/layout/graph/scheduler), so the
  /// online mode schedules with exactly the batch machinery.
  /// \param Restructure apply the Fig. 3 reordering (schemeRestructures);
  ///        when false a tick emits its eligible arrivals in ascending
  ///        order, matching the batch original-order schedules.
  /// \param IdleTicks ticks without I/O after which a disk is predicted to
  ///        have dropped to low power (telemetry + start-disk steering).
  IncrementalScheduler(const TileAccessTable &Table, const DiskLayout &Layout,
                       const IterationGraph &Graph,
                       const DiskReuseScheduler &Scheduler, bool Restructure,
                       uint64_t IdleTicks = 2);

  /// Registers the arrival of iteration \p G. Returns false (and ignores
  /// the call) when \p G already arrived; the caller reports the protocol
  /// violation.
  bool arrive(GlobalIter G);

  /// Runs one tick: selects up to \p Budget eligible arrivals (0 = all) in
  /// ascending global order, schedules them as one barrier phase, and
  /// advances the live disk state. \p Tick is the frame's declared tick
  /// value (drives the idle/low-power prediction).
  TickResult runTick(uint64_t Budget, uint64_t Tick);

  /// Arrivals not yet scheduled.
  uint64_t backlog() const { return Pending.size(); }

  /// True once \p G has been placed by some tick.
  bool scheduled(GlobalIter G) const { return Done[G]; }

  /// Disks predicted to be in low power at \p Tick: never touched, or idle
  /// for at least the construction-time idle-tick threshold.
  unsigned predictedLowPowerDisks(uint64_t Tick) const;

private:
  const TileAccessTable &Table;
  const DiskLayout &Layout;
  const IterationGraph &Graph;
  const DiskReuseScheduler &Scheduler;
  bool Restructure;
  uint64_t IdleTicks;

  std::vector<GlobalIter> Pending; ///< Arrived, unscheduled; kept sorted.
  std::vector<uint32_t> RemainingPreds; ///< Unscheduled predecessor counts.
  std::vector<char> Arrived;
  std::vector<char> Done;
  /// LastActive[d] is the last tick that scheduled work touching disk d;
  /// Never until the disk is first touched.
  static constexpr uint64_t Never = ~uint64_t(0);
  std::vector<uint64_t> LastActive;
  unsigned NextStartDisk = 0;
};

} // namespace dra

#endif // DRA_SERVE_INCREMENTALSCHEDULER_H
