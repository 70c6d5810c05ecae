//===- core/Schedule.h - Iteration execution orders -------------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Schedule is a total execution order over (a subset of) a program's
/// iterations — the output of the disk-reuse restructurer. It also exposes
/// the locality metrics the restructuring optimizes: how often consecutive
/// iterations switch disks, and how many distinct visits each disk receives
/// (perfect disk reuse visits each disk exactly once, Sec. 5).
///
//===----------------------------------------------------------------------===//

#ifndef DRA_CORE_SCHEDULE_H
#define DRA_CORE_SCHEDULE_H

#include "ir/TileAccessTable.h"
#include "layout/DiskLayout.h"

#include <cstdint>
#include <vector>

namespace dra {

/// Disk-locality metrics of an execution order.
struct ScheduleLocality {
  /// Times the set of disks touched by consecutive iterations changed.
  uint64_t DiskSwitches = 0;
  /// Total number of contiguous single-disk visits summed over disks. The
  /// restructurer drives this toward the number of disks in use.
  uint64_t DiskVisits = 0;
  /// Number of distinct disks ever touched.
  unsigned DisksUsed = 0;
};

/// One processor's (or the whole program's) iteration order.
struct Schedule {
  std::vector<GlobalIter> Order;
  /// RoundOf[i], when non-empty, is the zero-based Fig. 3 scheduling round
  /// that placed Order[i] (provenance for the attribution subsystem,
  /// sim/Attribution.h). Empty for orders not produced by the scheduler.
  std::vector<uint32_t> RoundOf;

  /// Computes locality metrics of this order under \p Layout from the
  /// precomputed access \p Table, attributing each iteration to the primary
  /// disk of its first tile access.
  ScheduleLocality locality(const TileAccessTable &Table,
                            const DiskLayout &Layout) const;
};

} // namespace dra

#endif // DRA_CORE_SCHEDULE_H
