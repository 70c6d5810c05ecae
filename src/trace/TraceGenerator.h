//===- trace/TraceGenerator.h - Schedule -> I/O trace -----------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns a (possibly restructured, possibly parallelized) iteration schedule
/// into the disk I/O request trace the simulator consumes — the trace
/// generator of Sec. 7.1. Every array reference of every iteration becomes
/// one tile-sized request; the iteration's compute estimate becomes the
/// think time of its first request.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_TRACE_TRACEGENERATOR_H
#define DRA_TRACE_TRACEGENERATOR_H

#include "ir/Program.h"
#include "ir/TileAccessTable.h"
#include "layout/DiskLayout.h"
#include "trace/Trace.h"

#include <vector>

namespace dra {

/// Per-processor iteration schedules plus barrier phases.
struct ScheduledWork {
  /// Work[p] is processor p's iterations in execution order.
  std::vector<std::vector<GlobalIter>> PerProc;
  /// PhaseOf[g], when non-empty, is the barrier phase of iteration g.
  /// Empty means a single phase (no barriers).
  std::vector<uint32_t> PhaseOf;
  /// RoundOf[g], when non-empty, is the zero-based Fig. 3 scheduling round
  /// that placed iteration g (core/Schedule.h). Empty means round 0
  /// everywhere (non-restructured schedules). Carried into each request's
  /// Provenance tag by the trace generator.
  std::vector<uint32_t> RoundOf;
};

/// Generates traces from schedules.
class TraceGenerator {
public:
  /// \param BlockBytes page-block size of the emitted requests (tiles must
  ///        be a whole number of blocks).
  /// \param Table the precomputed access table for \p Space (non-null);
  ///        every request comes from one entry of its rows.
  TraceGenerator(const Program &P, const IterationSpace &Space,
                 const DiskLayout &Layout, uint64_t BlockBytes,
                 const TileAccessTable *Table);

  /// Builds the trace for \p Work. Nominal arrival times assume full-speed
  /// service with no contention or power-mode penalties.
  Trace generate(const ScheduledWork &Work) const;

  /// Convenience: single-processor trace in the given order.
  Trace generateSingle(const std::vector<GlobalIter> &Order) const;

  /// Nominal service time estimate used for arrival-time computation, in
  /// milliseconds (seek + rotation + transfer at full RPM).
  double nominalServiceMs(uint64_t Bytes) const;

private:
  const Program &Prog;
  const IterationSpace &Space;
  const DiskLayout &Layout;
  uint64_t BlockBytes;
  const TileAccessTable *Table;
};

} // namespace dra

#endif // DRA_TRACE_TRACEGENERATOR_H
