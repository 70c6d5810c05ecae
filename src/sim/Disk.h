//===- sim/Disk.h - One simulated disk (I/O node) ---------------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One disk (I/O node): the DiskTimingModel (sim/DiskTimingModel.h) decides
/// every service time, idle-gap outcome and power-state change, and the
/// disk charges what the model reports to its accounting sinks — DiskStats,
/// the attribution entries (folded into the energy ledger at finalize), the
/// event tracer and the disk's own timeline slot.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SIM_DISK_H
#define DRA_SIM_DISK_H

#include "obs/Timeline.h"
#include "obs/Tracer.h"
#include "sim/Attribution.h"
#include "sim/DiskTimingModel.h"
#include "sim/EnergyLedger.h"
#include "support/Statistics.h"

#include <cstddef>
#include <cstdint>
#include <utility>

namespace dra {

/// Per-disk simulation counters.
struct DiskStats {
  uint64_t NumRequests = 0;
  double BusyMs = 0.0;        ///< Sum of service times (the paper's I/O time).
  double EnergyJ = 0.0;       ///< Integrated energy.
  double ResponseSumMs = 0.0; ///< Sum of (completion - arrival).
  double IdleMsTotal = 0.0;
  unsigned SpinDowns = 0;
  unsigned SpinUps = 0;
  unsigned RpmSteps = 0;
  DurationHistogram IdleHist{1e-3, 4.0, 12};
  /// EnergyJ attributed to named categories; Ledger.totalJ() == EnergyJ
  /// (verify/EnergyAuditor and the ledger tests enforce it).
  EnergyLedger Ledger;

  // Idle-gap analytics against DiskParams::TpmBreakEvenS (Sec. 3): how
  // many gaps were long enough for a spin-down to pay off, and how much
  // time/energy went into the ones that were not. Recorded at gap
  // accounting time because raw gap lengths are not retained (IdleHist
  // keeps buckets only).
  uint64_t GapsBelowBreakEven = 0;
  uint64_t GapsAtLeastBreakEven = 0;
  double IdleMsBelowBreakEven = 0.0;
  double IdleMsAtLeastBreakEven = 0.0;
  /// Full-speed idle joules burned inside sub-break-even gaps — the
  /// "missed opportunity" no reactive policy can recover and the paper's
  /// restructuring exists to shrink.
  double MissedOpportunityJ = 0.0;

  /// Source attribution of the ledger (sim/Attribution.h): energy/time per
  /// (nest, reference, round) key. Every disk records it, and Ledger is its
  /// per-category sum; an engine run without attribution drops it from
  /// the results (SimResults::AttributionEnabled).
  AttributionMap Attrib;
};

/// A single simulated disk.
class Disk {
public:
  /// \param Trace optional event tracer; when non-null the disk emits its
  ///        timeline (service/idle spans, spin and RPM instants) as thread
  ///        \p Id + 1 of process \p TracePid, stamped in simulated time.
  ///        Purely observational: results are identical with and without.
  /// \param Timeline optional timeline slot of this disk (the run's
  ///        Disks[Id], obs/Timeline.h); the disk is its only writer and
  ///        buckets its power states, energy categories and throughput
  ///        into simulated-time windows. Purely observational: results are
  ///        identical with and without.
  Disk(unsigned Id, const DiskParams &Params, PowerPolicyKind Policy,
       EventTracer *Trace = nullptr, uint64_t TracePid = 0,
       DiskTimeline *Timeline = nullptr);

  unsigned id() const { return Id; }
  unsigned currentRpm() const { return Model.currentRpm(); }
  double busyUntilMs() const { return Model.busyUntilMs(); }
  const DiskStats &stats() const { return S; }
  /// Moves the stats out once the disk is finalized and no longer used.
  DiskStats takeStats() { return std::move(S); }

  /// Services a request arriving at \p ArrivalMs for \p Bytes at disk
  /// offset \p Offset. Returns the completion time. Requests must be
  /// submitted in non-decreasing arrival order (FCFS). Every joule and
  /// millisecond is charged to the attribution entry of the request's
  /// compiler provenance \p Prov.
  double submit(double ArrivalMs, uint64_t Offset, uint64_t Bytes,
                bool IsWrite, Provenance Prov = Provenance());

  /// Integrates the trailing idle period up to \p EndMs and folds the
  /// attribution entries into the ledger. Must be called exactly once,
  /// after the last submit.
  void finalize(double EndMs);

private:
  unsigned Id;
  DiskTimingModel Model;
  DiskStats S;
  EventTracer *Trace;
  uint64_t TracePid;
  DiskTimeline *TL;
  /// Position in S.Attrib of the most recent serviced request's entry —
  /// the "previous bound" of the next idle gap; NoEntry until the first
  /// submit. entryIndex() keeps it on its entry across insertions.
  static constexpr size_t NoEntry = ~size_t(0);
  size_t LastIdx = NoEntry;

  /// Position in S.Attrib of \p Key's entry, inserted when new.
  size_t entryIndex(const AttribKey &Key);

  const DiskParams &params() const { return Model.params(); }

  /// Charges the idle gap [GapStartMs, GapStartMs + GapMs), evaluated by
  /// the model as \p O, to every sink. \p NextIdx is the S.Attrib position
  /// of the request ending the gap (the unattributed entry for the
  /// finalize tail).
  void chargeGap(const IdleOutcome &O, double GapStartMs, double GapMs,
                 size_t NextIdx);

  /// Emits the idle span plus spin/RPM instant events for one gap
  /// [GapStartMs, GapStartMs + GapMs) (tracer known non-null).
  void traceGap(double GapStartMs, double GapMs, const IdleOutcome &O) const;
};

} // namespace dra

#endif // DRA_SIM_DISK_H
