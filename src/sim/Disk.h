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
/// the energy ledger or attribution map, the event tracer and the timeline
/// recorder.
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

#include <cstdint>

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
  /// (nest, reference, round) key. Populated only when the disk was built
  /// with attribution enabled; summing entries per category reproduces
  /// Ledger exactly (verify/EnergyAuditor).
  AttributionMap Attrib;

  /// Associative merge of two partial views of the same disk (or an
  /// all-disks rollup): counters and times sum, histograms/ledgers/maps
  /// merge category- and key-wise.
  void merge(const DiskStats &O) {
    NumRequests += O.NumRequests;
    BusyMs += O.BusyMs;
    EnergyJ += O.EnergyJ;
    ResponseSumMs += O.ResponseSumMs;
    IdleMsTotal += O.IdleMsTotal;
    SpinDowns += O.SpinDowns;
    SpinUps += O.SpinUps;
    RpmSteps += O.RpmSteps;
    IdleHist.merge(O.IdleHist);
    Ledger.merge(O.Ledger);
    GapsBelowBreakEven += O.GapsBelowBreakEven;
    GapsAtLeastBreakEven += O.GapsAtLeastBreakEven;
    IdleMsBelowBreakEven += O.IdleMsBelowBreakEven;
    IdleMsAtLeastBreakEven += O.IdleMsAtLeastBreakEven;
    MissedOpportunityJ += O.MissedOpportunityJ;
    mergeAttribution(Attrib, O.Attrib);
  }
};

/// A single simulated disk.
class Disk {
public:
  /// \param Trace optional event tracer; when non-null the disk emits its
  ///        timeline (service/idle spans, spin and RPM instants) as thread
  ///        \p Id + 1 of process \p TracePid, stamped in simulated time.
  ///        Purely observational: results are identical with and without.
  /// \param Attribution when true the disk also charges every joule to its
  ///        originating (nest, reference, round) key in DiskStats::Attrib,
  ///        and finalize() derives the ledger as the per-category sum of
  ///        the entries. Timings, counters and total energy are identical
  ///        with and without; ledger categories can differ only by FP
  ///        reassociation (the same charges, summed in a different order).
  /// \param Timeline optional windowed time-series recorder
  ///        (obs/Timeline.h); the disk buckets its power states, energy
  ///        categories and throughput into simulated-time windows of the
  ///        recorder's current run. Purely observational: results are
  ///        identical with and without.
  Disk(unsigned Id, const DiskParams &Params, PowerPolicyKind Policy,
       EventTracer *Trace = nullptr, uint64_t TracePid = 0,
       bool Attribution = false, TimelineRecorder *Timeline = nullptr);

  unsigned id() const { return Id; }
  unsigned currentRpm() const { return Model.currentRpm(); }
  double busyUntilMs() const { return Model.busyUntilMs(); }
  const DiskStats &stats() const { return S; }

  /// Services a request arriving at \p ArrivalMs for \p Bytes at disk
  /// offset \p Offset. Returns the completion time. Requests must be
  /// submitted in non-decreasing arrival order (FCFS). \p Prov is the
  /// request's compiler provenance, consumed only when attribution is on.
  double submit(double ArrivalMs, uint64_t Offset, uint64_t Bytes,
                bool IsWrite, Provenance Prov = Provenance());

  /// Integrates the trailing idle period up to \p EndMs. Must be called
  /// exactly once, after the last submit.
  void finalize(double EndMs);

private:
  unsigned Id;
  DiskTimingModel Model;
  DiskStats S;
  EventTracer *Trace;
  uint64_t TracePid;
  bool Attribution;
  TimelineRecorder *TL;
  /// Attribution entry of the most recent serviced request — the
  /// "previous bound" of the next idle gap. Null until the first submit;
  /// map nodes are pointer-stable, so the pointer stays valid for the
  /// disk's lifetime. LastMix is the entry's key hash (keyMix), kept
  /// alongside so gap accounting never recomputes it.
  AttribEntry *LastE = nullptr;
  uint32_t LastMix = 0;

  /// Direct-mapped cache over S.Attrib: traces interleave a handful of
  /// references per iteration, so consecutive requests cycle through a
  /// few keys rather than arriving in long single-key runs. Hashing the
  /// key to a fixed slot keeps the hit path at one predictable compare
  /// (no scan whose match position varies) and the steady state free of
  /// map walks; a colliding pair of hot keys degrades to per-request
  /// walks but stays correct.
  struct KeySlot {
    AttribKey Key;
    AttribEntry *Entry = nullptr; ///< null marks the slot empty.
    uint32_t Mix = 0;             ///< keyMix(Key), cached on refill.
  };
  static constexpr unsigned NumKeySlots = 16;
  KeySlot Slots[NumKeySlots];

  /// Cheap per-request mix: the keys alive at once on a disk share a nest
  /// and neighbouring rounds with small ref ids, so low-bit arithmetic
  /// separates them; a collision only costs the map-walk fallback.
  static unsigned slotIndex(const AttribKey &K) {
    return (K.Nest * 3 + K.Ref + K.Round * 5) % NumKeySlots;
  }

  /// Hash of one key for the gap-pair table. Deterministic functions of
  /// the key only — never of heap addresses — so accumulator flush
  /// timing, and with it the FP summation order of attributed charges,
  /// is identical across runs (the sweep runner's byte-identity
  /// contract, docs/SWEEPS.md).
  static uint32_t keyMix(const AttribKey &K) {
    return K.Nest * 0x9E3779B1u + K.Ref * 0x85EBCA77u + K.Round * 0xC2B2AE3Du;
  }

  /// The cache slot of \p Key, refilled from the map on a miss.
  KeySlot &slotFor(const AttribKey &Key) {
    KeySlot &KS = Slots[slotIndex(Key)];
    if (!KS.Entry || !(KS.Key == Key)) {
      KS.Key = Key;
      KS.Entry = &S.Attrib[Key];
      KS.Mix = keyMix(Key);
    }
    return KS;
  }

  /// Pending in-gap charges for one unordered pair of bounding entries.
  /// The half/half split is symmetric in the bounds, so sums accumulate
  /// per unordered pair; a gap whose bounds cycle through a few entries
  /// (interleaved references produce {A,B}, {B,C}, {C,A}, ...) keeps each
  /// pair's accumulator hot in a direct-mapped slot, and flushGapAccum()
  /// charges each side half of the sums only on eviction, overflow or
  /// finalize. Halving is exact in IEEE-754, so a pair (E, E) receiving
  /// both halves gets the full charge bit-for-bit.
  struct GapAccum {
    static constexpr unsigned MaxIdle = 8;
    AttribEntry *A = nullptr; ///< null marks the accumulator empty.
    AttribEntry *B = nullptr;
    unsigned NumIdle = 0;
    unsigned IdleRpm[MaxIdle];
    double IdleJ[MaxIdle];
    double SpinDownJ = 0.0;
    double StandbyJ = 0.0;
    double RpmStepJ = 0.0;
  };
  static constexpr unsigned NumPairSlots = 64;
  GapAccum Pairs[NumPairSlots];

  /// Slot of the unordered pair with key hashes \p MixA, \p MixB:
  /// addition keeps the hash symmetric without collapsing (E, E) pairs
  /// to one slot the way xor would; the Fibonacci multiply spreads the
  /// already-mixed sums across the top bits.
  static unsigned pairIndex(uint32_t MixA, uint32_t MixB) {
    static_assert((NumPairSlots & (NumPairSlots - 1)) == 0,
                  "top-bits hash needs a power-of-two table");
    uint64_t Sum = uint64_t(MixA) + uint64_t(MixB);
    return unsigned((Sum * 0x9E3779B97F4A7C15ull) >> 58) % NumPairSlots;
  }

  /// Charges half of \p GA's sums to each bounding entry and empties it.
  void flushGapAccum(GapAccum &GA);

  const DiskParams &params() const { return Model.params(); }

  /// Charges the idle gap [GapStartMs, GapStartMs + GapMs), evaluated by
  /// the model as \p O, to every sink.
  /// \param NextE attribution entry of the request ending the gap (the
  ///        unattributed entry for the finalize tail; null when
  ///        attribution is off); \p NextMix is its keyMix.
  void chargeGap(const IdleOutcome &O, double GapStartMs, double GapMs,
                 AttribEntry *NextE, uint32_t NextMix);

  /// Emits the idle span plus spin/RPM instant events for one gap
  /// [GapStartMs, GapStartMs + GapMs) (tracer known non-null).
  void traceGap(double GapStartMs, double GapMs, const IdleOutcome &O) const;
};

} // namespace dra

#endif // DRA_SIM_DISK_H
