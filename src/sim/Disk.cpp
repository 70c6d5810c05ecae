//===- sim/Disk.cpp - One simulated disk (I/O node) ------------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "sim/Disk.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace dra;

/// Simulated milliseconds to trace-timeline microseconds: one trace
/// microsecond per simulated microsecond, so Perfetto's "ms" display shows
/// simulated milliseconds directly.
static double simUs(double Ms) { return Ms * 1000.0; }

Disk::Disk(unsigned Id, const DiskParams &Params, PowerPolicyKind Policy,
           EventTracer *Trace, uint64_t TracePid, bool Attribution,
           TimelineRecorder *Timeline)
    : Id(Id), Model(Params, Policy, /*WantSegments=*/Timeline != nullptr),
      Trace(Trace), TracePid(TracePid), Attribution(Attribution),
      TL(Timeline) {}

void Disk::flushGapAccum(GapAccum &GA) {
  // Halving is exact in IEEE-754 (scaling by a power of two), so the two
  // half charges reproduce each category's accumulated sum bit-for-bit —
  // including when A == B and the same entry receives both halves. The
  // zero guards skip categories the active policy never produced (e.g.
  // everything but idle dwell under PowerPolicyKind::None).
  if (!GA.A)
    return;
  for (AttribEntry *Side : {GA.A, GA.B}) {
    EnergyLedger &L = Side->Energy;
    for (unsigned I = 0; I != GA.NumIdle; ++I)
      L.IdleByRpmJ[GA.IdleRpm[I]] += GA.IdleJ[I] * 0.5;
    if (GA.SpinDownJ != 0.0)
      L.SpinDownJ += GA.SpinDownJ * 0.5;
    if (GA.StandbyJ != 0.0)
      L.StandbyJ += GA.StandbyJ * 0.5;
    if (GA.RpmStepJ != 0.0)
      L.RpmStepJ += GA.RpmStepJ * 0.5;
  }
  GA.A = GA.B = nullptr;
  GA.NumIdle = 0;
  GA.SpinDownJ = GA.StandbyJ = GA.RpmStepJ = 0.0;
}

void Disk::chargeGap(const IdleOutcome &O, double GapStartMs, double GapMs,
                     AttribEntry *NextE, uint32_t NextMix) {
  const DiskParams &Params = params();
  S.EnergyJ += O.GapEnergyJ + O.ReadyEnergyJ;
  S.IdleMsTotal += GapMs;
  S.IdleHist.addSample(GapMs / 1000.0);
  S.SpinDowns += O.SpinDowns;
  S.SpinUps += O.SpinUps;
  S.RpmSteps += O.RpmSteps;

  // Ledger attribution. The in-gap energy arrives pre-split by the policy
  // (IdleOutcome breakdown fields, which must sum to GapEnergyJ); ready
  // energy charged during an actual stall is the ready-delay penalty,
  // while stall-free ready energy is a compiler-hidden proactive spin-up
  // (the only zero-delay case, see TpmPolicy.cpp).
  assert(std::fabs(O.gapBreakdownJ() - O.GapEnergyJ) <=
             1e-9 * std::max(1.0, std::fabs(O.GapEnergyJ)) &&
         "policy gap-energy breakdown must sum to GapEnergyJ");
  if (!Attribution) {
    for (const auto &[IdleRpm, Joules] : O.IdleByRpmJ)
      S.Ledger.addIdle(IdleRpm, Joules);
    S.Ledger.SpinDownJ += O.SpinDownEnergyJ;
    S.Ledger.StandbyJ += O.StandbyEnergyJ;
    S.Ledger.RpmStepJ += O.RpmStepEnergyJ;
    if (O.ReadyDelayMs > 0)
      S.Ledger.ReadyPenaltyJ += O.ReadyEnergyJ;
    else
      S.Ledger.SpinUpJ += O.ReadyEnergyJ;
  } else {
    // With attribution on, the entries — not S.Ledger — receive every
    // gap charge; finalize() folds them back into the ledger, so the
    // closure invariant is exact by construction and the hot path does
    // one set of charges instead of two. In-gap energy splits half/half
    // between the bounding requests (a missing previous bound falls to
    // the unattributed key); the pending sums live in the pair's
    // direct-mapped accumulator and reach the entries only on eviction.
    // Ready energy belongs wholly to the arriving request, split
    // stalled/hidden as in the ledger branch above.
    AttribEntry *PrevE = LastE;
    uint32_t PrevMix = LastMix;
    if (!PrevE) {
      const KeySlot &KS = slotFor(AttribKey());
      PrevE = KS.Entry;
      PrevMix = KS.Mix;
    }
    // Normalized (min, max) order makes the unordered pair a single
    // compare and keeps (A,B)/(B,A) gaps in one accumulator. The order
    // only canonicalizes identity checks within this run; the slot index
    // comes from the key mixes, so flush timing is address-independent.
    AttribEntry *Lo = PrevE < NextE ? PrevE : NextE;
    AttribEntry *Hi = PrevE < NextE ? NextE : PrevE;
    GapAccum &GA = Pairs[pairIndex(PrevMix, NextMix)];
    if (GA.A != Lo || GA.B != Hi) {
      flushGapAccum(GA);
      GA.A = Lo;
      GA.B = Hi;
    }
    for (const auto &[IdleRpm, Joules] : O.IdleByRpmJ) {
      unsigned I = 0;
      while (I != GA.NumIdle && GA.IdleRpm[I] != IdleRpm)
        ++I;
      if (I == GA.NumIdle) {
        if (GA.NumIdle == GapAccum::MaxIdle) {
          flushGapAccum(GA); // Overflow: drain, then restart the same pair.
          GA.A = Lo;
          GA.B = Hi;
          I = 0;
        }
        GA.IdleRpm[I] = IdleRpm;
        GA.IdleJ[I] = 0.0;
        ++GA.NumIdle;
      }
      GA.IdleJ[I] += Joules;
    }
    // Most gaps carry idle dwell only; one combined test keeps the three
    // spin/step accumulations off the common path.
    if (O.SpinDownEnergyJ != 0.0 || O.StandbyEnergyJ != 0.0 ||
        O.RpmStepEnergyJ != 0.0) {
      GA.SpinDownJ += O.SpinDownEnergyJ;
      GA.StandbyJ += O.StandbyEnergyJ;
      GA.RpmStepJ += O.RpmStepEnergyJ;
    }
    if (O.ReadyEnergyJ != 0.0) {
      EnergyLedger &L = NextE->Energy;
      if (O.ReadyDelayMs > 0)
        L.ReadyPenaltyJ += O.ReadyEnergyJ;
      else
        L.SpinUpJ += O.ReadyEnergyJ;
    }
  }

  // Classify the gap against the TPM break-even time (Sec. 3). Full-speed
  // idle joules inside sub-break-even gaps are the missed opportunity:
  // gaps too short for any reactive policy to exploit.
  double BreakEvenMs = Params.TpmBreakEvenS * 1000.0;
  if (GapMs < BreakEvenMs) {
    ++S.GapsBelowBreakEven;
    S.IdleMsBelowBreakEven += GapMs;
    auto FullIdle = O.IdleByRpmJ.find(Params.MaxRpm);
    if (FullIdle != O.IdleByRpmJ.end())
      S.MissedOpportunityJ += FullIdle->second;
  } else {
    ++S.GapsAtLeastBreakEven;
    S.IdleMsAtLeastBreakEven += GapMs;
  }

  if (Trace)
    traceGap(GapStartMs, GapMs, O);
  if (TL)
    TL->recordGap(Id, GapStartMs, GapMs, O, Params.MaxRpm, BreakEvenMs);
}

void Disk::traceGap(double GapStartMs, double GapMs,
                    const IdleOutcome &O) const {
  uint64_t Tid = Id + 1;
  Trace->completeEvent(TracePid, Tid, "idle", "disk", simUs(GapStartMs),
                       simUs(GapMs),
                       {TraceArg::num("gap_s", GapMs / 1000.0),
                        TraceArg::num("energy_j", O.GapEnergyJ),
                        TraceArg::num("end_rpm", uint64_t(O.EndRpm))});
  // Instant placement within the gap is model-derived but approximate for
  // DRPM steps (OBSERVABILITY.md); the *counts* match DiskStats exactly.
  for (unsigned I = 0; I != O.SpinDowns; ++I) {
    double AtMs =
        GapStartMs + std::min(params().TpmBreakEvenS * 1000.0, GapMs);
    Trace->instantEvent(TracePid, Tid, "spin-down", "disk", simUs(AtMs));
  }
  for (unsigned I = 0; I != O.SpinUps; ++I)
    Trace->instantEvent(TracePid, Tid, "spin-up", "disk",
                        simUs(GapStartMs + GapMs));
  for (unsigned I = 0; I != O.RpmSteps; ++I) {
    double AtMs = GapStartMs + GapMs * double(I + 1) / double(O.RpmSteps + 1);
    Trace->instantEvent(TracePid, Tid, "rpm-step", "disk", simUs(AtMs));
  }
}

double Disk::submit(double ArrivalMs, uint64_t Offset, uint64_t Bytes,
                    bool IsWrite, Provenance Prov) {
  // Reads and writes share the timing and power model; IsWrite selects
  // the ledger's active-energy category and names the traced span.
  // Resolve the request's attribution entry once; both the gap it ends
  // (as the "next" bound) and its own service charges go through it. The
  // slot's fields are copied out because chargeGap's warm-up path may
  // refill the same slot for the unattributed key.
  AttribEntry *E = nullptr;
  uint32_t EMix = 0;
  if (Attribution) {
    const KeySlot &KS = slotFor(AttribKey::of(Prov));
    E = KS.Entry;
    EMix = KS.Mix;
  }

  double ReadyDelayMs = 0.0;
  FragmentTiming T = Model.submit(
      ArrivalMs, Offset, Bytes,
      [&](const IdleOutcome &O, double GapStartMs, double GapMs) {
        chargeGap(O, GapStartMs, GapMs, E, EMix);
        ReadyDelayMs = O.ReadyDelayMs;
        if (Trace && O.ReadyDelayMs > 0)
          Trace->completeEvent(TracePid, Id + 1, "wake", "disk",
                               simUs(ArrivalMs), simUs(O.ReadyDelayMs));
      });

  const PowerModel &PM = Model.powerModel();
  double Svc = T.ServiceMs;
  double SvcJ = PM.activePowerW(T.ServiceRpm) * Svc / 1000.0;
  S.EnergyJ += SvcJ;
  S.BusyMs += Svc;
  ++S.NumRequests;
  if (TL) {
    TL->recordQueueWait(Id, ArrivalMs, T.ServiceStartMs);
    TL->recordService(Id, T.ServiceStartMs, Svc, SvcJ, IsWrite, Bytes);
  }

  if (!Attribution) {
    (IsWrite ? S.Ledger.ActiveWriteJ : S.Ledger.ActiveReadJ) += SvcJ;
  } else {
    // Service charges go to the entry; finalize() folds it into S.Ledger.
    (IsWrite ? E->Energy.ActiveWriteJ : E->Energy.ActiveReadJ) += SvcJ;
    E->BusyMs += Svc;
    if (ReadyDelayMs != 0.0)
      E->ReadyDelayMs += ReadyDelayMs;
    ++E->NumRequests;
    LastE = E;
    LastMix = EMix;
  }

  if (Trace) {
    std::vector<TraceArg> Args = {
        TraceArg::num("bytes", Bytes),
        TraceArg::num("rpm", uint64_t(T.ServiceRpm)),
        TraceArg::num("queue_ms", T.ServiceStartMs - ArrivalMs)};
    if (Prov.valid()) {
      // Attribution args (docs/FORMATS.md dra-trace-chrome-v2): which
      // compiler construct this service span belongs to.
      Args.push_back(TraceArg::num("nest", uint64_t(Prov.Nest)));
      Args.push_back(TraceArg::num("ref", uint64_t(Prov.Ref)));
      Args.push_back(TraceArg::num("round", uint64_t(Prov.Round)));
    }
    Trace->completeEvent(TracePid, Id + 1, IsWrite ? "write" : "read", "disk",
                         simUs(T.ServiceStartMs), simUs(Svc),
                         std::move(Args));
  }

  S.ResponseSumMs += T.CompletionMs - ArrivalMs;

  if (T.RampLevels != 0) {
    // The DRPM emergency ramp the serviced request caused; the model has
    // already queued later arrivals behind it.
    double RampJ = PM.rpmTransitionJ(T.ServiceRpm, T.RampToRpm);
    S.EnergyJ += RampJ;
    if (E)
      E->Energy.RpmStepJ += RampJ; // Ramp caused by the serviced request.
    else
      S.Ledger.RpmStepJ += RampJ;
    if (Trace)
      for (unsigned L = 0; L != T.RampLevels; ++L)
        Trace->instantEvent(TracePid, Id + 1, "rpm-step", "disk",
                            simUs(T.CompletionMs + params().RpmStepTransitionS *
                                                       1000.0 * (L + 1)));
    if (TL)
      TL->recordRamp(Id, T.CompletionMs, PM.rpmTransitionMs(T.RampLevels),
                     RampJ);
    S.RpmSteps += T.RampLevels;
  }
  return T.CompletionMs;
}

void Disk::finalize(double EndMs) {
  // The tail gap has no ending request: its successor half is charged to
  // the unattributed key.
  Model.finalize(EndMs, [&](const IdleOutcome &O, double GapStartMs,
                            double GapMs) {
    AttribEntry *TailE = nullptr;
    uint32_t TailMix = 0;
    if (Attribution) {
      const KeySlot &KS = slotFor(AttribKey());
      TailE = KS.Entry;
      TailMix = KS.Mix;
    }
    chargeGap(O, GapStartMs, GapMs, TailE, TailMix);
  });
  // With attribution on, every category charge went to the attribution
  // entries; the ledger is their per-category sum, which makes the
  // auditor's closure invariant exact by construction. Categories can
  // differ from an attribution-off run only by FP reassociation (the
  // charges are identical, summed in a different order).
  if (Attribution) {
    for (GapAccum &GA : Pairs)
      flushGapAccum(GA);
    for (const auto &KV : S.Attrib)
      S.Ledger += KV.second.Energy;
  }
}
