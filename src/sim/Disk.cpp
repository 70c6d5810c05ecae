//===- sim/Disk.cpp - One simulated disk (I/O node) ------------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "sim/Disk.h"

#include <algorithm>
#include <cassert>

using namespace dra;

/// Simulated milliseconds to trace-timeline microseconds: one trace
/// microsecond per simulated microsecond, so Perfetto's "ms" display shows
/// simulated milliseconds directly.
static double simUs(double Ms) { return Ms * 1000.0; }

Disk::Disk(unsigned Id, const DiskParams &Params, PowerPolicyKind Policy,
           EventTracer *Trace, uint64_t TracePid, DiskTimeline *Timeline)
    : Id(Id), Model(Params, Policy), Trace(Trace), TracePid(TracePid),
      TL(Timeline) {}

size_t Disk::entryIndex(const AttribKey &Key) {
  if (LastIdx == NoEntry)
    return S.Attrib.indexOf(Key);
  size_t Before = S.Attrib.size();
  size_t I = S.Attrib.indexOf(Key, LastIdx);
  if (S.Attrib.size() != Before && LastIdx >= I)
    ++LastIdx; // The insertion moved the previous request's entry up.
  return I;
}

void Disk::chargeGap(const IdleOutcome &O, double GapStartMs, double GapMs,
                     size_t NextIdx) {
  const DiskParams &Params = params();
  S.EnergyJ += O.GapEnergyJ + O.ReadyEnergyJ;
  S.IdleMsTotal += GapMs;
  S.IdleHist.addSample(GapMs / 1000.0);
  S.SpinDowns += O.SpinDowns;
  S.SpinUps += O.SpinUps;
  S.RpmSteps += O.RpmSteps;

  // The entries — not S.Ledger — receive every gap charge; finalize()
  // folds them into the ledger, so the closure invariant is exact by
  // construction. The in-gap energy arrives pre-split by category (the
  // IdleOutcome fields, each the sum of its slices) and splits half/half
  // between the bounding requests' entries (halving is exact in
  // IEEE-754); a warm-up gap has no previous bound, so that half falls to
  // the unattributed key, which sorts after every provenance key and so
  // never moves the next bound's entry. Ready energy belongs wholly to the
  // arriving request: charged during an actual stall it is the ready-delay
  // penalty, while stall-free ready energy is a compiler-hidden proactive
  // spin-up (the only zero-delay case, see TpmPolicy.cpp).
  size_t PrevIdx = LastIdx;
  if (PrevIdx == NoEntry) {
    PrevIdx = entryIndex(AttribKey());
    assert(PrevIdx >= NextIdx && "warm-up insertion moved the next bound");
  }
  EnergyLedger &Prev = S.Attrib.entry(PrevIdx).Energy;
  EnergyLedger &Next = S.Attrib.entry(NextIdx).Energy;
  for (const auto &[IdleRpm, Joules] : O.IdleByRpmJ) {
    Prev.IdleByRpmJ[IdleRpm] += Joules * 0.5;
    Next.IdleByRpmJ[IdleRpm] += Joules * 0.5;
  }
  // Most gaps carry idle dwell only; one combined test keeps the three
  // spin/step charges off the common path.
  if (O.SpinDownEnergyJ != 0.0 || O.StandbyEnergyJ != 0.0 ||
      O.RpmStepEnergyJ != 0.0) {
    for (EnergyLedger *Side : {&Prev, &Next}) {
      Side->SpinDownJ += O.SpinDownEnergyJ * 0.5;
      Side->StandbyJ += O.StandbyEnergyJ * 0.5;
      Side->RpmStepJ += O.RpmStepEnergyJ * 0.5;
    }
  }
  if (O.ReadyEnergyJ != 0.0) {
    if (O.ReadyDelayMs > 0)
      Next.ReadyPenaltyJ += O.ReadyEnergyJ;
    else
      Next.SpinUpJ += O.ReadyEnergyJ;
  }

  // Classify the gap against the TPM break-even time (Sec. 3). Full-speed
  // idle joules inside sub-break-even gaps are the missed opportunity:
  // gaps too short for any reactive policy to exploit.
  bool BelowBreakEven = GapMs < Params.TpmBreakEvenS * 1000.0;
  double MissedJ = 0.0;
  if (BelowBreakEven) {
    ++S.GapsBelowBreakEven;
    S.IdleMsBelowBreakEven += GapMs;
    auto FullIdle = O.IdleByRpmJ.find(Params.MaxRpm);
    if (FullIdle != O.IdleByRpmJ.end()) {
      MissedJ = FullIdle->second;
      S.MissedOpportunityJ += MissedJ;
    }
  } else {
    ++S.GapsAtLeastBreakEven;
    S.IdleMsAtLeastBreakEven += GapMs;
  }

  if (Trace)
    traceGap(GapStartMs, GapMs, O);
  if (TL)
    TL->recordGap(GapStartMs, GapMs, O, Params.MaxRpm, BelowBreakEven,
                  MissedJ);
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
  // (as the "next" bound) and its own service charges go through it.
  size_t EIdx = entryIndex(AttribKey::of(Prov));

  double ReadyDelayMs = 0.0;
  FragmentTiming T = Model.submit(
      ArrivalMs, Offset, Bytes,
      [&](const IdleOutcome &O, double GapStartMs, double GapMs) {
        chargeGap(O, GapStartMs, GapMs, EIdx);
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
    TL->recordQueueWait(ArrivalMs, T.ServiceStartMs);
    TL->recordService(T.ServiceStartMs, Svc, SvcJ, IsWrite, Bytes);
  }

  // Service charges go to the entry; finalize() folds it into S.Ledger.
  AttribEntry &E = S.Attrib.entry(EIdx);
  (IsWrite ? E.Energy.ActiveWriteJ : E.Energy.ActiveReadJ) += SvcJ;
  E.BusyMs += Svc;
  if (ReadyDelayMs != 0.0)
    E.ReadyDelayMs += ReadyDelayMs;
  ++E.NumRequests;
  LastIdx = EIdx;

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
    E.Energy.RpmStepJ += RampJ; // Ramp caused by the serviced request.
    if (Trace)
      for (unsigned L = 0; L != T.RampLevels; ++L)
        Trace->instantEvent(TracePid, Id + 1, "rpm-step", "disk",
                            simUs(T.CompletionMs + params().RpmStepTransitionS *
                                                       1000.0 * (L + 1)));
    if (TL)
      TL->recordRamp(T.CompletionMs, PM.rpmTransitionMs(T.RampLevels), RampJ);
    S.RpmSteps += T.RampLevels;
  }
  return T.CompletionMs;
}

void Disk::finalize(double EndMs) {
  // The tail gap has no ending request: its successor half is charged to
  // the unattributed key.
  Model.finalize(EndMs, [&](const IdleOutcome &O, double GapStartMs,
                            double GapMs) {
    chargeGap(O, GapStartMs, GapMs, entryIndex(AttribKey()));
  });
  // Every category charge went to the attribution entries; the ledger is
  // their per-category sum, which makes the auditor's closure invariant
  // exact by construction.
  for (const auto &KV : S.Attrib)
    S.Ledger += KV.second.Energy;
}
