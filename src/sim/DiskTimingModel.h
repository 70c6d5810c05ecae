//===- sim/DiskTimingModel.h - The one disk timing model --------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The only code that computes disk timing: FCFS service, seek/rotation/
/// transfer times, lazy idle-gap evaluation under the power policy (none /
/// TPM / DRPM) and the DRPM controller. It charges nothing. Disk owns one
/// and derives every accounting view (stats, attribution entries and the
/// ledger folded from them, tracer, timeline) from what the model reports;
/// the sharded engine's coordinator runs bare models to learn each
/// fragment's completion ahead of the shard that replays the owning Disk.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SIM_DISKTIMINGMODEL_H
#define DRA_SIM_DISKTIMINGMODEL_H

#include "sim/DrpmPolicy.h"
#include "sim/PowerModel.h"
#include "sim/TpmPolicy.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace dra {

/// Head movements within this many bytes of the previous request's end are
/// charged the near-sequential seek time instead of the average seek.
inline constexpr uint64_t SeqWindowBytes = 1024 * 1024;

/// How the model serviced one fragment.
struct FragmentTiming {
  double ServiceStartMs = 0.0; ///< After queueing and any ready delay.
  double ServiceMs = 0.0;
  unsigned ServiceRpm = 0;
  double CompletionMs = 0.0; ///< ServiceStartMs + ServiceMs.
  /// DRPM emergency ramp-up from ServiceRpm commanded by this fragment
  /// (RampLevels == 0: none). The ramp occupies the disk from CompletionMs.
  unsigned RampToRpm = 0;
  unsigned RampLevels = 0;
};

/// One disk's timing state. Not movable once constructed (the policies
/// reference the owned PowerModel); hold it in place or in a reserved
/// vector.
class DiskTimingModel {
public:
  /// \throws std::invalid_argument when \p Params has more RPM levels than
  ///         an IdleOutcome can record (RpmJoules::Capacity).
  DiskTimingModel(const DiskParams &Params, PowerPolicyKind Policy)
      : PM(Params), Policy(Policy), Tpm(PM),
        Drpm(PM), Rpm(Params.MaxRpm), PendingRpm(Params.MaxRpm) {
    if (Params.numRpmLevels() > RpmJoules::Capacity) {
      std::string Msg = "disk has ";
      Msg += std::to_string(Params.numRpmLevels());
      Msg += " RPM levels; the simulator supports at most ";
      Msg += std::to_string(RpmJoules::Capacity);
      throw std::invalid_argument(Msg);
    }
  }

  const DiskParams &params() const { return PM.params(); }
  const PowerModel &powerModel() const { return PM; }
  double busyUntilMs() const { return BusyUntilMs; }
  unsigned currentRpm() const { return Rpm; }

  /// Services a fragment arriving at \p ArrivalMs. Requests must arrive in
  /// non-decreasing time order (FCFS). When the disk was idle before the
  /// arrival, \p OnGap(const IdleOutcome &, double GapStartMs, double
  /// GapMs) sees the gap's evaluation before the disk leaves it.
  template <typename OnGapFn>
  FragmentTiming submit(double ArrivalMs, uint64_t Offset, uint64_t Bytes,
                        OnGapFn &&OnGap) {
    assert(!Finalized && "submit after finalize");
    assert(ArrivalMs + 1e-9 >= LastArrivalMs &&
           "requests must arrive in non-decreasing time order");
    LastArrivalMs = ArrivalMs;

    FragmentTiming T;
    T.ServiceStartMs = std::max(ArrivalMs, BusyUntilMs);
    if (double GapMs = T.ServiceStartMs - BusyUntilMs; GapMs > 0)
      T.ServiceStartMs += leaveGap(GapMs, /*RequestArrives=*/true, OnGap);

    bool Sequential = HasLastOffset && Offset >= LastEndOffset &&
                      Offset - LastEndOffset <= SeqWindowBytes;
    T.ServiceRpm = Rpm;
    T.ServiceMs = PM.serviceMs(Bytes, Rpm, Sequential);
    T.CompletionMs = T.ServiceStartMs + T.ServiceMs;
    BusyUntilMs = T.CompletionMs;
    LastEndOffset = Offset + Bytes;
    HasLastOffset = true;

    if (Policy == PowerPolicyKind::Drpm) {
      unsigned Cmd =
          Drpm.onRequestServiced(T.CompletionMs - ArrivalMs, Bytes, Rpm);
      if (Cmd > Rpm) {
        // Emergency ramp-up: the speed change occupies the disk; later
        // arrivals queue behind it.
        T.RampToRpm = Cmd;
        T.RampLevels = (Cmd - Rpm) / params().RpmStep;
        BusyUntilMs += PM.rpmTransitionMs(T.RampLevels);
        Rpm = Cmd;
        PendingRpm = Rpm;
      } else if (Cmd < Rpm) {
        PendingRpm = Cmd; // Step-down: deferred until the disk is next idle.
      }
    }
    return T;
  }

  /// Evaluates the trailing idle period up to \p EndMs (if the disk is
  /// still busy then, nothing happens), handing it to \p OnGap like
  /// submit(). Must be called at most once, after the last submit.
  template <typename OnGapFn> void finalize(double EndMs, OnGapFn &&OnGap) {
    assert(!Finalized && "finalize called twice");
    Finalized = true;
    if (EndMs <= BusyUntilMs)
      return;
    leaveGap(EndMs - BusyUntilMs, /*RequestArrives=*/false, OnGap);
    BusyUntilMs = EndMs;
  }

private:
  PowerModel PM;
  PowerPolicyKind Policy;
  TpmPolicy Tpm;
  DrpmPolicy Drpm;

  double BusyUntilMs = 0.0;
  unsigned Rpm;
  /// Deferred DRPM step-down target (== Rpm when none pending).
  unsigned PendingRpm;
  uint64_t LastEndOffset = 0;
  bool HasLastOffset = false;
  double LastArrivalMs = 0.0;
  bool Finalized = false;

  /// Evaluates an idle gap of \p GapMs under \p Policy: the one policy
  /// dispatch. The disk enters the gap at \p Rpm with a deferred DRPM
  /// step-down target of \p PendingRpm (== \p Rpm when none);
  /// \p RequestArrives is false for the trailing gap at the end of a run.
  /// The proactive-hint flags of the policies' DiskParams (both policies
  /// share one PowerModel) apply.
  static IdleOutcome evaluateIdleGap(PowerPolicyKind Policy,
                                     const TpmPolicy &Tpm,
                                     const DrpmPolicy &Drpm, double GapMs,
                                     unsigned Rpm, unsigned PendingRpm,
                                     bool RequestArrives) {
    const DiskParams &P = Tpm.powerModel().params();
    switch (Policy) {
    case PowerPolicyKind::None: {
      IdleOutcome O;
      O.add(GapPhase::Idle, Rpm, GapMs, P.IdlePowerW * GapMs / 1000.0);
      O.EndRpm = Rpm;
      return O;
    }
    case PowerPolicyKind::Tpm:
      return Tpm.evaluateIdle(GapMs, RequestArrives);
    case PowerPolicyKind::Drpm:
      return Drpm.evaluateIdle(GapMs, Rpm, PendingRpm,
                               P.DrpmProactiveHints && RequestArrives);
    }
    assert(false && "unknown policy kind");
    return IdleOutcome();
  }

  /// Evaluates the idle gap of \p GapMs starting at BusyUntilMs, hands it
  /// to \p OnGap and takes the disk to the gap's end speed. Returns the
  /// ready delay before service can start.
  template <typename OnGapFn>
  double leaveGap(double GapMs, bool RequestArrives, OnGapFn &OnGap) {
    IdleOutcome O = evaluateIdleGap(Policy, Tpm, Drpm, GapMs, Rpm, PendingRpm,
                                    RequestArrives);
    OnGap(O, BusyUntilMs, GapMs);
    Rpm = O.EndRpm;
    PendingRpm = Rpm; // Any deferred step-down has now been honored.
    return O.ReadyDelayMs;
  }
};

} // namespace dra

#endif // DRA_SIM_DISKTIMINGMODEL_H
