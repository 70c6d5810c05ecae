//===- sim/DrpmPolicy.cpp - Dynamic RPM speed governor ---------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "sim/DrpmPolicy.h"

#include <algorithm>
#include <cassert>

using namespace dra;

/// Sink-only evaluation into the fresh outcome \p O: the idle dwell/step
/// loop without any ramp-back.
static void sinkDuringGap(const PowerModel &PM, double IdleMs,
                          unsigned StartRpm, unsigned PendingRpm,
                          IdleOutcome &O) {
  const DiskParams &P = PM.params();
  const double StepWaitMs = P.DrpmIdleStepDownS * 1000.0;
  const double StepMs = PM.rpmTransitionMs(1);

  O.EndRpm = StartRpm;
  double Remaining = IdleMs;
  // Levels the deferred controller command still owes us: these execute
  // back-to-back at the start of the gap, without the idle dwell.
  unsigned OwedSteps =
      PendingRpm < StartRpm ? (StartRpm - PendingRpm) / P.RpmStep : 0;

  while (true) {
    if (OwedSteps == 0) {
      // Dwell at the current level until the step-down timer fires; at the
      // bottom level the disk simply idles out the rest of the gap.
      double Dwell =
          O.EndRpm <= P.MinRpm ? Remaining : std::min(Remaining, StepWaitMs);
      O.add(GapPhase::Idle, O.EndRpm, Dwell,
            PM.idlePowerW(O.EndRpm) * Dwell / 1000.0);
      Remaining -= Dwell;
      if (Remaining <= 0 || O.EndRpm <= P.MinRpm)
        return;
    }
    // Step one level down. If the gap ends mid-transition, the ending
    // request waits for the transition to complete.
    unsigned NextRpm = O.EndRpm - P.RpmStep;
    double TransMs = std::min(Remaining, StepMs);
    O.add(GapPhase::RpmStep, O.EndRpm, TransMs,
          PM.idlePowerW(O.EndRpm) * TransMs / 1000.0);
    Remaining -= TransMs;
    ++O.RpmSteps;
    if (OwedSteps != 0)
      --OwedSteps;
    if (TransMs < StepMs) {
      O.ReadyDelayMs = StepMs - TransMs;
      O.ReadyEnergyJ = PM.idlePowerW(O.EndRpm) * O.ReadyDelayMs / 1000.0;
      O.EndRpm = NextRpm;
      return;
    }
    O.EndRpm = NextRpm;
    if (Remaining <= 0)
      return;
  }
}

IdleOutcome DrpmPolicy::evaluateIdle(double IdleMs, unsigned StartRpm,
                                     unsigned PendingRpm,
                                     bool ProactiveRamp) const {
  assert(IdleMs >= 0 && "negative idle gap");
  const DiskParams &P = PM.params();

  IdleOutcome O;
  sinkDuringGap(PM, IdleMs, StartRpm, PendingRpm, O);
  if (!ProactiveRamp || O.EndRpm == P.MaxRpm)
    return O;

  // The compiler knows when the gap ends: reserve the gap's tail for the
  // ramp back to full speed. The reservation is sized for the deepest
  // level the unreserved gap reaches (slightly conservative: the shorter
  // sink can only end at the same or a higher level).
  unsigned LevelsUp = (P.MaxRpm - O.EndRpm) / P.RpmStep;
  double RampMs = PM.rpmTransitionMs(LevelsUp);
  O = IdleOutcome();
  if (IdleMs <= RampMs) {
    // Too short to hide the ramp: ramp from the gap's start. The whole gap
    // is ramp transition.
    O.EndRpm = P.MaxRpm;
    O.add(GapPhase::RpmStep, 0, IdleMs,
          PM.idlePowerW(P.MaxRpm) * IdleMs / 1000.0);
    O.ReadyDelayMs = RampMs - IdleMs;
    O.ReadyEnergyJ = PM.idlePowerW(P.MaxRpm) * O.ReadyDelayMs / 1000.0;
    O.RpmSteps = LevelsUp;
    return O;
  }
  sinkDuringGap(PM, IdleMs - RampMs, StartRpm, PendingRpm, O);
  // The shorter sink may end mid-step; its remainder overlaps the reserved
  // ramp window (which was sized for a deeper level, so slack exists), so
  // its joules happen in the gap and fold into the one slice of the whole
  // window, keeping the slice durations summing to the gap length.
  unsigned Up = (P.MaxRpm - O.EndRpm) / P.RpmStep;
  double RampJ = PM.idlePowerW(P.MaxRpm) * RampMs / 1000.0;
  O.add(GapPhase::RpmStep, 0, RampMs, RampJ + O.ReadyEnergyJ);
  O.ReadyEnergyJ = 0.0;
  O.ReadyDelayMs = 0.0;
  O.RpmSteps += Up;
  O.EndRpm = P.MaxRpm;
  return O;
}

unsigned DrpmPolicy::onRequestServiced(double ResponseMs, uint64_t Bytes,
                                       unsigned CurRpm) {
  const DiskParams &P = PM.params();
  double Nominal = PM.nominalServiceMs(Bytes);
  double Ratio = ResponseMs / Nominal;

  if (!EwmaSeeded) {
    Ewma = Ratio;
    EwmaSeeded = true;
  } else {
    Ewma = P.DrpmEwmaAlpha * Ratio + (1.0 - P.DrpmEwmaAlpha) * Ewma;
  }

  WindowRatioSum += Ratio;
  ++WindowCount;

  // Severe degradation (queueing emergency): ramp without waiting for the
  // window boundary.
  if (Ewma > P.DrpmEmergencyTolerance && CurRpm < P.MaxRpm) {
    WindowCount = 0;
    WindowRatioSum = 0.0;
    Cooldown = P.DrpmRampCooldownWindows;
    return P.MaxRpm;
  }

  if (WindowCount < P.DrpmWindowRequests)
    return CurRpm;

  double Avg = WindowRatioSum / WindowCount;
  WindowCount = 0;
  WindowRatioSum = 0.0;
  if (Avg > P.DrpmRampUpTolerance && CurRpm < P.MaxRpm) {
    Cooldown = P.DrpmRampCooldownWindows;
    return P.MaxRpm;
  }
  if (Cooldown > 0) {
    --Cooldown;
    return CurRpm;
  }
  if (Avg < P.DrpmStepDownTolerance && CurRpm > P.MinRpm)
    return CurRpm - P.RpmStep; // Deferred: executes at the next idle gap.
  return CurRpm;
}

void DrpmPolicy::reset() {
  Ewma = 1.0;
  EwmaSeeded = false;
  WindowCount = 0;
  WindowRatioSum = 0.0;
  Cooldown = 0;
}
