//===- sim/TpmPolicy.cpp - Traditional power management --------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "sim/TpmPolicy.h"

#include <algorithm>
#include <cassert>

using namespace dra;

IdleOutcome TpmPolicy::evaluateIdle(double IdleMs, bool RequestArrives) const {
  assert(IdleMs >= 0 && "negative idle gap");
  const DiskParams &P = PM.params();
  const double ThMs = P.TpmBreakEvenS * 1000.0;
  const double DownMs = P.SpinDownS * 1000.0;
  const double UpMs = P.SpinUpS * 1000.0;

  IdleOutcome O;
  O.EndRpm = P.MaxRpm;

  // Compiler-directed mode: the compiler predicts the idle-period length
  // from the schedule, so it only inserts the spin-down call when the
  // period is long enough to also hide the spin-up (Son et al. [25]).
  // Gaps too short to profit are ridden out at idle power.
  double EffectiveThMs = ThMs;
  if (P.TpmProactiveHints && RequestArrives)
    EffectiveThMs = ThMs + DownMs + UpMs;

  if (IdleMs < EffectiveThMs) {
    // Below threshold: the disk idles at full power the whole gap.
    O.add(GapPhase::Idle, P.MaxRpm, IdleMs, P.IdlePowerW * IdleMs / 1000.0);
    return O;
  }

  double IdleJ = P.IdlePowerW * ThMs / 1000.0;
  if (IdleMs < ThMs + DownMs) {
    // The spin-down is still in progress at the end of the gap. Charge the
    // elapsed fraction of the spin-down energy; on arrival the disk must
    // finish spinning down, then spin all the way up.
    double Elapsed = IdleMs - ThMs;
    O.add(GapPhase::Idle, P.MaxRpm, ThMs, IdleJ);
    O.add(GapPhase::SpinDown, 0, Elapsed, P.SpinDownJ * (Elapsed / DownMs));
    O.SpinDowns = 1;
    if (RequestArrives) {
      double Remaining = DownMs - Elapsed;
      O.ReadyDelayMs = Remaining + UpMs;
      O.ReadyEnergyJ = P.SpinDownJ * (Remaining / DownMs) + P.SpinUpJ;
      O.SpinUps = 1;
    }
    return O;
  }

  // Full spin-down happened; the disk sat in standby for the remainder.
  // With proactive hints the compiler issues the spin-up UpMs before the
  // request, so the tail of the gap is spent spinning up rather than in
  // standby and the request is not delayed (clamped when the gap is too
  // short to hide the whole spin-up).
  double StandbyMs = IdleMs - ThMs - DownMs;
  double HiddenUpMs = 0.0;
  if (RequestArrives && P.TpmProactiveHints)
    HiddenUpMs = std::min(StandbyMs, UpMs);
  O.add(GapPhase::Idle, P.MaxRpm, ThMs, IdleJ);
  O.add(GapPhase::SpinDown, 0, DownMs, P.SpinDownJ);
  O.add(GapPhase::Standby, 0, StandbyMs - HiddenUpMs,
        P.StandbyPowerW * (StandbyMs - HiddenUpMs) / 1000.0);
  O.SpinDowns = 1;
  if (RequestArrives) {
    O.ReadyDelayMs = UpMs - HiddenUpMs;
    O.ReadyEnergyJ = P.SpinUpJ;
    O.SpinUps = 1;
  }
  // A fully hidden wake (ReadyDelayMs == 0) carries its spin-up energy
  // in-gap; a partially hidden one occupies HiddenUpMs of the gap but
  // burns all of ReadyEnergyJ in the post-gap stall (the ledger's
  // ready-penalty branch) — its in-gap slice is then energy-free.
  if (HiddenUpMs > 0)
    O.add(GapPhase::Wake, 0, HiddenUpMs,
          O.ReadyDelayMs == 0 ? O.ReadyEnergyJ : 0.0);
  return O;
}
