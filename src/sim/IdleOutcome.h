//===- sim/IdleOutcome.h - Idle-gap evaluation result -----------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The result of lazily evaluating one disk idle gap under a power policy.
/// Policies are deterministic in the gap length, so the simulator can apply
/// them retroactively when the next request arrives (or at end of
/// simulation), which keeps the event loop simple and exact.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SIM_IDLEOUTCOME_H
#define DRA_SIM_IDLEOUTCOME_H

#include "sim/EnergyLedger.h"

#include <vector>

namespace dra {

/// What the disk was doing during one contiguous slice of an idle gap
/// (obs/Timeline.h renders these as power-state lanes).
enum class GapPhase : unsigned char {
  Idle,     ///< Idle dwell at Rpm (full or reduced speed).
  SpinDown, ///< TPM spin-down in progress.
  Standby,  ///< TPM standby residency.
  Wake,     ///< Compiler-hidden spin-up inside the gap tail (TPM hints).
  RpmStep,  ///< DRPM speed transition (step-down or ramp).
};

/// One time-ordered slice of an idle gap. Produced only on request
/// (IdleOutcome::Segments stays empty on the default path, keeping gap
/// evaluation allocation-free). Invariants when present:
///   sum of Ms            == the evaluated gap length
///   sum of Joules over {Idle, SpinDown, Standby, RpmStep} == GapEnergyJ
///   sum of Joules over {Wake} == (ReadyDelayMs == 0 ? ReadyEnergyJ : 0)
/// (a stalled wake burns its ReadyEnergyJ *after* the gap, so it is not a
/// segment; a hidden wake happens inside the gap and is).
struct GapSegment {
  GapPhase Phase = GapPhase::Idle;
  unsigned Rpm = 0; ///< Speed during the slice (Idle dwell only).
  double Ms = 0.0;
  double Joules = 0.0;
};

/// What happened during an idle gap and what it costs to service the
/// request that ends it.
struct IdleOutcome {
  /// Energy consumed during the gap itself, in joules.
  double GapEnergyJ = 0.0;
  /// Attribution of GapEnergyJ (sim/EnergyLedger.h categories): idle dwell
  /// joules per spindle RPM plus the three transition/residency shares
  /// below. Invariant, asserted in Disk::chargeGap:
  ///   gapBreakdownJ() == GapEnergyJ.
  /// ReadyEnergyJ is deliberately not broken down here — the ledger
  /// attributes it wholesale (stalled -> ready penalty, hidden -> spin-up).
  RpmJoules IdleByRpmJ;
  double SpinDownEnergyJ = 0.0; ///< Spin-down share of GapEnergyJ (TPM).
  double StandbyEnergyJ = 0.0;  ///< Standby share of GapEnergyJ (TPM).
  double RpmStepEnergyJ = 0.0;  ///< RPM-transition share (DRPM steps/ramps).
  /// Extra delay after the gap before service can start (spin-up or an RPM
  /// transition still in flight), in milliseconds.
  double ReadyDelayMs = 0.0;
  /// Energy consumed during ReadyDelayMs, in joules.
  double ReadyEnergyJ = 0.0;
  /// RPM at which the ending request will be serviced.
  unsigned EndRpm = 0;
  /// Number of spin-downs that occurred (TPM; 0 or 1).
  unsigned SpinDowns = 0;
  /// Number of spin-ups that occurred (TPM; 0 or 1).
  unsigned SpinUps = 0;
  /// Number of one-step RPM transitions that occurred (DRPM).
  unsigned RpmSteps = 0;
  /// Time-ordered gap slices for the timeline recorder; filled only when
  /// the policy was asked for them (WantSegments), empty otherwise.
  std::vector<GapSegment> Segments;

  /// Sum of the GapEnergyJ attribution fields (see IdleByRpmJ).
  double gapBreakdownJ() const {
    double J = SpinDownEnergyJ + StandbyEnergyJ + RpmStepEnergyJ;
    for (const auto &[Rpm, Joules] : IdleByRpmJ) {
      (void)Rpm;
      J += Joules;
    }
    return J;
  }
};

} // namespace dra

#endif // DRA_SIM_IDLEOUTCOME_H
