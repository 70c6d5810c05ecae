//===- sim/DrpmPolicy.h - Dynamic RPM speed governor -------------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// DRPM (Sec. 4, after Gurumurthi et al. [13]): the disk provides multiple
/// rotation speeds and *can service requests at any of them*. A per-disk
/// controller picks the level:
///
///  * During idleness it steps the speed down one level per
///    DrpmIdleStepDownS of idle time (toward MinRpm).
///  * Per serviced request it tracks an EWMA of the response-time ratio
///    against the full-speed nominal response; if the EWMA exceeds
///    DrpmRampUpTolerance the disk ramps straight to MaxRpm (the paper's
///    "degree of response time variation" trigger).
///  * Per DrpmWindowRequests-request window, if the window's average ratio
///    stayed below DrpmStepDownTolerance the controller steps one level
///    down (speed is higher than the workload needs).
///
/// Every one-step transition takes RpmStepTransitionS and consumes energy
/// at the idle power of the faster of the two levels.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SIM_DRPMPOLICY_H
#define DRA_SIM_DRPMPOLICY_H

#include "sim/IdleOutcome.h"
#include "sim/PowerModel.h"

namespace dra {

/// Per-disk DRPM controller state + idle-gap evaluation.
///
/// Commands are split by direction: ramp-ups (degradation) are executed
/// immediately by the disk (they block briefly), while step-downs are
/// *deferred to the next idle gap* so a busy disk never stalls to slow
/// itself down; a hysteresis cooldown after each ramp-up prevents
/// oscillation.
class DrpmPolicy {
public:
  explicit DrpmPolicy(const PowerModel &PM) : PM(PM) {}

  /// Evaluates an idle gap of \p IdleMs starting at \p StartRpm with a
  /// deferred controller target of \p PendingRpm (== StartRpm when none):
  /// the pending step-down executes at the start of the gap, then the
  /// idle timer keeps stepping the speed down while the gap lasts. Pure
  /// (controller state does not participate). ReadyDelay is incurred only
  /// when the gap ends in the middle of a step transition.
  /// \param ProactiveRamp when true (compiler hint, request arrives at the
  ///        end of the gap), the tail of the gap is spent ramping back to
  ///        full speed so the request is serviced at MaxRpm with no delay.
  IdleOutcome evaluateIdle(double IdleMs, unsigned StartRpm,
                           unsigned PendingRpm,
                           bool ProactiveRamp = false) const;
  IdleOutcome evaluateIdle(double IdleMs, unsigned StartRpm) const {
    return evaluateIdle(IdleMs, StartRpm, StartRpm);
  }

  /// Records a serviced request and returns the commanded RPM (may equal
  /// \p CurRpm). \p ResponseMs includes queueing; \p Bytes determines the
  /// full-speed nominal reference. A command above \p CurRpm is an
  /// immediate ramp; below is a deferred step-down.
  unsigned onRequestServiced(double ResponseMs, uint64_t Bytes,
                             unsigned CurRpm);

  /// Resets controller state (windows, EWMA, cooldown).
  void reset();

  double ewma() const { return Ewma; }

private:
  const PowerModel &PM;
  double Ewma = 1.0;
  bool EwmaSeeded = false;
  unsigned WindowCount = 0;
  double WindowRatioSum = 0.0;
  unsigned Cooldown = 0;
};

} // namespace dra

#endif // DRA_SIM_DRPMPOLICY_H
