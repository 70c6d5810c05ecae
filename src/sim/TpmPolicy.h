//===- sim/TpmPolicy.h - Traditional power management ------------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TPM (Sec. 4, after Douglis et al. [12]): after the disk has been idle
/// for a threshold (the break-even time of Table 1), it spins down to
/// standby; the next request must first spin it back up, paying the spin-up
/// time and energy. The policy is a pure function of the idle-gap length.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SIM_TPMPOLICY_H
#define DRA_SIM_TPMPOLICY_H

#include "sim/IdleOutcome.h"
#include "sim/PowerModel.h"

namespace dra {

/// Threshold-based spin-down policy.
class TpmPolicy {
public:
  explicit TpmPolicy(const PowerModel &PM) : PM(PM) {}

  /// Evaluates an idle gap of \p IdleMs.
  /// \param RequestArrives true when a request ends the gap (charges the
  ///        spin-up); false at end of simulation.
  ///
  /// Cases (Th = threshold, D = spin-down time, U = spin-up time):
  ///  * gap <  Th:      full-power idle throughout, no delay.
  ///  * Th <= gap < Th+D: the request lands mid-spin-down; the disk must
  ///      finish spinning down and then spin up.
  ///  * gap >= Th+D:    idle for Th, spin down, standby, spin up on demand.
  IdleOutcome evaluateIdle(double IdleMs, bool RequestArrives) const;

  const PowerModel &powerModel() const { return PM; }

private:
  const PowerModel &PM;
};

} // namespace dra

#endif // DRA_SIM_TPMPOLICY_H
