//===- sim/DiskParams.h - IBM Ultrastar 36Z15 parameters --------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The default simulation parameters of Table 1: the IBM Ultrastar 36Z15
/// mechanics and energy model, TPM transition costs, and DRPM-specific
/// parameters. Values not present in the paper (sequential seek time, RPM
/// transition cost, DRPM controller tolerances) are model extensions with
/// documented defaults (see DESIGN.md Sec. 2).
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SIM_DISKPARAMS_H
#define DRA_SIM_DISKPARAMS_H

#include <cassert>
#include <limits>
#include <string>

namespace dra {

/// Which power management scheme a disk runs (Sec. 4).
enum class PowerPolicyKind {
  None, ///< Base: the disk idles at full power, never transitions.
  Tpm,  ///< Traditional power management: spin down after a threshold.
  Drpm  ///< Dynamic RPM: multi-speed disk with a response-time governor.
};

/// Physical and policy parameters of one disk (I/O node). Defaults follow
/// Table 1 of the paper.
struct DiskParams {
  std::string Model = "IBM Ultrastar 36Z15";

  // --- Mechanics at maximum speed -------------------------------------
  unsigned MaxRpm = 15000;
  unsigned MinRpm = 3000;
  unsigned RpmStep = 3000;
  double AvgSeekMs = 3.4; ///< Average (random) seek time.
  /// Near-sequential head movement (model extension). The paper's model
  /// charges the average seek for every request, so the default equals
  /// AvgSeekMs; lower it to study sequentiality effects (ablation bench).
  double SeqSeekMs = 3.4;
  double AvgRotMsAtMax = 2.0;   ///< Average rotational latency at MaxRpm.
  double TransferMBPerSecAtMax = 55.0;
  double CapacityGB = 36.7;

  // --- Energy model ----------------------------------------------------
  double ActivePowerW = 13.5;
  double IdlePowerW = 10.2;
  double StandbyPowerW = 2.5;
  double SpinDownJ = 13.0;  ///< idle -> standby energy.
  double SpinDownS = 1.5;   ///< idle -> standby time.
  double SpinUpJ = 135.0;   ///< standby -> active energy.
  double SpinUpS = 10.9;    ///< standby -> active time.
  double TpmBreakEvenS = 15.2; ///< TPM spin-down threshold.
  /// Compiler-inserted proactive spin-up calls (Son et al. [25]): when the
  /// access pattern is known, the spin-up is issued ahead of the first
  /// request of a cluster and overlaps the preceding idle period instead
  /// of stalling the processor. Enabled by the pipeline for the
  /// restructured (T-TPM-*) versions; plain TPM stays reactive.
  bool TpmProactiveHints = false;

  // --- DRPM-specific ----------------------------------------------------
  /// Quadratic power anchors at MinRpm (quadratic estimation of [13]).
  /// The curve is deliberately flat: spindle rotation is only part of the
  /// idle power (electronics, servo and arm power persist at low RPM), and
  /// these anchors reproduce the paper's observed DRPM savings magnitude.
  double IdlePowerAtMinW = 4.2;
  double ActivePowerAtMinW = 6.0;
  /// Time to move one RPM step (model extension; [13] models sub-second
  /// transitions between adjacent speeds).
  double RpmStepTransitionS = 0.06;
  /// Requests per controller window (Table 1: 100).
  unsigned DrpmWindowRequests = 100;
  /// Idle time after which the controller drops one RPM level (ext.).
  double DrpmIdleStepDownS = 2.0;
  /// Ramp to full speed when a window's average response exceeds this
  /// multiple of the full-speed nominal response — the "allowed response
  /// time degradation" of [13] (ext.).
  double DrpmRampUpTolerance = 1.25;
  /// Ramp immediately (mid-window) when the response EWMA exceeds this
  /// multiple: queueing emergencies, without waiting for the window (ext.).
  double DrpmEmergencyTolerance = 2.5;
  /// Step one level down when a window's average response stays below this
  /// multiple of the full-speed nominal response (ext.).
  double DrpmStepDownTolerance = 1.09;
  /// EWMA smoothing for per-request response tracking (ext.).
  double DrpmEwmaAlpha = 0.3;
  /// Windows to wait after a ramp-up before stepping down again
  /// (hysteresis against oscillation, ext.).
  unsigned DrpmRampCooldownWindows = 1;
  /// Compiler-inserted proactive ramp-up calls (the DRPM analogue of the
  /// TPM hints): the restructured versions know when a disk's next access
  /// cluster begins and ramp the disk back to full speed during the tail
  /// of its idle period, so cluster-opening requests are serviced at full
  /// speed without a reactive ramp stall.
  bool DrpmProactiveHints = false;

  /// Number of DRPM speed levels.
  unsigned numRpmLevels() const {
    return (MaxRpm - MinRpm) / RpmStep + 1;
  }

  /// RPM of level \p L, level 0 = MinRpm.
  unsigned rpmOfLevel(unsigned L) const {
    assert(L < numRpmLevels() && "RPM level out of range");
    return MinRpm + L * RpmStep;
  }

  /// The analytic TPM break-even time implied by the energy model; Table 1
  /// quotes 15.2 s, which this reproduces to within 0.1 s.
  double computedBreakEvenS() const {
    return (SpinDownJ + SpinUpJ - StandbyPowerW * (SpinDownS + SpinUpS)) /
           (IdlePowerW - StandbyPowerW);
  }
};

/// The shortest idle time after which \p Policy makes a power-state
/// decision: TPM's break-even spin-down, DRPM's idle step-down; never
/// (infinity) for Base. PA-LRU calls a disk cold once it has idled this
/// long, and the sharded engine's window may not exceed it.
inline double powerDecisionMs(const DiskParams &P, PowerPolicyKind Policy) {
  switch (Policy) {
  case PowerPolicyKind::None:
    break;
  case PowerPolicyKind::Tpm:
    return P.TpmBreakEvenS * 1000.0;
  case PowerPolicyKind::Drpm:
    return P.DrpmIdleStepDownS * 1000.0;
  }
  return std::numeric_limits<double>::infinity();
}

} // namespace dra

#endif // DRA_SIM_DISKPARAMS_H
