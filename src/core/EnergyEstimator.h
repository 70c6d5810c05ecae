//===- core/EnergyEstimator.h - Compiler-side energy model ------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An analytical, compiler-side estimate of the disk energy a schedule will
/// consume — no event simulation, no queueing. The estimator walks a
/// single-processor schedule once, maintaining a nominal clock (think times
/// + full-speed service times) and per-disk last-busy marks, and evaluates
/// every idle gap through the simulator's own policy dispatch
/// (evaluateIdleGap, sim/DiskTimingModel.h).
///
/// This is the cost model a "unified optimizer" needs (the paper's future
/// work, Sec. 8): fast enough to rank many candidate layouts, and within a
/// few percent of the simulator on single-processor runs (tested).
///
//===----------------------------------------------------------------------===//

#ifndef DRA_CORE_ENERGYESTIMATOR_H
#define DRA_CORE_ENERGYESTIMATOR_H

#include "core/Schedule.h"
#include "sim/DiskParams.h"
#include "sim/PowerModel.h"

#include <vector>

namespace dra {

class SymbolicFootprint;

/// The estimator's prediction for one schedule.
struct EnergyEstimate {
  double EnergyJ = 0.0;
  double WallMs = 0.0;
  double IoTimeMs = 0.0; ///< Total disk busy time.
  std::vector<double> PerDiskEnergyJ;
  unsigned SpinDowns = 0;
  unsigned RpmSteps = 0;
};

/// Analytical single-processor energy predictor.
class EnergyEstimator {
public:
  /// \param Policy the power policy to predict for; proactive-hint flags in
  ///        \p Params apply exactly as in the simulator.
  /// \param Table the precomputed access table for \p Space; per-iteration
  ///        accesses are read from its rows.
  EnergyEstimator(const Program &P, const IterationSpace &Space,
                  const DiskLayout &Layout, const DiskParams &Params,
                  PowerPolicyKind Policy, const TileAccessTable &Table);

  /// Predicts energy/time for executing \p S on one processor.
  EnergyEstimate estimate(const Schedule &S) const;

  /// Schedule-free locality bound from the symbolic footprint: every
  /// distinct tile a reference demands is fetched once at full speed, disks
  /// otherwise idle at MaxRpm, compute time accumulates per iteration. A
  /// pure function of \p FP's exact counts (per-disk demand and iteration
  /// totals), so any two footprint modes whose counts agree — which the
  /// differential tests and ScheduleVerifier::verifyFootprint guarantee —
  /// produce bit-identical bounds. This is the table-free cost signal the
  /// unified-optimizer path ranks layouts with (docs/ANALYSIS.md).
  static EnergyEstimate footprintBound(const Program &P,
                                       const DiskLayout &Layout,
                                       const DiskParams &Params,
                                       const SymbolicFootprint &FP);

private:
  const Program &Prog;
  const IterationSpace &Space;
  const DiskLayout &Layout;
  DiskParams Params;
  PowerModel PM;
  PowerPolicyKind Policy;
  const TileAccessTable &Table;
};

} // namespace dra

#endif // DRA_CORE_ENERGYESTIMATOR_H
