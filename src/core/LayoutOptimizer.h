//===- core/LayoutOptimizer.h - Unified layout + code optimizer -*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's stated future work (Sec. 8): "a framework that combines
/// application code restructuring with disk layout reorganization under a
/// unified optimizer", building on the energy-oriented layout parameters of
/// Son et al. [23] — stripe size, stripe factor, and the starting iodevice
/// of each file.
///
/// This module implements that framework for the starting-iodevice
/// parameter: a greedy coordinate-descent search that, for each array in
/// turn, tries every starting disk, re-runs the disk-reuse restructuring
/// under the candidate layout, and keeps the start that minimizes the
/// analytical energy estimate. Optionally sweeps the stripe factor too.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_CORE_LAYOUTOPTIMIZER_H
#define DRA_CORE_LAYOUTOPTIMIZER_H

#include "analysis/IterationGraph.h"
#include "core/EnergyEstimator.h"
#include "layout/DiskLayout.h"
#include "sim/DiskParams.h"

#include <vector>

namespace dra {

/// The optimizer's result: chosen layout parameters and predicted energy.
struct LayoutChoice {
  StripingConfig Config;
  /// Chosen starting iodevice per array.
  std::vector<unsigned> ArrayStartDisks;
  /// Predicted energy of the restructured schedule under the chosen layout.
  double PredictedEnergyJ = 0.0;
  /// Predicted energy under the default layout (all arrays start at disk
  /// Config.StartDisk), for comparison.
  double DefaultEnergyJ = 0.0;
  /// Candidate layouts evaluated.
  unsigned CandidatesTried = 0;
};

/// Greedy unified layout/code optimizer.
class LayoutOptimizer {
public:
  /// Options controlling the search space.
  struct Options {
    /// Try every starting iodevice for every array (coordinate descent).
    bool TuneStartDisks = true;
    /// Additional stripe factors to consider besides Config.StripeFactor
    /// (each candidate factor restarts the start-disk descent).
    std::vector<unsigned> CandidateStripeFactors;
    /// Power policy to optimize for.
    PowerPolicyKind Policy = PowerPolicyKind::Drpm;
    /// Apply the compiler's proactive hints while predicting (matches the
    /// restructured pipeline versions).
    bool ProactiveHints = true;
  };

  /// Optimizes the layout of \p P for the disk-reuse restructured schedule.
  static LayoutChoice optimize(const Program &P, const StripingConfig &Base,
                               const DiskParams &Disk, const Options &Opts);

  /// Predicted energy of the restructured schedule of \p P under a given
  /// layout (helper shared with tests and examples). \p Table and \p Graph
  /// are layout-independent, so optimize() derives them once and reuses
  /// them across every candidate.
  static double predictEnergy(const Program &P, const IterationSpace &Space,
                              const DiskLayout &Layout,
                              const DiskParams &Disk, PowerPolicyKind Policy,
                              const TileAccessTable &Table,
                              const IterationGraph &Graph);
};

} // namespace dra

#endif // DRA_CORE_LAYOUTOPTIMIZER_H
