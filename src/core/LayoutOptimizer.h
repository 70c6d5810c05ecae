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
/// turn, tries every starting disk, compiles and simulates the scheme under
/// the candidate layout (so layout changes feed back into the code
/// transformation), and keeps the start with the lowest simulated energy.
/// Optionally sweeps the stripe factor too. The simulator is the one
/// energy model: a choice's energy is what Pipeline::run reports for it.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_CORE_LAYOUTOPTIMIZER_H
#define DRA_CORE_LAYOUTOPTIMIZER_H

#include "core/Pipeline.h"

#include <vector>

namespace dra {

/// The optimizer's result: chosen layout parameters and their energy.
struct LayoutChoice {
  StripingConfig Config;
  /// Chosen starting iodevice per array.
  std::vector<unsigned> ArrayStartDisks;
  /// Simulated energy of the scheme under the chosen layout: exactly what
  /// a Pipeline with Config and ArrayStartDisks reports.
  double ChosenEnergyJ = 0.0;
  /// Simulated energy under the default layout (all arrays start at disk
  /// Config.StartDisk of the base striping), for comparison.
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
    /// Additional stripe factors to consider besides the base striping's
    /// (each candidate factor restarts the start-disk descent).
    std::vector<unsigned> CandidateStripeFactors;
  };

  /// Optimizes the layout of \p P for scheme \p S: each candidate is
  /// \p Base with the candidate's stripe factor and per-array start disks,
  /// scored by Pipeline(P, Cfg).run(S).Sim.EnergyJ. \p Base's telemetry
  /// sinks are not attached to the candidate runs.
  static LayoutChoice optimize(const Program &P, const PipelineConfig &Base,
                               Scheme S, const Options &Opts);
};

} // namespace dra

#endif // DRA_CORE_LAYOUTOPTIMIZER_H
