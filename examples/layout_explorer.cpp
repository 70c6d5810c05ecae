//===- examples/layout_explorer.cpp - Unified optimizer in action -----------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
// Domain scenario #4: the Sec. 8 future-work loop, interactively. Takes
// the SCF model (whose symmetric D[i][j]/D[j][i] accesses straddle disks),
// shows the analytical energy model's view of a few hand-picked layouts,
// runs the unified optimizer, and validates its choice in the simulator.
//
// Run: build/examples/layout_explorer [scale]
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "core/LayoutOptimizer.h"
#include "core/Pipeline.h"
#include "support/Format.h"

#include <cstdio>
#include <cstdlib>

using namespace dra;

int main(int argc, char **argv) {
  double Scale = argc > 1 ? std::atof(argv[1]) : 0.4;
  Program P = makeScf(Scale);
  IterationSpace Space(P);
  TileAccessTable Table(P, Space);
  IterationGraph Graph(Table);
  DiskParams Disk;
  Disk.DrpmProactiveHints = true;

  std::printf("== Exploring layouts for SCF (scale %.2f) ==\n\n", Scale);

  // 1. The compiler-side cost model on a few layouts.
  std::printf("Analytical predictions (restructured schedule, DRPM):\n");
  TextTable T({"Layout", "Predicted energy (J)"});
  for (unsigned Rot : {0u, 1u, 4u}) {
    DiskLayout L(P, StripingConfig());
    for (ArrayId A = 0; A != P.arrays().size(); ++A)
      L.setArrayStartDisk(A, (A * Rot) % L.numDisks());
    double E = LayoutOptimizer::predictEnergy(P, Space, L, Disk,
                                              PowerPolicyKind::Drpm, Table,
                                              Graph);
    T.addRow({Rot == 0 ? "aligned (default)"
                       : "rotate each array by " + std::to_string(Rot),
              fmtDouble(E, 0)});
  }
  std::printf("%s\n", T.render().c_str());

  // 2. The unified optimizer.
  LayoutOptimizer::Options Opts;
  Opts.Policy = PowerPolicyKind::Drpm;
  LayoutChoice Choice =
      LayoutOptimizer::optimize(P, StripingConfig(), DiskParams(), Opts);
  std::printf("Optimizer tried %u candidates; chosen starting iodevices:",
              Choice.CandidatesTried);
  for (size_t A = 0; A != Choice.ArrayStartDisks.size(); ++A)
    std::printf(" %s->disk%u", P.array(ArrayId(A)).Name.c_str(),
                Choice.ArrayStartDisks[A]);
  std::printf("\npredicted: %.0f J (default %.0f J)\n\n",
              Choice.PredictedEnergyJ, Choice.DefaultEnergyJ);

  // 3. Validate in the full simulator.
  PipelineConfig DefCfg = paperConfig(1);
  PipelineConfig TunedCfg = paperConfig(1);
  TunedCfg.Striping = Choice.Config;
  TunedCfg.ArrayStartDisks = Choice.ArrayStartDisks;
  Pipeline Def(P, DefCfg), Tuned(P, TunedCfg);
  double SimDef = Def.run(Scheme::TDrpmS).Sim.EnergyJ;
  double SimTuned = Tuned.run(Scheme::TDrpmS).Sim.EnergyJ;
  std::printf("simulated: default layout %.0f J, tuned layout %.0f J "
              "(%s)\n",
              SimDef, SimTuned, fmtPercent(1.0 - SimTuned / SimDef).c_str());
  return 0;
}
