//===- examples/layout_explorer.cpp - Unified optimizer in action -----------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
// Domain scenario #4: the Sec. 8 future-work loop, interactively. Takes
// the SCF model (whose symmetric D[i][j]/D[j][i] accesses straddle disks),
// simulates a few hand-picked layouts, then runs the unified optimizer,
// which scores its candidates with the same simulator.
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
  PipelineConfig Cfg = paperConfig(1);

  std::printf("== Exploring layouts for SCF (scale %.2f) ==\n\n", Scale);

  // 1. The simulator's view of a few hand-picked layouts.
  std::printf("Simulated energy (T-DRPM-s, 1 CPU):\n");
  TextTable T({"Layout", "Energy (J)"});
  for (unsigned Rot : {0u, 1u, 4u}) {
    PipelineConfig Rotated = Cfg;
    for (ArrayId A = 0; A != P.arrays().size(); ++A)
      Rotated.ArrayStartDisks.push_back((A * Rot) % Cfg.Striping.StripeFactor);
    double E = Pipeline(P, Rotated).run(Scheme::TDrpmS).Sim.EnergyJ;
    T.addRow({Rot == 0 ? "aligned (default)"
                       : "rotate each array by " + std::to_string(Rot),
              fmtDouble(E, 0)});
  }
  std::printf("%s\n", T.render().c_str());

  // 2. The unified optimizer, which ranks its candidates the same way.
  LayoutChoice Choice = LayoutOptimizer::optimize(P, Cfg, Scheme::TDrpmS,
                                                  LayoutOptimizer::Options());
  std::printf("Optimizer tried %u candidates; chosen starting iodevices:",
              Choice.CandidatesTried);
  for (size_t A = 0; A != Choice.ArrayStartDisks.size(); ++A)
    std::printf(" %s->disk%u", P.array(ArrayId(A)).Name.c_str(),
                Choice.ArrayStartDisks[A]);
  std::printf("\nsimulated: default layout %.0f J, tuned layout %.0f J "
              "(%s)\n",
              Choice.DefaultEnergyJ, Choice.ChosenEnergyJ,
              fmtPercent(1.0 - Choice.ChosenEnergyJ / Choice.DefaultEnergyJ)
                  .c_str());
  return 0;
}
