//===- bench/ablation_layout_optimizer.cpp - Sec. 8 future work -------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
// Ablation F: the paper's concluding future work — combining code
// restructuring with disk layout reorganization under a unified optimizer.
// For each application, the optimizer tunes the per-array starting
// iodevice (Son et al. [23]), scoring every candidate layout with the
// simulator.
//
// Self-gating: exits 1 unless, for every app, the chosen energy is no
// higher than the default layout's and a fresh Pipeline built with the
// chosen striping and start disks reproduces the chosen energy bit for
// bit.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "core/LayoutOptimizer.h"

#include <cstring>

using namespace dra;

int main() {
  std::printf("== Ablation F: unified layout + restructuring optimizer "
              "(T-DRPM-s, 1 CPU) ==\n\n");
  TextTable T({"App", "Default (J)", "Tuned (J)", "Candidates", "Gain"});

  bool Ok = true;
  for (const AppUnderTest &App : paperApps(benchScale() * 0.5)) {
    std::fprintf(stderr, "  optimizing %s...\n", App.Name.c_str());
    Program P = App.Build();
    PipelineConfig Cfg = paperConfig(1);
    LayoutChoice Choice = LayoutOptimizer::optimize(
        P, Cfg, Scheme::TDrpmS, LayoutOptimizer::Options());

    Cfg.Striping = Choice.Config;
    Cfg.ArrayStartDisks = Choice.ArrayStartDisks;
    double Fresh = Pipeline(P, Cfg).run(Scheme::TDrpmS).Sim.EnergyJ;
    if (!(Choice.ChosenEnergyJ <= Choice.DefaultEnergyJ)) {
      std::fprintf(stderr, "FAIL %s: chosen %.17g J > default %.17g J\n",
                   App.Name.c_str(), Choice.ChosenEnergyJ,
                   Choice.DefaultEnergyJ);
      Ok = false;
    }
    if (std::memcmp(&Fresh, &Choice.ChosenEnergyJ, sizeof(double)) != 0) {
      std::fprintf(stderr,
                   "FAIL %s: a fresh pipeline on the chosen layout gives "
                   "%.17g J, the optimizer reported %.17g J\n",
                   App.Name.c_str(), Fresh, Choice.ChosenEnergyJ);
      Ok = false;
    }

    T.addRow({App.Name, fmtDouble(Choice.DefaultEnergyJ, 0),
              fmtDouble(Choice.ChosenEnergyJ, 0),
              fmtGrouped(Choice.CandidatesTried),
              fmtPercent(1.0 - Choice.ChosenEnergyJ / Choice.DefaultEnergyJ)});
  }
  std::printf("%s\n", T.render().c_str());
  std::printf("The tuned starting iodevices re-align arrays so that the "
              "tiles an iteration\ntouches together live on the same disk "
              "more often — deeper clusters, longer\nidle periods. Gains "
              "are workload-dependent (aligned apps are already optimal).\n");
  if (!Ok)
    return 1;
  std::printf("\n  [ok] every choice is no worse than the default layout "
              "and a fresh pipeline\n       reproduces its energy bit for "
              "bit\n");
  return 0;
}
