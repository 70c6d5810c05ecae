//===- bench/ablation_tpm_threshold.cpp - TPM threshold sweep ---------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
// Ablation A: sweep the TPM spin-down threshold around Table 1's 15.2 s
// break-even value under T-TPM-s (AST). On the restructured trace the idle
// periods are long enough that no threshold in the sweep loses energy by
// spinning down early: normalized energy rises with the threshold at an
// unchanged wall time (EXPERIMENTS.md has the scale-1.0 figures).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace dra;

int main() {
  std::printf("== Ablation A: TPM spin-down threshold sweep (AST, T-TPM-s, "
              "1 CPU) ==\n\n");
  TextTable T({"Threshold (s)", "Norm. energy", "Spin-downs", "Spin-ups",
               "Wall (s)"});

  Program P = makeAst(benchScale());
  double BaseE = 0.0;
  for (double Th : {2.0, 5.0, 10.0, 15.2, 30.0, 60.0, 120.0}) {
    PipelineConfig C = paperConfig(1);
    C.Disk.TpmBreakEvenS = Th;
    Pipeline Pipe(P, C);
    if (BaseE == 0.0)
      BaseE = Pipe.run(Scheme::Base).Sim.EnergyJ;
    SchemeRun R = Pipe.run(Scheme::TTpmS);
    T.addRow({fmtDouble(Th, 1), fmtDouble(R.Sim.EnergyJ / BaseE, 4),
              fmtGrouped(R.Sim.SpinDowns), fmtGrouped(R.Sim.SpinUps),
              fmtDouble(R.Sim.WallTimeMs / 1000.0, 1)});
  }
  std::printf("%s\n", T.render().c_str());
  std::printf("Reading: normalized energy rises with the threshold at the "
              "same wall time; no\nthreshold below the analytic break-even "
              "(15.2 s) costs energy on this trace.\n");
  return 0;
}
