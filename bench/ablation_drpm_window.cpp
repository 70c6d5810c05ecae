//===- bench/ablation_drpm_window.cpp - DRPM window-size sweep --------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
// Ablation B: sweep the DRPM controller window (Table 1 default: 100
// requests) under plain DRPM (AST). The smallest windows thrash, but
// neither energy nor RPM steps fall monotonically with the window, and
// Table 1's 100 requests is not the optimum on this trace
// (EXPERIMENTS.md has the scale-1.0 figures).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace dra;

int main() {
  std::printf("== Ablation B: DRPM window-size sweep (AST, DRPM, 1 CPU) "
              "==\n\n");
  TextTable T({"Window (reqs)", "Norm. energy", "Norm. I/O time",
               "RPM steps"});

  Program P = makeAst(benchScale());
  double BaseE = 0.0, BaseIo = 0.0;
  for (unsigned W : {10u, 25u, 50u, 100u, 250u, 500u, 1000u}) {
    PipelineConfig C = paperConfig(1);
    C.Disk.DrpmWindowRequests = W;
    Pipeline Pipe(P, C);
    if (BaseE == 0.0) {
      SchemeRun Base = Pipe.run(Scheme::Base);
      BaseE = Base.Sim.EnergyJ;
      BaseIo = Base.Sim.IoTimeMs;
    }
    SchemeRun R = Pipe.run(Scheme::Drpm);
    T.addRow({fmtGrouped(W), fmtDouble(R.Sim.EnergyJ / BaseE, 4),
              fmtDouble(R.Sim.IoTimeMs / BaseIo, 4),
              fmtGrouped(R.Sim.RpmSteps)});
  }
  std::printf("%s\n", T.render().c_str());
  std::printf("Reading: the smallest windows thrash, but neither energy "
              "nor RPM steps fall\nmonotonically with the window; Table 1's "
              "100 requests is not the optimum here.\n");
  return 0;
}
