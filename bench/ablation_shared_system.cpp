//===- bench/ablation_shared_system.cpp - Assumption 2 erosion --------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
// Ablation E: Sec. 2 assumes a single application exercises the disks and
// predicts that otherwise "our energy savings can be reduced" (without
// affecting correctness). We overlay the restructured RSense trace with a
// background co-runner of increasing request rate and measure how the
// T-TPM-s savings erode.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "trace/Interference.h"

using namespace dra;

int main() {
  std::printf("== Ablation E: shared-system erosion of compiler savings "
              "(RSense, T-TPM-s) ==\n\n");

  Program P = makeRSense(benchScale() * 0.5);
  PipelineConfig Cfg = paperConfig(1);
  Pipeline Pipe(P, Cfg);
  Trace Restructured = Pipe.trace(Scheme::TTpmS);

  // The trace replays under T-TPM-s (TPM with the compiler's hints) and
  // under Base (no power management) for the savings baseline.
  auto Simulate = [&](Scheme S, const Trace &T) {
    return simulateScheme(S, Pipe.layout(), Cfg, T);
  };

  double Duration = Simulate(Scheme::Base, Restructured).WallTimeMs;

  TextTable T({"Background req/s", "Savings vs Base", "Spin-downs",
               "Wall (s)"});
  double FirstSavings = -1.0, LastSavings = -1.0;
  for (double Rate : {0.0, 2.0, 10.0, 40.0, 150.0}) {
    Trace Shared =
        withBackgroundTraffic(Restructured, Pipe.layout(), Rate, Duration);
    SimResults WithPm = Simulate(Scheme::TTpmS, Shared);
    SimResults NoPm = Simulate(Scheme::Base, Shared);
    double Savings = 1.0 - WithPm.EnergyJ / NoPm.EnergyJ;
    if (FirstSavings < 0)
      FirstSavings = Savings;
    LastSavings = Savings;
    T.addRow({fmtDouble(Rate, 0), fmtPercent(Savings),
              fmtGrouped(WithPm.SpinDowns),
              fmtDouble(WithPm.WallTimeMs / 1000.0, 1)});
  }
  std::printf("%s\n", T.render().c_str());
  std::printf("Claim check: [%s] background traffic erodes the savings "
              "(Sec. 2's Assumption 2)\n",
              LastSavings < FirstSavings ? "ok" : "MISMATCH");
  return 0;
}
