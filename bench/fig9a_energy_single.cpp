//===- bench/fig9a_energy_single.cpp - Figs. 9(a)/10(a): 1 CPU --------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
// Regenerates Figure 9(a): normalized disk energy consumption of the six
// applications under Base, TPM, DRPM, T-TPM-s and T-DRPM-s on a single
// processor, and from the same runs Figure 10(a): the performance
// degradation (increase in disk I/O time over Base) of the power-managed
// versions. Values are normalized to Base per application, exactly as in
// the paper. The 6x5 app-scheme matrix executes on the driver's parallel
// experiment runner (DRA_BENCH_JOBS workers); numbers are independent of
// the worker count.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace dra;

int main() {
  PipelineConfig Config = paperConfig(1);
  auto All = runAllApps(Config, singleProcSchemes());
  std::string ReportJson = renderRunReportJson(Config, All, "fig9a");
  Comparison C = compareBenchReport(ReportJson, "fig9a");
  // C.Schemes follows singleProcSchemes(): Base, TPM, DRPM, T-TPM-s, T-DRPM-s.
  size_t Tpm = 1, Drpm = 2, TTpmS = 3, TDrpmS = 4;

  std::printf("== Figure 9(a): Normalized energy consumption, 1 processor "
              "==\n\n");
  std::printf("%s\n", renderEnergyMatrix(C).c_str());
  std::printf("%s\n", renderEnergyBars(C).c_str());

  std::printf("Energy attribution (normalized to Base, as dra-compare "
              "prints it):\n");
  std::printf("%s\n", renderCompareTable(C).c_str());

  std::printf("Paper vs measured (average normalized energy):\n");
  // Paper averages: TPM ~no savings, DRPM 9.95%% saving, T-TPM-s 8.30%%,
  // T-DRPM-s 18.30%% (Sec. 7.2).
  const double Paper[] = {1.0, 1.0, 0.9005, 0.917, 0.817};
  for (size_t I = 0; I != C.Schemes.size(); ++I)
    printComparison("energy", C.Schemes[I].Scheme.c_str(), Paper[I],
                    C.Schemes[I].MeanNormalizedEnergy);

  std::printf("\nShape checks (the paper's qualitative findings):\n");
  auto Avg = [&](size_t I) { return C.Schemes[I].MeanNormalizedEnergy; };
  std::printf("  [%s] TPM alone yields no significant savings (>= 0.99)\n",
              Avg(Tpm) >= 0.99 ? "ok" : "MISMATCH");
  std::printf("  [%s] DRPM alone saves roughly 10%% (0.85..0.95)\n",
              Avg(Drpm) >= 0.85 && Avg(Drpm) <= 0.95 ? "ok" : "MISMATCH");
  std::printf("  [%s] restructuring turns TPM into a serious alternative "
              "(T-TPM-s well below TPM)\n",
              Avg(TTpmS) < Avg(Tpm) - 0.05 ? "ok" : "MISMATCH");
  std::printf("  [%s] T-DRPM-s gives the highest savings of all schemes\n",
              Avg(TDrpmS) < Avg(Tpm) && Avg(TDrpmS) < Avg(Drpm) &&
                      Avg(TDrpmS) < Avg(TTpmS)
                  ? "ok"
                  : "MISMATCH");
  auto Missed = [&](size_t I) {
    return C.Schemes[I].MeanNormalizedMissedOpportunity;
  };
  std::printf("  [%s] restructuring shrinks sub-break-even "
              "missed-opportunity energy (T-TPM-s %.4f < TPM %.4f)\n",
              Missed(TTpmS) < Missed(Tpm) ? "ok" : "MISMATCH", Missed(TTpmS),
              Missed(Tpm));

  std::printf("\n== Figure 10(a): Performance degradation (disk I/O time), 1 "
              "processor ==\n\n");
  std::printf("%s\n", renderIoDegradationMatrix(C).c_str());

  std::printf("Paper vs measured (average degradation, fraction):\n");
  // Paper averages (Sec. 7.2): TPM ~0, DRPM 11.9%, T-TPM-s 2.1%,
  // T-DRPM-s 4.7%.
  const double PaperIo[] = {0.0, 0.0, 0.119, 0.021, 0.047};
  auto AvgIo = [&](size_t I) { return C.Schemes[I].MeanIoDegradation; };
  for (size_t I = 0; I != C.Schemes.size(); ++I)
    printComparison("io-time", C.Schemes[I].Scheme.c_str(), PaperIo[I],
                    AvgIo(I));

  std::printf("\nShape checks (the paper's qualitative findings):\n");
  std::printf("  [%s] TPM incurs no significant penalty (< 1%%)\n",
              AvgIo(Tpm) < 0.01 ? "ok" : "MISMATCH");
  std::printf("  [%s] DRPM incurs the largest penalty (~10%%+, slower "
              "rotation)\n",
              AvgIo(Drpm) > 0.05 && AvgIo(Drpm) > AvgIo(TTpmS) &&
                      AvgIo(Drpm) > AvgIo(TDrpmS)
                  ? "ok"
                  : "MISMATCH");
  std::printf("  [%s] the restructured versions stay well below DRPM "
              "(longer idle periods need fewer mode switches)\n",
              AvgIo(TTpmS) < AvgIo(Drpm) / 2 && AvgIo(TDrpmS) < AvgIo(Drpm) / 2
                  ? "ok"
                  : "MISMATCH");
  writeBenchArtifacts(ReportJson, "fig9a");
  return 0;
}
