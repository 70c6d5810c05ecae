//===- bench/fig9b_energy_multi.cpp - Figs. 9(b)/10(b): 4 CPUs --------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
// Regenerates Figure 9(b): normalized disk energy consumption of the six
// applications under all seven versions on four processors, and from the
// same runs Figure 10(b): the performance degradation (increase in disk
// I/O time over Base) of the power-managed versions. Wall time is reported
// alongside because, in closed-loop simulation, power-mode penalties
// stretch execution even when per-request service is unchanged. The 6x7
// app-scheme matrix executes on the driver's parallel experiment runner
// (DRA_BENCH_JOBS workers); numbers are independent of the worker count.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace dra;

int main() {
  PipelineConfig Config = paperConfig(4);
  auto All = runAllApps(Config, allSchemes());
  std::string ReportJson = renderRunReportJson(Config, All, "fig9b");
  Comparison C = compareBenchReport(ReportJson, "fig9b");
  // C.Schemes follows allSchemes(): Base, TPM, DRPM, T-TPM-s, T-DRPM-s,
  // T-TPM-m, T-DRPM-m.
  size_t Tpm = 1, Drpm = 2, TTpmS = 3, TDrpmS = 4, TTpmM = 5, TDrpmM = 6;

  std::printf("== Figure 9(b): Normalized energy consumption, 4 processors "
              "==\n\n");
  std::printf("%s\n", renderEnergyMatrix(C).c_str());
  std::printf("%s\n", renderEnergyBars(C).c_str());

  std::printf("Energy attribution (normalized to Base, as dra-compare "
              "prints it):\n");
  std::printf("%s\n", renderCompareTable(C).c_str());

  std::printf("Paper vs measured (average normalized energy):\n");
  // Paper averages (Sec. 7.2): T-TPM-s 3.84%, T-DRPM-s 10.66%,
  // T-TPM-m 11.04%, T-DRPM-m 18.04%; DRPM's effectiveness is reduced.
  const double Paper[] = {1.0, 1.0, 0.93, 0.9616, 0.8934, 0.8896, 0.8196};
  for (size_t I = 0; I != C.Schemes.size(); ++I)
    printComparison("energy", C.Schemes[I].Scheme.c_str(), Paper[I],
                    C.Schemes[I].MeanNormalizedEnergy);

  std::printf("\nShape checks (the paper's qualitative findings):\n");
  auto Avg = [&](size_t I) { return C.Schemes[I].MeanNormalizedEnergy; };
  std::printf("  [%s] interleaving reduces DRPM's 1-CPU effectiveness "
              "(4-CPU DRPM saves less than ~10%%)\n",
              Avg(Drpm) > 0.90 ? "ok" : "MISMATCH");
  std::printf("  [%s] per-processor reuse alone weakens at 4 CPUs "
              "(T-TPM-s above 0.90)\n",
              Avg(TTpmS) > 0.90 ? "ok" : "MISMATCH");
  std::printf("  [%s] T-TPM-m recovers savings over T-TPM-s\n",
              Avg(TTpmM) < Avg(TTpmS) ? "ok" : "MISMATCH");
  std::printf("  [%s] T-DRPM-m recovers savings over T-DRPM-s\n",
              Avg(TDrpmM) < Avg(TDrpmS) ? "ok" : "MISMATCH");
  std::printf("  [%s] T-DRPM-m is the best scheme overall\n",
              Avg(TDrpmM) <= Avg(TTpmM) && Avg(TDrpmM) < Avg(TDrpmS) &&
                      Avg(TDrpmM) < Avg(Drpm)
                  ? "ok"
                  : "MISMATCH");
  auto Missed = [&](size_t I) {
    return C.Schemes[I].MeanNormalizedMissedOpportunity;
  };
  std::printf("  [%s] layout-aware restructuring shrinks sub-break-even "
              "missed-opportunity energy (T-TPM-m %.4f < TPM %.4f)\n",
              Missed(TTpmM) < Missed(Tpm) ? "ok" : "MISMATCH", Missed(TTpmM),
              Missed(Tpm));

  std::printf("\n== Figure 10(b): Performance degradation (disk I/O time), 4 "
              "processors ==\n\n");
  std::printf("%s\n", renderIoDegradationMatrix(C).c_str());

  // Wall-clock view (not in the paper; closed-loop detail).
  TextTable W({"App", "Base wall (s)", "T-TPM-m wall (s)",
               "T-DRPM-m wall (s)"});
  for (const AppResults &A : All)
    W.addRow({A.Name, fmtDouble(A.Runs[0].Sim.WallTimeMs / 1000.0, 1),
              fmtDouble(A.Runs[TTpmM].Sim.WallTimeMs / 1000.0, 1),
              fmtDouble(A.Runs[TDrpmM].Sim.WallTimeMs / 1000.0, 1)});
  std::printf("Wall-clock times (closed-loop view):\n%s\n",
              W.render().c_str());

  std::printf("Paper vs measured (average degradation, fraction):\n");
  // Paper averages (Sec. 7.2): DRPM 16.8%, T-TPM-s 4.7%, T-DRPM-s 8.7%,
  // T-TPM-m 2.8%, T-DRPM-m 5.0%.
  const double PaperIo[] = {0.0, 0.0, 0.168, 0.047, 0.087, 0.028, 0.050};
  auto AvgIo = [&](size_t I) { return C.Schemes[I].MeanIoDegradation; };
  for (size_t I = 0; I != C.Schemes.size(); ++I)
    printComparison("io-time", C.Schemes[I].Scheme.c_str(), PaperIo[I],
                    AvgIo(I));

  std::printf("\nShape checks (the paper's qualitative findings):\n");
  std::printf("  [%s] TPM remains penalty-free\n",
              AvgIo(Tpm) < 0.01 ? "ok" : "MISMATCH");
  std::printf("  [%s] DRPM keeps the largest I/O-time penalty\n",
              AvgIo(Drpm) > AvgIo(TTpmM) && AvgIo(Drpm) > AvgIo(TDrpmM)
                  ? "ok"
                  : "MISMATCH");
  std::printf("  [%s] the -m versions are preferable from the performance "
              "angle as well (small overheads)\n",
              AvgIo(TTpmM) < 0.05 && AvgIo(TDrpmM) < 0.06 ? "ok" : "MISMATCH");
  writeBenchArtifacts(ReportJson, "fig9b");
  return 0;
}
