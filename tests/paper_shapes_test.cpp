//===- tests/paper_shapes_test.cpp - end-to-end paper shape checks ------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
//
// Integration tests asserting the paper's qualitative findings (Sec. 7.2)
// at reduced scale — the same shape checks the figure benches print, but
// enforced by the test suite so a regression cannot slip through. Scale
// 0.5 keeps each case under a second while preserving every ordering.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "driver/ExperimentRunner.h"
#include "obs/CompareReport.h"

#include <gtest/gtest.h>

#include <map>

using namespace dra;

namespace {

/// One evaluation of all six apps per processor count, normalized to Base
/// through the figure benches' own path (their rendered report), shared
/// across the assertions below (gtest environments would be overkill; a
/// function-local static is enough).
const Comparison &results(unsigned Procs) {
  static std::map<unsigned, Comparison> Cache;
  auto It = Cache.find(Procs);
  if (It != Cache.end())
    return It->second;
  PipelineConfig Cfg = paperConfig(Procs);
  std::vector<AppResults> All =
      runAppMatrix(Cfg, Procs == 1 ? singleProcSchemes() : allSchemes(),
                   paperApps(0.5), 1);
  Comparison C;
  std::string Error;
  EXPECT_TRUE(compareReportJson(renderRunReportJson(Cfg, All, "shapes"),
                                "shapes", "Base", C, Error))
      << Error;
  return Cache.emplace(Procs, std::move(C)).first->second;
}

double avgEnergy(unsigned Procs, size_t SchemeIdx) {
  return results(Procs).Schemes.at(SchemeIdx).MeanNormalizedEnergy;
}

double avgPerf(unsigned Procs, size_t SchemeIdx) {
  return results(Procs).Schemes.at(SchemeIdx).MeanIoDegradation;
}

// Scheme indices in singleProcSchemes() / allSchemes().
constexpr size_t TPM = 1, DRPM = 2, TTPMS = 3, TDRPMS = 4, TTPMM = 5,
                 TDRPMM = 6;

} // namespace

TEST(PaperShapes1Cpu, TpmAloneIsUseless) {
  EXPECT_GE(avgEnergy(1, TPM), 0.99);
  EXPECT_LT(avgPerf(1, TPM), 0.01);
}

TEST(PaperShapes1Cpu, DrpmSavesRoughlyTenPercent) {
  EXPECT_GT(avgEnergy(1, DRPM), 0.80);
  EXPECT_LT(avgEnergy(1, DRPM), 0.95);
}

TEST(PaperShapes1Cpu, DrpmPaysTheLargestIoTimePenalty) {
  EXPECT_GT(avgPerf(1, DRPM), 0.05);
  EXPECT_GT(avgPerf(1, DRPM), avgPerf(1, TTPMS) + 0.03);
  EXPECT_GT(avgPerf(1, DRPM), avgPerf(1, TDRPMS) + 0.03);
}

TEST(PaperShapes1Cpu, RestructuringMakesTpmASeriousAlternative) {
  EXPECT_LT(avgEnergy(1, TTPMS), avgEnergy(1, TPM) - 0.05);
}

TEST(PaperShapes1Cpu, TDrpmSIsTheBestSingleCpuScheme) {
  double Best = avgEnergy(1, TDRPMS);
  EXPECT_LT(Best, avgEnergy(1, TPM));
  EXPECT_LT(Best, avgEnergy(1, DRPM));
  EXPECT_LT(Best, avgEnergy(1, TTPMS));
}

TEST(PaperShapes4Cpu, InterleavingReducesDrpmEffectiveness) {
  EXPECT_GT(avgEnergy(4, DRPM), avgEnergy(1, DRPM));
}

TEST(PaperShapes4Cpu, PerProcessorReuseWeakens) {
  EXPECT_GT(avgEnergy(4, TTPMS), avgEnergy(1, TTPMS));
  EXPECT_GT(avgEnergy(4, TDRPMS), avgEnergy(1, TDRPMS));
}

TEST(PaperShapes4Cpu, LayoutAwareVersionsRecoverSavings) {
  EXPECT_LT(avgEnergy(4, TTPMM), avgEnergy(4, TTPMS));
  EXPECT_LT(avgEnergy(4, TDRPMM), avgEnergy(4, TDRPMS));
}

TEST(PaperShapes4Cpu, TDrpmMIsBestOverall) {
  double Best = avgEnergy(4, TDRPMM);
  EXPECT_LT(Best, avgEnergy(4, DRPM));
  EXPECT_LT(Best, avgEnergy(4, TDRPMS));
  EXPECT_LE(Best, avgEnergy(4, TTPMM) + 0.005);
}

TEST(PaperShapes4Cpu, MVersionsKeepPerformanceOverheadsSmall) {
  EXPECT_LT(avgPerf(4, TTPMM), 0.05);
  EXPECT_LT(avgPerf(4, TDRPMM), 0.06);
}
