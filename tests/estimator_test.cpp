//===- tests/estimator_test.cpp - analytical energy estimator tests ----------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "core/EnergyEstimator.h"
#include "core/Pipeline.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace dra;

namespace {

/// Runs both the estimator and the simulator on scheme \p S of \p P
/// (single processor) and returns (estimate, simulated).
std::pair<EnergyEstimate, SimResults> compare(const Program &P, Scheme S,
                                              DiskParams Disk = DiskParams()) {
  PipelineConfig Cfg = paperConfig(1);
  Cfg.Disk = Disk;
  Pipeline Pipe(P, Cfg);
  ScheduledWork W = Pipe.compile(S);

  DiskParams Pred = Cfg.Disk;
  if (schemeRestructures(S) && schemePolicy(S) == PowerPolicyKind::Tpm)
    Pred.TpmProactiveHints = true;
  if (schemeRestructures(S) && schemePolicy(S) == PowerPolicyKind::Drpm)
    Pred.DrpmProactiveHints = true;

  EnergyEstimator Est(Pipe.program(), Pipe.space(), Pipe.layout(), Pred,
                      schemePolicy(S), Pipe.table());
  Schedule Sch;
  Sch.Order = W.PerProc[0];
  return {Est.estimate(Sch), Pipe.run(S).Sim};
}

} // namespace

TEST(EstimatorTest, MatchesSimulatorOnBase) {
  Program P = makeFft(0.15);
  auto [Est, Sim] = compare(P, Scheme::Base);
  // No policy, no queueing on one processor: the walk is the simulation.
  EXPECT_NEAR(Est.EnergyJ, Sim.EnergyJ, Sim.EnergyJ * 0.01);
  EXPECT_NEAR(Est.IoTimeMs, Sim.IoTimeMs, Sim.IoTimeMs * 0.01);
  EXPECT_NEAR(Est.WallMs, Sim.WallTimeMs, Sim.WallTimeMs * 0.01);
}

TEST(EstimatorTest, TracksSimulatorUnderTpm) {
  Program P = makeRSense(0.25);
  auto [Est, Sim] = compare(P, Scheme::TTpmS);
  EXPECT_NEAR(Est.EnergyJ, Sim.EnergyJ, Sim.EnergyJ * 0.10);
  EXPECT_GT(Est.SpinDowns, 0u);
}

TEST(EstimatorTest, TracksSimulatorUnderDrpmRestructured) {
  Program P = makeRSense(0.25);
  auto [Est, Sim] = compare(P, Scheme::TDrpmS);
  // The estimator has no busy-window controller, so only the idle-driven
  // behaviour (which dominates restructured schedules) is modeled.
  EXPECT_NEAR(Est.EnergyJ, Sim.EnergyJ, Sim.EnergyJ * 0.15);
  EXPECT_GT(Est.RpmSteps, 0u);
}

TEST(EstimatorTest, RanksRestructuredBelowOriginalUnderTpm) {
  Program P = makeRSense(0.25);
  PipelineConfig Cfg = paperConfig(1);
  Pipeline Pipe(P, Cfg);
  DiskParams Pred = Cfg.Disk;
  Pred.TpmProactiveHints = true;
  EnergyEstimator Est(Pipe.program(), Pipe.space(), Pipe.layout(), Pred,
                      PowerPolicyKind::Tpm, Pipe.table());
  Schedule Orig;
  Orig.Order = Pipe.compile(Scheme::Base).PerProc[0];
  Schedule Restr;
  Restr.Order = Pipe.compile(Scheme::TTpmS).PerProc[0];
  // The estimator must reproduce the headline ordering: restructured
  // schedules predict lower energy.
  EXPECT_LT(Est.estimate(Restr).EnergyJ, Est.estimate(Orig).EnergyJ);
}

TEST(EstimatorTest, PerDiskEnergiesSumToTotal) {
  Program P = makeFft(0.1);
  auto [Est, Sim] = compare(P, Scheme::Base);
  (void)Sim;
  double Sum = 0.0;
  for (double E : Est.PerDiskEnergyJ)
    Sum += E;
  EXPECT_NEAR(Sum, Est.EnergyJ, 1e-9);
}

TEST(EstimatorTest, EmptyScheduleIsZero) {
  Program P = makeFft(0.1);
  PipelineConfig Cfg = paperConfig(1);
  Pipeline Pipe(P, Cfg);
  EnergyEstimator Est(Pipe.program(), Pipe.space(), Pipe.layout(), Cfg.Disk,
                      PowerPolicyKind::None, Pipe.table());
  EnergyEstimate E = Est.estimate(Schedule{});
  EXPECT_DOUBLE_EQ(E.EnergyJ, 0.0);
  EXPECT_DOUBLE_EQ(E.WallMs, 0.0);
}

TEST(EstimatorTest, FootprintBoundIdenticalAcrossModes) {
  Program P = makeFft(0.15);
  PipelineConfig Cfg = paperConfig(1);
  Pipeline Pipe(P, Cfg);

  // The bound is a pure function of the footprint's exact counts, so every
  // derivation mode — with or without the table — yields the same bytes.
  SymbolicFootprint Sym(P, Pipe.layout(), FootprintMode::Symbolic);
  SymbolicFootprint Enum(P, Pipe.layout(), FootprintMode::Enumerated,
                         &Pipe.table());
  EnergyEstimate A =
      EnergyEstimator::footprintBound(P, Pipe.layout(), Cfg.Disk, Sym);
  EnergyEstimate B =
      EnergyEstimator::footprintBound(P, Pipe.layout(), Cfg.Disk, Enum);
  ASSERT_EQ(A.PerDiskEnergyJ.size(), B.PerDiskEnergyJ.size());
  EXPECT_EQ(std::memcmp(&A.EnergyJ, &B.EnergyJ, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&A.WallMs, &B.WallMs, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&A.IoTimeMs, &B.IoTimeMs, sizeof(double)), 0);
  for (size_t D = 0; D != A.PerDiskEnergyJ.size(); ++D)
    EXPECT_EQ(std::memcmp(&A.PerDiskEnergyJ[D], &B.PerDiskEnergyJ[D],
                          sizeof(double)),
              0);

  // Sanity of the bound itself: positive, compute+io consistent, and no
  // policy events (it models a policy-free machine).
  EXPECT_GT(A.EnergyJ, 0.0);
  EXPECT_GT(A.IoTimeMs, 0.0);
  EXPECT_GE(A.WallMs, A.IoTimeMs);
  EXPECT_EQ(A.SpinDowns, 0u);
  EXPECT_EQ(A.RpmSteps, 0u);
  double Sum = 0.0;
  for (double J : A.PerDiskEnergyJ)
    Sum += J;
  EXPECT_NEAR(Sum, A.EnergyJ, 1e-9);
}
