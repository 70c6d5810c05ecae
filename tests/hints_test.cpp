//===- tests/hints_test.cpp - proactive power-hint tests ----------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
//
// The compiler-inserted proactive hints (DESIGN.md Sec. 2): spin-up calls
// for TPM and ramp-up calls for DRPM, plus the staggered per-processor
// start disks of the Fig. 3 sweep.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "core/DiskReuseScheduler.h"
#include "core/Pipeline.h"
#include "ir/ProgramBuilder.h"
#include "sim/Disk.h"

#include <gtest/gtest.h>

using namespace dra;

namespace {
constexpr uint64_t KiB32 = 32 * 1024;
} // namespace

TEST(TpmHintsTest, HiddenSpinUpRemovesDelay) {
  DiskParams P;
  P.TpmProactiveHints = true;
  PowerModel PM(P);
  TpmPolicy Tpm(PM);
  // Long gap: the spin-up hides entirely in the standby tail.
  double Gap = (P.TpmBreakEvenS + P.SpinDownS + P.SpinUpS) * 1000.0 + 60000.0;
  IdleOutcome O = Tpm.evaluateIdle(Gap, true);
  EXPECT_DOUBLE_EQ(O.ReadyDelayMs, 0.0);
  EXPECT_EQ(O.SpinUps, 1u);
  // Energy: the hidden spin-up replaces standby time, so the gap energy is
  // lower by the hidden standby but the spin-up energy is charged fully.
  EXPECT_NEAR(O.GapEnergyJ,
              10.2 * P.TpmBreakEvenS + 13.0 + 2.5 * 60.0, 1e-6);
  EXPECT_NEAR(O.ReadyEnergyJ, 135.0, 1e-9);
}

TEST(TpmHintsTest, PredictiveSkipOnMarginalGaps) {
  DiskParams P;
  P.TpmProactiveHints = true;
  PowerModel PM(P);
  TpmPolicy Tpm(PM);
  // A gap above the hardware threshold but too short to also hide the
  // spin-up: the compiler does not insert the spin-down call at all.
  double Gap = (P.TpmBreakEvenS + 3.0) * 1000.0;
  IdleOutcome O = Tpm.evaluateIdle(Gap, true);
  EXPECT_EQ(O.SpinDowns, 0u);
  EXPECT_DOUBLE_EQ(O.ReadyDelayMs, 0.0);
  EXPECT_NEAR(O.GapEnergyJ, 10.2 * Gap / 1000.0, 1e-6);
}

TEST(TpmHintsTest, ReactiveModeUnchangedByFlag) {
  DiskParams P; // hints off
  PowerModel PM(P);
  TpmPolicy Tpm(PM);
  double Gap = (P.TpmBreakEvenS + 3.0) * 1000.0;
  IdleOutcome O = Tpm.evaluateIdle(Gap, true);
  EXPECT_EQ(O.SpinDowns, 1u);
  EXPECT_GT(O.ReadyDelayMs, 0.0);
}

TEST(TpmHintsTest, FinalizeIgnoresHints) {
  DiskParams P;
  P.TpmProactiveHints = true;
  PowerModel PM(P);
  TpmPolicy Tpm(PM);
  double Gap = (P.TpmBreakEvenS + 3.0) * 1000.0;
  // Trailing gap at end of run: no arriving request, normal spin-down.
  IdleOutcome O = Tpm.evaluateIdle(Gap, false);
  EXPECT_EQ(O.SpinDowns, 1u);
}

TEST(DrpmHintsTest, ProactiveRampEndsAtMaxWithNoDelay) {
  DiskParams P;
  PowerModel PM(P);
  DrpmPolicy Drpm(PM);
  IdleOutcome O = Drpm.evaluateIdle(120000.0, P.MaxRpm, P.MaxRpm,
                                    /*ProactiveRamp=*/true);
  EXPECT_EQ(O.EndRpm, P.MaxRpm);
  EXPECT_DOUBLE_EQ(O.ReadyDelayMs, 0.0);
  // It still sank in the middle of the gap: cheaper than idling at max.
  EXPECT_LT(O.GapEnergyJ, P.IdlePowerW * 120.0);
  // And it ramped back: down steps + up steps.
  EXPECT_GE(O.RpmSteps, 8u);
}

TEST(DrpmHintsTest, ShortGapRampsFromStart) {
  DiskParams P;
  PowerModel PM(P);
  DrpmPolicy Drpm(PM);
  // Starting at the bottom with a gap shorter than the full ramp.
  double Ramp = PM.rpmTransitionMs(4);
  IdleOutcome O =
      Drpm.evaluateIdle(Ramp / 2, P.MinRpm, P.MinRpm, /*ProactiveRamp=*/true);
  EXPECT_EQ(O.EndRpm, P.MaxRpm);
  EXPECT_NEAR(O.ReadyDelayMs, Ramp / 2, 1e-9);
}

TEST(DrpmHintsTest, ReactivePathUnchanged) {
  DiskParams P;
  PowerModel PM(P);
  DrpmPolicy Drpm(PM);
  IdleOutcome O = Drpm.evaluateIdle(120000.0, P.MaxRpm, P.MaxRpm,
                                    /*ProactiveRamp=*/false);
  EXPECT_EQ(O.EndRpm, P.MinRpm);
}

TEST(StaggerTest, StartDiskRotatesTheSweep) {
  ProgramBuilder B("p");
  ArrayId U = B.addArray("U", {16});
  B.beginNest("n", 1.0).loop(0, 16).read(U, {iv(0)}).endNest();
  Program P = B.build();
  IterationSpace Space(P);
  StripingConfig C;
  C.StripeFactor = 4;
  DiskLayout L(P, C);
  TileAccessTable Table(P, Space);
  DiskReuseScheduler Sched(Table, L);
  IterationGraph G(P, Space);
  Schedule S2 = Sched.schedule(G, /*StartDisk=*/2);
  // Clusters come out in disk order 2, 3, 0, 1.
  std::vector<GlobalIter> Expected;
  for (unsigned D : {2u, 3u, 0u, 1u})
    for (GlobalIter I = D; I < 16; I += 4)
      Expected.push_back(I);
  EXPECT_EQ(S2.Order, Expected);
}

TEST(StaggerTest, PipelineStaggersProcessorsAcrossDisks) {
  // With 2 processors and 8 disks, processor 1's restructured order must
  // begin on the second half of the disks.
  Program P = makeFft(0.1);
  Pipeline Pipe(P, paperConfig(2));
  ScheduledWork W = Pipe.compile(Scheme::TTpmS);
  ASSERT_EQ(W.PerProc.size(), 2u);
  ASSERT_FALSE(W.PerProc[1].empty());
  GlobalIter First = W.PerProc[1].front();
  auto Tiles = Pipe.program().touchedTiles(Pipe.space().nestOf(First),
                                           Pipe.space().iterOf(First));
  unsigned Disk = Pipe.layout().primaryDiskOfTile(Tiles[0].Tile);
  EXPECT_GE(Disk, 4u);
}

TEST(HintsTest, PipelineEnablesHintsOnlyForRestructuredSchemes) {
  // Observable behaviourally: T-TPM-s never stalls on spin-ups (wall time
  // close to Base + transitions), while a hand-built reactive TPM run over
  // the same restructured trace does stall.
  Program P = makeRSense(0.2);
  Pipeline Pipe(P, paperConfig(1));
  Trace T = Pipe.trace(Scheme::TTpmS);

  DiskParams Reactive = paperConfig(1).Disk;
  DiskParams Hinted = Reactive;
  Hinted.TpmProactiveHints = true;

  SimEngine EngineReactive(Pipe.layout(), Reactive, PowerPolicyKind::Tpm);
  SimEngine EngineHinted(Pipe.layout(), Hinted, PowerPolicyKind::Tpm);
  SimResults R = EngineReactive.run(T);
  SimResults H = EngineHinted.run(T);
  EXPECT_LT(H.WallTimeMs, R.WallTimeMs);

  SchemeRun Run = Pipe.run(Scheme::TTpmS);
  EXPECT_NEAR(Run.Sim.WallTimeMs, H.WallTimeMs, H.WallTimeMs * 1e-6);
}
