//===- tests/layoutopt_test.cpp - unified layout optimizer tests -------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "core/LayoutOptimizer.h"
#include "core/Pipeline.h"
#include "ir/ProgramBuilder.h"

#include <gtest/gtest.h>

using namespace dra;

TEST(LayoutTestExt, PerArrayStartDiskRemapsTiles) {
  ProgramBuilder B("p");
  ArrayId U = B.addArray("U", {8});
  ArrayId V = B.addArray("V", {8});
  B.beginNest("n", 1.0).loop(0, 8).read(U, {iv(0)}).read(V, {iv(0)}).endNest();
  Program P = B.build();
  StripingConfig C;
  C.StripeFactor = 4;
  DiskLayout L(P, C);
  EXPECT_EQ(L.primaryDiskOfTile({V, 0}), 0u);
  L.setArrayStartDisk(V, 3);
  EXPECT_EQ(L.primaryDiskOfTile({V, 0}), 3u);
  EXPECT_EQ(L.primaryDiskOfTile({V, 1}), 0u);
  // U is unaffected.
  EXPECT_EQ(L.primaryDiskOfTile({U, 0}), 0u);
  EXPECT_EQ(L.arrayStartDisk(V), 3u);
  EXPECT_EQ(L.arrayStartDisk(U), 0u);
}

TEST(LayoutTestExt, ArrayOfByteFindsTheFile) {
  ProgramBuilder B("p");
  ArrayId U = B.addArray("U", {3});
  ArrayId V = B.addArray("V", {5});
  B.beginNest("n", 1.0).loop(0, 3).read(U, {iv(0)}).read(V, {iv(0)}).endNest();
  Program P = B.build();
  StripingConfig C;
  C.StripeFactor = 4;
  DiskLayout L(P, C);
  EXPECT_EQ(L.arrayOfByte(0), U);
  EXPECT_EQ(L.arrayOfByte(L.fileBase(V)), V);
  EXPECT_EQ(L.arrayOfByte(L.fileBase(V) - 1), U); // padding counts as U's
  EXPECT_EQ(L.arrayOfByte(L.totalBytes() - 1), V);
}

TEST(LayoutOptimizerTest, NeverWorseThanDefault) {
  Program P = makeScf(0.12);
  LayoutChoice Choice = LayoutOptimizer::optimize(
      P, paperConfig(1), Scheme::TDrpmS, LayoutOptimizer::Options());
  EXPECT_LE(Choice.ChosenEnergyJ, Choice.DefaultEnergyJ);
  EXPECT_GT(Choice.CandidatesTried, 1u);
  EXPECT_EQ(Choice.ArrayStartDisks.size(), P.arrays().size());
}

TEST(LayoutOptimizerTest, NoTuningMeansDefaultChoice) {
  Program P = makeFft(0.1);
  LayoutOptimizer::Options Opts;
  Opts.TuneStartDisks = false;
  LayoutChoice Choice =
      LayoutOptimizer::optimize(P, paperConfig(1), Scheme::TDrpmS, Opts);
  EXPECT_EQ(Choice.ChosenEnergyJ, Choice.DefaultEnergyJ);
  EXPECT_EQ(Choice.CandidatesTried, 1u);
  for (unsigned SD : Choice.ArrayStartDisks)
    EXPECT_EQ(SD, StripingConfig().StartDisk);
  // The default is the base configuration's own run.
  EXPECT_EQ(Choice.DefaultEnergyJ,
            Pipeline(P, paperConfig(1)).run(Scheme::TDrpmS).Sim.EnergyJ);
}

TEST(LayoutOptimizerTest, StripeFactorSweepConsidersAlternatives) {
  Program P = makeFft(0.1);
  LayoutOptimizer::Options Opts;
  Opts.TuneStartDisks = false;
  Opts.CandidateStripeFactors = {2, 4};
  LayoutChoice Choice =
      LayoutOptimizer::optimize(P, paperConfig(1), Scheme::TDrpmS, Opts);
  EXPECT_EQ(Choice.CandidatesTried, 3u);
  // Fewer spindles always burn less total power in this regime: the sweep
  // must pick one of the smaller factors over the default 8.
  EXPECT_LT(Choice.Config.StripeFactor, 8u);
}

TEST(LayoutOptimizerTest, ChoiceIsSimulatableEndToEnd) {
  // The optimizer's score is the simulator's energy: a fresh pipeline on
  // the chosen layout reproduces it exactly, for every scheme it tunes.
  Program P = makeScf(0.12);
  for (Scheme S : {Scheme::TDrpmS, Scheme::TTpmS}) {
    LayoutChoice Choice = LayoutOptimizer::optimize(
        P, paperConfig(1), S, LayoutOptimizer::Options());
    PipelineConfig Cfg = paperConfig(1);
    Cfg.Striping = Choice.Config;
    Cfg.ArrayStartDisks = Choice.ArrayStartDisks;
    EXPECT_EQ(Choice.ChosenEnergyJ, Pipeline(P, Cfg).run(S).Sim.EnergyJ)
        << schemeName(S);
  }
}
