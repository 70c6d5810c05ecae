//===- tests/interference_test.cpp - shared-system traffic tests -------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "core/Pipeline.h"
#include "trace/Interference.h"

#include <gtest/gtest.h>

using namespace dra;

namespace {

struct SharedRig {
  Program P;
  Pipeline Pipe;
  Trace Base;

  /// Scale 0.3 is the smallest at which RSense's restructured idle
  /// periods clear the proactive spin-down threshold (TPM savings exist).
  SharedRig()
      : P(makeRSense(0.3)), Pipe(P, paperConfig(1)),
        Base(Pipe.trace(Scheme::TTpmS)) {}
};

} // namespace

TEST(InterferenceTest, ZeroRateAddsNothing) {
  SharedRig R;
  Trace T = withBackgroundTraffic(R.Base, R.Pipe.layout(), 0.0, 10000.0);
  EXPECT_EQ(T.size(), R.Base.size());
  EXPECT_EQ(T.numProcs(), R.Base.numProcs() + 1);
}

TEST(InterferenceTest, RateControlsRequestCount) {
  SharedRig R;
  double DurMs = 60000.0;
  Trace T = withBackgroundTraffic(R.Base, R.Pipe.layout(), 10.0, DurMs);
  uint64_t Background = T.size() - R.Base.size();
  // ~600 expected; exponential gaps, so allow generous slack.
  EXPECT_GT(Background, 400u);
  EXPECT_LT(Background, 800u);
  // All background requests belong to the extra processor and stay in
  // phase 0 within the trace duration.
  for (size_t I = R.Base.size(); I != T.size(); ++I) {
    const Request &Q = T.requests()[I];
    EXPECT_EQ(Q.Proc, R.Base.numProcs());
    EXPECT_EQ(Q.Phase, 0u);
    EXPECT_LE(Q.ArrivalMs, DurMs);
    EXPECT_FALSE(Q.IsWrite);
  }
}

TEST(InterferenceTest, DeterministicInSeed) {
  SharedRig R;
  Trace A = withBackgroundTraffic(R.Base, R.Pipe.layout(), 20.0, 30000.0,
                                  32 * 1024, 7);
  Trace B = withBackgroundTraffic(R.Base, R.Pipe.layout(), 20.0, 30000.0,
                                  32 * 1024, 7);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I)
    EXPECT_EQ(A.requests()[I].StartBlock, B.requests()[I].StartBlock);
  Trace C = withBackgroundTraffic(R.Base, R.Pipe.layout(), 20.0, 30000.0,
                                  32 * 1024, 8);
  EXPECT_NE(A.size(), C.size());
}

TEST(InterferenceTest, BackgroundBlocksStayInRange) {
  SharedRig R;
  Trace T = withBackgroundTraffic(R.Base, R.Pipe.layout(), 50.0, 30000.0);
  uint64_t TotalBlocks = R.Pipe.layout().totalBytes() / T.blockBytes();
  for (size_t I = R.Base.size(); I != T.size(); ++I) {
    const Request &Q = T.requests()[I];
    EXPECT_LT(Q.StartBlock + Q.SizeBytes / T.blockBytes(), TotalBlocks + 1);
  }
}

TEST(InterferenceTest, SharedSystemErodesTpmSavings) {
  // The paper's Assumption 2 (Sec. 2): with a co-runner, the compiler's
  // idle periods get punctured and the savings shrink — but correctness is
  // unaffected (requests still complete).
  SharedRig R;
  PipelineConfig Cfg = paperConfig(1);
  auto Simulate = [&](Scheme S, const Trace &T) {
    return simulateScheme(S, R.Pipe.layout(), Cfg, T);
  };

  SimResults Alone = Simulate(Scheme::TTpmS, R.Base);
  SimResults AloneBase = Simulate(Scheme::Base, R.Base);
  double SavingsAlone = 1.0 - Alone.EnergyJ / AloneBase.EnergyJ;

  Trace Shared = withBackgroundTraffic(R.Base, R.Pipe.layout(), 40.0,
                                       AloneBase.WallTimeMs);
  SimResults Together = Simulate(Scheme::TTpmS, Shared);
  SimResults TogetherBase = Simulate(Scheme::Base, Shared);
  double SavingsShared = 1.0 - Together.EnergyJ / TogetherBase.EnergyJ;

  EXPECT_GT(SavingsAlone, 0.0);
  EXPECT_LT(SavingsShared, SavingsAlone);
  EXPECT_EQ(Together.NumRequests, Shared.size());
}
