//===- tests/properties_test.cpp - randomized property tests ------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
//
// Property-based sweeps over randomly generated affine programs: the
// restructurer must always emit a dependence-respecting permutation, the
// codegen round-trip must be exact, parallel plans must partition the
// iteration space, and the simulator's energy accounting must obey basic
// conservation bounds.
//
//===----------------------------------------------------------------------===//

#include "core/LoopFusion.h"
#include "core/Pipeline.h"
#include "core/ScheduleCodeGen.h"
#include "frontend/Parser.h"
#include "ir/PrettyPrinter.h"
#include "ir/ProgramBuilder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

using namespace dra;

namespace {

/// Deterministic random affine program: 2-3 nests over 1-3 2D arrays with
/// random constant-offset accesses (always in-bounds) and occasional
/// transposed references.
Program randomProgram(unsigned Seed) {
  std::mt19937_64 Rng(Seed);
  auto Pick = [&](int Lo, int Hi) {
    return int(Rng() % uint64_t(Hi - Lo + 1)) + Lo;
  };

  int64_t N = Pick(6, 12);
  int Margin = 2;
  ProgramBuilder B("rand" + std::to_string(Seed));
  int NumArrays = Pick(1, 3);
  std::vector<ArrayId> Arrays;
  for (int A = 0; A != NumArrays; ++A)
    Arrays.push_back(
        B.addArray(std::string("U").append(std::to_string(A)), {N, N}));

  int NumNests = Pick(2, 3);
  for (int K = 0; K != NumNests; ++K) {
    B.beginNest(std::string("n").append(std::to_string(K)),
                0.5 + 0.1 * Pick(0, 10));
    B.loop(Margin, N - Margin).loop(Margin, N - Margin);
    int NumAcc = Pick(1, 3);
    for (int A = 0; A != NumAcc; ++A) {
      ArrayId Arr = Arrays[size_t(Pick(0, NumArrays - 1))];
      bool Transposed = Pick(0, 3) == 0;
      int64_t DI = Pick(-Margin, Margin);
      int64_t DJ = Pick(-Margin, Margin);
      std::vector<AffineExpr> Subs =
          Transposed ? std::vector<AffineExpr>{iv(1) + DI, iv(0) + DJ}
                     : std::vector<AffineExpr>{iv(0) + DI, iv(1) + DJ};
      if (Pick(0, 2) == 0)
        B.write(Arr, std::move(Subs));
      else
        B.read(Arr, std::move(Subs));
    }
    B.endNest();
  }
  return B.build();
}

bool isPermutation(const std::vector<GlobalIter> &Order, uint64_t N) {
  if (Order.size() != N)
    return false;
  std::vector<bool> Seen(N, false);
  for (GlobalIter G : Order) {
    if (G >= N || Seen[G])
      return false;
    Seen[G] = true;
  }
  return true;
}

class RandomProgramProperty : public ::testing::TestWithParam<unsigned> {};

} // namespace

TEST_P(RandomProgramProperty, SchedulerEmitsValidTopologicalPermutation) {
  Program P = randomProgram(GetParam());
  IterationSpace Space(P);
  StripingConfig C;
  C.StripeFactor = 4;
  DiskLayout L(P, C);
  IterationGraph G(P, Space);
  TileAccessTable Table(P, Space);
  DiskReuseScheduler Sched(Table, L);
  Schedule S = Sched.schedule(G);
  EXPECT_TRUE(isPermutation(S.Order, Space.size()));
  EXPECT_TRUE(G.respectsDependences(S.Order));
}

TEST_P(RandomProgramProperty, SchedulerBoundsDisjointDiskTransitions) {
  // Structural clustering guarantee: within one (round, disk) pass every
  // scheduled iteration touches the pass's disk, so consecutive iterations
  // with *disjoint* disk sets can only occur at pass boundaries. Their
  // count is therefore bounded by rounds * disks - 1.
  Program P = randomProgram(GetParam());
  IterationSpace Space(P);
  StripingConfig C;
  C.StripeFactor = 4;
  DiskLayout L(P, C);
  IterationGraph G(P, Space);
  TileAccessTable Table(P, Space);
  DiskReuseScheduler Sched(Table, L);
  Schedule S = Sched.schedule(G);
  uint64_t Disjoint = 0;
  for (size_t I = 1; I < S.Order.size(); ++I)
    if ((Sched.diskMask(S.Order[I - 1]) & Sched.diskMask(S.Order[I])) == 0)
      ++Disjoint;
  EXPECT_LE(Disjoint, uint64_t(Sched.lastRounds()) * L.numDisks() - 1);
}

TEST_P(RandomProgramProperty, SingleAccessProgramsClusterPerfectlyModuloDeps) {
  // With one access per iteration, the primary-disk locality metric is
  // exact: the number of disk visits is bounded by rounds * disks.
  unsigned Seed = GetParam();
  std::mt19937_64 Rng(Seed * 977);
  int64_t N = 8 + int64_t(Rng() % 5);
  ProgramBuilder B("single");
  ArrayId U = B.addArray("U", {N, N});
  B.beginNest("w", 1.0).loop(0, N).loop(0, N).write(U, {iv(0), iv(1)}).endNest();
  B.beginNest("r", 1.0).loop(0, N).loop(0, N).read(U, {iv(1), iv(0)}).endNest();
  Program P = B.build();
  IterationSpace Space(P);
  StripingConfig C;
  C.StripeFactor = 4;
  DiskLayout L(P, C);
  IterationGraph G(P, Space);
  TileAccessTable Table(P, Space);
  DiskReuseScheduler Sched(Table, L);
  Schedule S = Sched.schedule(G);
  EXPECT_TRUE(G.respectsDependences(S.Order));
  ScheduleLocality Loc = S.locality(Table, L);
  EXPECT_LE(Loc.DiskVisits, uint64_t(Sched.lastRounds()) * L.numDisks());
}

TEST_P(RandomProgramProperty, CodegenRoundTripExact) {
  Program P = randomProgram(GetParam());
  IterationSpace Space(P);
  StripingConfig C;
  C.StripeFactor = 4;
  DiskLayout L(P, C);
  IterationGraph G(P, Space);
  TileAccessTable Table(P, Space);
  DiskReuseScheduler Sched(Table, L);
  Schedule S = Sched.schedule(G);
  ScheduleCodeGen CG(P, Space);
  EXPECT_EQ(CG.expandBands(CG.rollBands(S)), S.Order);
}

TEST_P(RandomProgramProperty, ParallelPlansPartitionTheSpace) {
  Program P = randomProgram(GetParam());
  PipelineConfig Cfg;
  Cfg.NumProcs = 3;
  Cfg.Striping.StripeFactor = 4;
  Pipeline Pipe(P, Cfg);
  for (Scheme S : {Scheme::Base, Scheme::TTpmS, Scheme::TTpmM}) {
    ScheduledWork W = Pipe.compile(S);
    std::vector<bool> Seen(Pipe.space().size(), false);
    uint64_t Count = 0;
    for (const auto &Proc : W.PerProc)
      for (GlobalIter G : Proc) {
        ASSERT_FALSE(Seen[G]);
        Seen[G] = true;
        ++Count;
      }
    EXPECT_EQ(Count, Pipe.space().size()) << schemeName(S);
  }
}

TEST_P(RandomProgramProperty, EnergyWithinPhysicalBounds) {
  Program P = randomProgram(GetParam());
  PipelineConfig Cfg;
  Cfg.Striping.StripeFactor = 4;
  Pipeline Pipe(P, Cfg);
  for (Scheme S : {Scheme::Base, Scheme::Tpm, Scheme::Drpm, Scheme::TDrpmS}) {
    SchemeRun R = Pipe.run(S);
    double WallS = R.Sim.WallTimeMs / 1000.0;
    unsigned D = Cfg.Striping.StripeFactor;
    // No disk can beat standby power or exceed active power for the whole
    // run (plus transition energy slack).
    double LowerJ = 0.9 * Cfg.Disk.StandbyPowerW * WallS * D * 0.2;
    double UpperJ = Cfg.Disk.ActivePowerW * WallS * D +
                    (R.Sim.SpinUps + R.Sim.SpinDowns) * 150.0 +
                    R.Sim.RpmSteps * 10.0;
    EXPECT_GT(R.Sim.EnergyJ, LowerJ) << schemeName(S);
    EXPECT_LT(R.Sim.EnergyJ, UpperJ) << schemeName(S);
  }
}

TEST_P(RandomProgramProperty, PolicyNeverChangesRequestCount) {
  Program P = randomProgram(GetParam());
  PipelineConfig Cfg;
  Cfg.Striping.StripeFactor = 4;
  Pipeline Pipe(P, Cfg);
  SchemeRun Base = Pipe.run(Scheme::Base);
  for (Scheme S : {Scheme::Tpm, Scheme::Drpm, Scheme::TTpmS, Scheme::TDrpmS}) {
    SchemeRun R = Pipe.run(S);
    EXPECT_EQ(R.Sim.NumRequests, Base.Sim.NumRequests) << schemeName(S);
    EXPECT_EQ(R.TraceBytes, Base.TraceBytes) << schemeName(S);
  }
}

TEST_P(RandomProgramProperty, BaseIoTimeMatchesBusySum) {
  Program P = randomProgram(GetParam());
  PipelineConfig Cfg;
  Cfg.Striping.StripeFactor = 4;
  Pipeline Pipe(P, Cfg);
  SchemeRun R = Pipe.run(Scheme::Base);
  double Sum = 0.0;
  for (const DiskStats &S : R.Sim.PerDisk)
    Sum += S.BusyMs;
  EXPECT_NEAR(R.Sim.IoTimeMs, Sum, 1e-9);
  // Wall time can never be shorter than the busiest disk.
  for (const DiskStats &S : R.Sim.PerDisk)
    EXPECT_GE(R.Sim.WallTimeMs + 1e-9, S.BusyMs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramProperty,
                         ::testing::Range(1u, 21u));

TEST_P(RandomProgramProperty, FusionPreservesBehaviour) {
  // Whatever the fusion pass merges, the program must touch the same tiles
  // the same number of times, and its own dependence graph must accept its
  // own program order.
  Program P = randomProgram(GetParam());
  Program F = LoopFusion::fuseAdjacent(P);
  EXPECT_EQ(P.totalBytesAccessed(1), F.totalBytesAccessed(1));
  IterationSpace Space(F);
  IterationGraph G(F, Space);
  std::vector<GlobalIter> Order(Space.size());
  for (GlobalIter I = 0; I != Space.size(); ++I)
    Order[I] = I;
  EXPECT_TRUE(G.respectsDependences(Order));
}

TEST_P(RandomProgramProperty, SourceRoundTripPreservesIterationSpace) {
  Program P = randomProgram(GetParam());
  std::string Error;
  auto Q = Parser::parse(printProgramAsSource(P), Error);
  ASSERT_TRUE(Q.has_value()) << Error;
  IterationSpace SA(P), SB(*Q);
  ASSERT_EQ(SA.size(), SB.size());
  for (GlobalIter G = 0; G != SA.size(); ++G)
    ASSERT_EQ(toIterVec(SA.iterOf(G)), toIterVec(SB.iterOf(G)));
}
