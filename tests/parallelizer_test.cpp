//===- tests/parallelizer_test.cpp - Sec. 6.1/6.2 parallelizer tests ---------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/LayoutAwareParallelizer.h"
#include "core/LoopParallelizer.h"
#include "ir/ProgramBuilder.h"

#include <gtest/gtest.h>

#include <set>

using namespace dra;

namespace {

/// Three nests touching one array with different orientations (the Fig. 5
/// scenario): two row-oriented nests and one column-oriented nest.
Program fig5Program(int64_t N) {
  ProgramBuilder B("fig5");
  ArrayId U = B.addArray("U", {N, N});
  B.beginNest("rows1", 1.0).loop(0, N).loop(0, N).read(U, {iv(0), iv(1)}).endNest();
  B.beginNest("cols", 1.0).loop(0, N).loop(0, N).read(U, {iv(1), iv(0)}).endNest();
  B.beginNest("rows2", 1.0).loop(0, N).loop(0, N).read(U, {iv(0), iv(1)}).endNest();
  return B.build();
}

std::vector<uint64_t> loadPerProc(const ScheduledWork &W) {
  std::vector<uint64_t> L;
  for (const auto &P : W.PerProc)
    L.push_back(P.size());
  return L;
}

} // namespace

TEST(LoopParallelizerTest, BlockPartitionsOutermostLoop) {
  Program P = fig5Program(8);
  IterationSpace Space(P);
  IterationGraph G(P, Space);
  ParallelPlan Plan = LoopParallelizer::parallelize(P, Space, G, 4);
  // 3 nests x 64 iterations, each split 16/16/16/16.
  ScheduledWork W = Plan.toWork(4);
  EXPECT_EQ(loadPerProc(W), (std::vector<uint64_t>{48, 48, 48, 48}));
  // Processor owning an iteration is determined by the i0 block.
  for (GlobalIter I = Space.nestBegin(0); I != Space.nestEnd(0); ++I)
    EXPECT_EQ(Plan.ProcOf[I], uint32_t(Space.iterOf(I)[0] / 2));
}

TEST(LoopParallelizerTest, SamePositionChunks) {
  // The Fig. 6(a) defect: every nest gives processor s the same-position
  // chunk, regardless of which data it touches.
  Program P = fig5Program(8);
  IterationSpace Space(P);
  IterationGraph G(P, Space);
  ParallelPlan Plan = LoopParallelizer::parallelize(P, Space, G, 4);
  for (NestId N = 0; N != 3; ++N) {
    for (GlobalIter I = Space.nestBegin(N); I != Space.nestEnd(N); ++I)
      EXPECT_EQ(Plan.ProcOf[I], uint32_t(Space.iterOf(I)[0] / 2));
  }
}

TEST(LoopParallelizerTest, SerialNestStaysOnProcZero) {
  ProgramBuilder B("serial");
  ArrayId U = B.addArray("U", {16});
  B.beginNest("chain", 1.0)
      .loop(1, 16)
      .read(U, {iv(0) - 1})
      .write(U, {iv(0)})
      .endNest();
  Program P = B.build();
  IterationSpace Space(P);
  IterationGraph G(P, Space);
  ParallelPlan Plan = LoopParallelizer::parallelize(P, Space, G, 4);
  for (GlobalIter I = 0; I != Space.size(); ++I)
    EXPECT_EQ(Plan.ProcOf[I], 0u);
  ASSERT_EQ(Plan.SerializedNests.size(), 1u);
  EXPECT_EQ(Plan.SerializedNests[0], 0u);
}

TEST(LoopParallelizerTest, InnerParallelLoopPartitioned) {
  // Visuo-style reduction: z carries a dependence, y is the parallel loop.
  ProgramBuilder B("proj");
  ArrayId V = B.addArray("V", {4, 8, 8});
  ArrayId I = B.addArray("I", {8, 8});
  B.beginNest("proj", 1.0)
      .loop(0, 4)
      .loop(0, 8)
      .loop(0, 8)
      .read(V, {iv(0), iv(1), iv(2)})
      .write(I, {iv(1), iv(2)})
      .endNest();
  Program P = B.build();
  IterationSpace Space(P);
  IterationGraph G(P, Space);
  ParallelPlan Plan = LoopParallelizer::parallelize(P, Space, G, 2);
  EXPECT_TRUE(Plan.SerializedNests.empty());
  for (GlobalIter It = 0; It != Space.size(); ++It)
    EXPECT_EQ(Plan.ProcOf[It], uint32_t(Space.iterOf(It)[1] / 4));
}

TEST(LoopParallelizerTest, BarrierBetweenDependentNests) {
  // Nest 0 writes U block-distributed; nest 1 reads U transposed: data
  // crosses processors, so a barrier must separate the nests.
  ProgramBuilder B("bar");
  ArrayId U = B.addArray("U", {8, 8});
  ArrayId V = B.addArray("V", {8, 8});
  B.beginNest("w", 1.0).loop(0, 8).loop(0, 8).write(U, {iv(0), iv(1)}).endNest();
  B.beginNest("r", 1.0)
      .loop(0, 8)
      .loop(0, 8)
      .read(U, {iv(1), iv(0)})
      .write(V, {iv(0), iv(1)})
      .endNest();
  Program P = B.build();
  IterationSpace Space(P);
  IterationGraph G(P, Space);
  ParallelPlan Plan = LoopParallelizer::parallelize(P, Space, G, 4);
  EXPECT_EQ(Plan.PhaseOf[Space.nestBegin(0)], 0u);
  EXPECT_EQ(Plan.PhaseOf[Space.nestBegin(1)], 1u);
}

TEST(LoopParallelizerTest, NoBarrierWhenDataStaysLocal) {
  // Producer/consumer with identical distribution: no cross-processor
  // dependence, no barrier.
  ProgramBuilder B("nobar");
  ArrayId U = B.addArray("U", {8, 8});
  ArrayId V = B.addArray("V", {8, 8});
  B.beginNest("w", 1.0).loop(0, 8).loop(0, 8).write(U, {iv(0), iv(1)}).endNest();
  B.beginNest("r", 1.0)
      .loop(0, 8)
      .loop(0, 8)
      .read(U, {iv(0), iv(1)})
      .write(V, {iv(0), iv(1)})
      .endNest();
  Program P = B.build();
  IterationSpace Space(P);
  IterationGraph G(P, Space);
  ParallelPlan Plan = LoopParallelizer::parallelize(P, Space, G, 4);
  for (GlobalIter I = 0; I != Space.size(); ++I)
    EXPECT_EQ(Plan.PhaseOf[I], 0u);
}

TEST(LoopParallelizerTest, SingleProcessorDegenerates) {
  Program P = fig5Program(4);
  IterationSpace Space(P);
  IterationGraph G(P, Space);
  ParallelPlan Plan = LoopParallelizer::parallelize(P, Space, G, 1);
  ScheduledWork W = Plan.toWork(1);
  EXPECT_EQ(W.PerProc[0].size(), Space.size());
}

TEST(LayoutAwareTest, UnificationPicksMajorityDistribution) {
  // Fig. 5/6: two row-oriented nests vs one column-oriented nest; the
  // unification step must choose the row-block distribution for U.
  Program P = fig5Program(8);
  IterationSpace Space(P);
  IterationGraph G(P, Space);
  TileAccessTable Table(P, Space);
  StripingConfig C;
  C.StripeFactor = 4;
  DiskLayout L(P, C);
  LayoutAwareInfo Info;
  LayoutAwareParallelizer::parallelize(P, Space, G, L, 4, &Info, &Table);
  ASSERT_EQ(Info.PartitionDimOfArray.size(), 1u);
  EXPECT_EQ(Info.PartitionDimOfArray[0], 0u); // row-block wins 2:1
}

TEST(LayoutAwareTest, ProcessorsOwnDiskBlocks) {
  // The Sec. 6.2 property: the disks are partitioned across the processors
  // — every iteration runs on the processor owning the disk its (first)
  // tile is striped onto, in every nest, whatever the nest's orientation.
  Program P = fig5Program(8);
  IterationSpace Space(P);
  IterationGraph G(P, Space);
  TileAccessTable Table(P, Space);
  StripingConfig C;
  C.StripeFactor = 4;
  DiskLayout L(P, C);
  ParallelPlan Plan =
      LayoutAwareParallelizer::parallelize(P, Space, G, L, 4, nullptr, &Table);
  for (GlobalIter I = 0; I != Space.size(); ++I) {
    auto Tiles = P.touchedTiles(Space.nestOf(I), Space.iterOf(I));
    unsigned Disk = L.primaryDiskOfTile(Tiles[0].Tile);
    EXPECT_EQ(Plan.ProcOf[I], Disk) // 4 procs over 4 disks: owner == disk
        << "iteration " << I << " of nest " << Space.nestOf(I);
  }
}

TEST(LayoutAwareTest, LocalizesDisksUnlikeLoopBased) {
  // Under the loop-based scheme a processor's chunk spans all disks; under
  // the layout-aware scheme each processor touches only its own disks.
  Program P = fig5Program(8);
  IterationSpace Space(P);
  IterationGraph G(P, Space);
  TileAccessTable Table(P, Space);
  StripingConfig C;
  C.StripeFactor = 4;
  DiskLayout L(P, C);
  ParallelPlan Loop = LoopParallelizer::parallelize(P, Space, G, 4);
  ParallelPlan Aware =
      LayoutAwareParallelizer::parallelize(P, Space, G, L, 4, nullptr, &Table);

  auto DisksOfProc = [&](const ParallelPlan &Plan, uint32_t S) {
    std::set<unsigned> Disks;
    for (GlobalIter I = 0; I != Space.size(); ++I) {
      if (Plan.ProcOf[I] != S)
        continue;
      auto Tiles = P.touchedTiles(Space.nestOf(I), Space.iterOf(I));
      Disks.insert(L.primaryDiskOfTile(Tiles[0].Tile));
    }
    return Disks;
  };
  for (uint32_t S = 0; S != 4; ++S) {
    EXPECT_EQ(DisksOfProc(Aware, S).size(), 1u) << "proc " << S;
    EXPECT_EQ(DisksOfProc(Loop, S).size(), 4u) << "proc " << S;
  }
}

TEST(LayoutAwareTest, RebalancesSingleDiskNest) {
  // Nest 1 strides so that every touched tile lives on disk 0: the pure
  // disk mapping would put everything on processor 0; the rebalancing step
  // must spread it.
  ProgramBuilder B("partial");
  ArrayId U = B.addArray("U", {8, 16});
  B.beginNest("full", 1.0).loop(0, 8).loop(0, 16).read(U, {iv(0), iv(1)}).endNest();
  B.beginNest("strided", 1.0)
      .loop(0, 8)
      .loop(0, 4)
      .read(U, {iv(0), iv(1) * 4}) // linear 16*i + 4*j: always disk 0 mod 4
      .endNest();
  Program P = B.build();
  IterationSpace Space(P);
  IterationGraph G(P, Space);
  TileAccessTable Table(P, Space);
  StripingConfig C;
  C.StripeFactor = 4;
  DiskLayout L(P, C);
  LayoutAwareInfo Info;
  ParallelPlan Plan =
      LayoutAwareParallelizer::parallelize(P, Space, G, L, 4, &Info, &Table);
  ASSERT_EQ(Info.RebalancedNests.size(), 1u);
  EXPECT_EQ(Info.RebalancedNests[0], 1u);
  std::set<uint32_t> ProcsUsed;
  for (GlobalIter I = Space.nestBegin(1); I != Space.nestEnd(1); ++I)
    ProcsUsed.insert(Plan.ProcOf[I]);
  EXPECT_EQ(ProcsUsed.size(), 4u);
}

TEST(LayoutAwareTest, SerializesUnparallelizableNest) {
  ProgramBuilder B("ser");
  ArrayId U = B.addArray("U", {16});
  B.beginNest("chain", 1.0)
      .loop(1, 16)
      .read(U, {iv(0) - 1})
      .write(U, {iv(0)})
      .endNest();
  Program P = B.build();
  IterationSpace Space(P);
  IterationGraph G(P, Space);
  TileAccessTable Table(P, Space);
  StripingConfig C;
  C.StripeFactor = 4;
  DiskLayout L(P, C);
  ParallelPlan Plan =
      LayoutAwareParallelizer::parallelize(P, Space, G, L, 4, nullptr, &Table);
  ASSERT_EQ(Plan.SerializedNests.size(), 1u);
  for (GlobalIter I = 0; I != Space.size(); ++I)
    EXPECT_EQ(Plan.ProcOf[I], 0u);
}

TEST(ParallelPlanTest, ToWorkPreservesOrderWithinProcessor) {
  Program P = fig5Program(4);
  IterationSpace Space(P);
  IterationGraph G(P, Space);
  ParallelPlan Plan = LoopParallelizer::parallelize(P, Space, G, 2);
  ScheduledWork W = Plan.toWork(2);
  for (const auto &Proc : W.PerProc)
    for (size_t I = 1; I < Proc.size(); ++I)
      EXPECT_LT(Proc[I - 1], Proc[I]);
  uint64_t Total = 0;
  for (const auto &Proc : W.PerProc)
    Total += Proc.size();
  EXPECT_EQ(Total, Space.size());
}
