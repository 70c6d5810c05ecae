//===- tests/scheduler_test.cpp - disk-reuse scheduler tests ----------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/DiskReuseScheduler.h"
#include "ir/ProgramBuilder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

using namespace dra;

namespace {

/// A 2-array program in the spirit of Fig. 2(a): several nests with
/// different access patterns over striped arrays.
Program fig2Program(int64_t N) {
  ProgramBuilder B("fig2");
  ArrayId U1 = B.addArray("U1", {N, N});
  ArrayId U2 = B.addArray("U2", {N, N});
  B.beginNest("n1", 1.0).loop(0, N).loop(0, N).read(U1, {iv(0), iv(1)}).endNest();
  B.beginNest("n2", 1.0).loop(0, N).loop(0, N).read(U2, {iv(1), iv(0)}).endNest();
  B.beginNest("n3", 1.0).loop(0, N).loop(0, N).read(U1, {iv(1), iv(0)}).endNest();
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

} // namespace

TEST(SchedulerTest, ReproducesFig4Example) {
  // The worked example of Fig. 4: 13 iterations (paper numbering 1..13,
  // here 0-based), 4 disks, dependences 2->9, 6->7, 10->12 (paper
  // numbering). Round 1 schedules 1,3 | 2,6,10 | 4,8 | 5,9 and round 2
  // schedules 7,12 on disk0 and the remaining iterations.
  std::vector<uint64_t> Mask(13);
  auto SetDisk = [&](int PaperIter, unsigned Disk) {
    Mask[PaperIter - 1] = uint64_t(1) << Disk;
  };
  SetDisk(1, 0);
  SetDisk(3, 0);
  SetDisk(7, 0);
  SetDisk(12, 0);
  SetDisk(2, 1);
  SetDisk(6, 1);
  SetDisk(10, 1);
  SetDisk(4, 2);
  SetDisk(8, 2);
  SetDisk(11, 2);
  SetDisk(5, 3);
  SetDisk(9, 3);
  SetDisk(13, 3);
  // Dependences (0-based): 1->8, 5->6, 9->11, plus 4->10 and 10->12 to
  // push iterations 11 and 13 (paper numbering) into round 2.
  IterationGraph G(13, {{1, 8}, {5, 6}, {9, 11}, {4, 10}, {10, 12}});

  unsigned Rounds = 0;
  Schedule S = DiskReuseScheduler::scheduleMasked(Mask, G, 4, &Rounds);

  // Paper order (converted to 0-based): round 1 = 1,3 | 2,6,10 | 4,8 | 5,9;
  // round 2 = 7,12 | - | 11 | 13.
  std::vector<GlobalIter> Expected{0, 2, 1, 5, 9, 3, 7, 4, 8, 6, 11, 10, 12};
  EXPECT_EQ(S.Order, Expected);
  EXPECT_EQ(Rounds, 2u);
  EXPECT_TRUE(G.respectsDependences(S.Order));
}

TEST(SchedulerTest, SingleRoundWithoutDependences) {
  Program P = fig2Program(8);
  IterationSpace Space(P);
  StripingConfig C;
  C.StripeFactor = 4;
  DiskLayout L(P, C);
  TileAccessTable Table(P, Space);
  DiskReuseScheduler Sched(Table, L);
  IterationGraph G(P, Space);
  ASSERT_EQ(G.numEdges(), 0u);
  Schedule S = Sched.schedule(G);
  // "If the code does not have any data dependence, the while-loop in the
  // algorithm iterates only once" (Fig. 3 caption).
  EXPECT_EQ(Sched.lastRounds(), 1u);
  EXPECT_TRUE(isPermutation(S.Order, Space.size()));
}

TEST(SchedulerTest, PerfectReuseVisitsEachDiskOnce) {
  Program P = fig2Program(8);
  IterationSpace Space(P);
  StripingConfig C;
  C.StripeFactor = 4;
  DiskLayout L(P, C);
  TileAccessTable Table(P, Space);
  DiskReuseScheduler Sched(Table, L);
  IterationGraph G(P, Space);
  Schedule S = Sched.schedule(G);
  ScheduleLocality Loc = S.locality(Table, L);
  // Dependence-free program: each disk is visited exactly once.
  EXPECT_EQ(Loc.DisksUsed, 4u);
  EXPECT_EQ(Loc.DiskVisits, 4u);
  EXPECT_EQ(Loc.DiskSwitches, 3u);
}

TEST(SchedulerTest, ImprovesLocalityOverOriginalOrder) {
  Program P = fig2Program(8);
  IterationSpace Space(P);
  StripingConfig C;
  C.StripeFactor = 4;
  DiskLayout L(P, C);
  TileAccessTable Table(P, Space);
  DiskReuseScheduler Sched(Table, L);
  IterationGraph G(P, Space);
  Schedule Original;
  Original.Order.resize(Space.size());
  for (GlobalIter I = 0; I != Space.size(); ++I)
    Original.Order[I] = I;
  Schedule S = Sched.schedule(G);
  EXPECT_LT(S.locality(Table, L).DiskSwitches,
            Original.locality(Table, L).DiskSwitches);
}

TEST(SchedulerTest, DependentProgramStillValidAndClustered) {
  // Ping-pong stencil (AST-like): heavy inter-nest dependences.
  ProgramBuilder B("pp");
  int64_t N = 12;
  ArrayId A = B.addArray("A", {N, N});
  ArrayId C2 = B.addArray("C", {N, N});
  for (int Step = 0; Step != 3; ++Step) {
    ArrayId Src = Step % 2 == 0 ? A : C2;
    ArrayId Dst = Step % 2 == 0 ? C2 : A;
    B.beginNest(std::string("s").append(std::to_string(Step)), 1.0)
        .loop(0, N)
        .loop(0, N)
        .read(Src, {iv(0), iv(1)})
        .write(Dst, {iv(0), iv(1)})
        .endNest();
  }
  Program P = B.build();
  IterationSpace Space(P);
  StripingConfig C;
  C.StripeFactor = 4;
  DiskLayout L(P, C);
  TileAccessTable Table(P, Space);
  DiskReuseScheduler Sched(Table, L);
  IterationGraph G(P, Space);
  ASSERT_GT(G.numEdges(), 0u);
  Schedule S = Sched.schedule(G);
  EXPECT_TRUE(isPermutation(S.Order, Space.size()));
  EXPECT_TRUE(G.respectsDependences(S.Order));
}

TEST(SchedulerTest, SubsetScheduling) {
  Program P = fig2Program(6);
  IterationSpace Space(P);
  StripingConfig C;
  C.StripeFactor = 4;
  DiskLayout L(P, C);
  TileAccessTable Table(P, Space);
  DiskReuseScheduler Sched(Table, L);
  // Schedule only nest 1's iterations.
  std::vector<GlobalIter> Subset;
  for (GlobalIter G = Space.nestBegin(1); G != Space.nestEnd(1); ++G)
    Subset.push_back(G);
  IterationGraph G(P, Space, Subset);
  Schedule S = Sched.schedule(G);
  EXPECT_EQ(S.Order.size(), Subset.size());
  std::vector<GlobalIter> Sorted = S.Order;
  std::sort(Sorted.begin(), Sorted.end());
  EXPECT_EQ(Sorted, Subset);

  // Passing the subset along names the graph's own members; any other
  // list is refused rather than indexed with the graph's numbering.
  EXPECT_EQ(Sched.schedule(G, Subset, 0).Order, S.Order);
  std::vector<GlobalIter> Other(Subset.begin() + 1, Subset.end());
  EXPECT_THROW(Sched.schedule(G, Other, 0), std::invalid_argument);
  EXPECT_THROW(Sched.schedule(IterationGraph(P, Space), Subset, 0),
               std::invalid_argument);
}

TEST(SchedulerTest, DiskMaskMatchesLayout) {
  Program P = fig2Program(4);
  IterationSpace Space(P);
  StripingConfig C;
  C.StripeFactor = 4;
  DiskLayout L(P, C);
  TileAccessTable Table(P, Space);
  DiskReuseScheduler Sched(Table, L);
  for (GlobalIter G = 0; G != GlobalIter(Space.size()); ++G) {
    auto Tiles = P.touchedTiles(Space.nestOf(G), Space.iterOf(G));
    uint64_t Expect = 0;
    for (const TileAccess &TA : Tiles)
      Expect |= uint64_t(1) << L.primaryDiskOfTile(TA.Tile);
    EXPECT_EQ(Sched.diskMask(G), Expect);
  }
}

TEST(SchedulerTest, ClusteredOrderGroupsByDisk) {
  // With one array, one nest, no deps: the schedule must be exactly
  // "all of disk 0, all of disk 1, ...".
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
  Schedule S = Sched.schedule(G);
  std::vector<GlobalIter> Expected;
  for (unsigned D = 0; D != 4; ++D)
    for (GlobalIter I = D; I < 16; I += 4)
      Expected.push_back(I);
  EXPECT_EQ(S.Order, Expected);
}
