//===- tests/codegen_test.cpp - schedule re-rolling tests --------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/IterationGraph.h"
#include "core/DiskReuseScheduler.h"
#include "core/ScheduleCodeGen.h"
#include "ir/ProgramBuilder.h"

#include <gtest/gtest.h>

using namespace dra;

namespace {

Program simpleProgram(int64_t N, unsigned Nests) {
  ProgramBuilder B("p");
  ArrayId U = B.addArray("U", {N, N});
  for (unsigned K = 0; K != Nests; ++K)
    B.beginNest(std::string("n").append(std::to_string(K)), 1.0)
        .loop(0, N)
        .loop(0, N)
        .read(U, {iv(0), iv(1)})
        .endNest();
  return B.build();
}

Schedule identityOrder(const IterationSpace &Space) {
  Schedule S;
  S.Order.resize(Space.size());
  for (GlobalIter G = 0; G != Space.size(); ++G)
    S.Order[G] = G;
  return S;
}

} // namespace

TEST(CodeGenTest, IdentityOrderRollsToOneBandPerNest) {
  Program P = simpleProgram(6, 2);
  IterationSpace Space(P);
  ScheduleCodeGen CG(P, Space);
  auto Bands = CG.rollBands(identityOrder(Space));
  // Row-major order of an N x N nest is NOT one band (i1 resets each row),
  // but each row is; 6 rows x 2 nests = 12 bands.
  EXPECT_EQ(Bands.size(), 12u);
  for (const LoopBand &B : Bands) {
    EXPECT_EQ(B.Count, 6u);
    EXPECT_EQ(B.VaryDepth, 1u);
    EXPECT_EQ(B.Stride, 1);
  }
}

TEST(CodeGenTest, RoundTripIdentity) {
  Program P = simpleProgram(5, 2);
  IterationSpace Space(P);
  ScheduleCodeGen CG(P, Space);
  Schedule S = identityOrder(Space);
  auto Bands = CG.rollBands(S);
  EXPECT_EQ(CG.expandBands(Bands), S.Order);
}

TEST(CodeGenTest, RoundTripRestructuredSchedule) {
  Program P = simpleProgram(16, 3);
  IterationSpace Space(P);
  StripingConfig C;
  C.StripeFactor = 4;
  DiskLayout L(P, C);
  TileAccessTable Table(P, Space);
  DiskReuseScheduler Sched(Table, L);
  IterationGraph G(P, Space);
  Schedule S = Sched.schedule(G);
  ScheduleCodeGen CG(P, Space);
  auto Bands = CG.rollBands(S);
  EXPECT_EQ(CG.expandBands(Bands), S.Order);
  // The restructured code must still re-roll: fewer bands than iterations,
  // and at least one genuinely long run survives.
  EXPECT_LT(Bands.size(), S.Order.size());
  uint64_t Longest = 0;
  for (const LoopBand &Band : Bands)
    Longest = std::max(Longest, Band.Count);
  EXPECT_GE(Longest, 4u);
}

TEST(CodeGenTest, StridedRunDetected) {
  // Disk-clustered order of a 1D loop over 4 disks yields stride-4 bands.
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
  ScheduleCodeGen CG(P, Space);
  auto Bands = CG.rollBands(S);
  ASSERT_EQ(Bands.size(), 4u); // one band per disk
  for (const LoopBand &Band : Bands) {
    EXPECT_EQ(Band.Count, 4u);
    EXPECT_EQ(Band.Stride, 4);
  }
}

TEST(CodeGenTest, SingletonBands) {
  Program P = simpleProgram(3, 1);
  IterationSpace Space(P);
  ScheduleCodeGen CG(P, Space);
  // A zig-zag order that defeats re-rolling: multi-var steps everywhere.
  Schedule S;
  S.Order = {0, 4, 1, 5, 2};
  auto Bands = CG.rollBands(S);
  EXPECT_EQ(CG.expandBands(Bands), S.Order);
}

TEST(CodeGenTest, PrintBandsMentionsNestAndStride) {
  Program P = simpleProgram(4, 1);
  IterationSpace Space(P);
  ScheduleCodeGen CG(P, Space);
  auto Bands = CG.rollBands(identityOrder(Space));
  std::string Text = CG.printBands(Bands);
  EXPECT_NE(Text.find("exec n0"), std::string::npos);
  EXPECT_NE(Text.find("step 1"), std::string::npos);
  EXPECT_NE(Text.find("count 4"), std::string::npos);
}

TEST(CodeGenTest, CrossNestBoundaryBreaksBands) {
  Program P = simpleProgram(4, 2);
  IterationSpace Space(P);
  ScheduleCodeGen CG(P, Space);
  // Interleave the two nests: no band may span a nest switch.
  Schedule S;
  GlobalIter B1 = Space.nestBegin(1);
  S.Order = {0, B1, 1, GlobalIter(B1 + 1)};
  auto Bands = CG.rollBands(S);
  EXPECT_EQ(Bands.size(), 4u);
  EXPECT_EQ(CG.expandBands(Bands), S.Order);
}
