//===- tests/ir_test.cpp - ir/ unit tests -----------------------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/PrettyPrinter.h"
#include "ir/Program.h"
#include "ir/ProgramBuilder.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace dra;

namespace {

Program rectProgram(int64_t N, int64_t M) {
  ProgramBuilder B("rect");
  ArrayId U = B.addArray("U", {N, M});
  B.beginNest("n0", 1.0)
      .loop(0, N)
      .loop(0, M)
      .read(U, {iv(0), iv(1)})
      .endNest();
  return B.build();
}

} // namespace

TEST(LoopNestTest, RectangularEnumerationOrderAndCount) {
  Program P = rectProgram(3, 2);
  std::vector<IterVec> Seen;
  P.nest(0).forEachIteration([&](const IterVec &I) { Seen.push_back(I); });
  ASSERT_EQ(Seen.size(), 6u);
  EXPECT_EQ(Seen.front(), (IterVec{0, 0}));
  EXPECT_EQ(Seen[1], (IterVec{0, 1}));
  EXPECT_EQ(Seen[2], (IterVec{1, 0}));
  EXPECT_EQ(Seen.back(), (IterVec{2, 1}));
  EXPECT_EQ(P.nest(0).numIterations(), 6u);
}

TEST(LoopNestTest, TriangularEnumeration) {
  ProgramBuilder B("tri");
  ArrayId U = B.addArray("U", {5, 5});
  B.beginNest("n0", 1.0)
      .loop(0, 5)
      .loop(AffineExpr::constant(0), iv(0) + 1) // j <= i
      .read(U, {iv(0), iv(1)})
      .endNest();
  Program P = B.build();
  EXPECT_EQ(P.nest(0).numIterations(), 15u); // 1+2+3+4+5
  P.nest(0).forEachIteration(
      [&](const IterVec &I) { EXPECT_LE(I[1], I[0]); });
}

TEST(LoopNestTest, EmptyRangeSkipsIterations) {
  ProgramBuilder B("empty");
  ArrayId U = B.addArray("U", {4, 4});
  B.beginNest("n0", 1.0)
      .loop(2, 2) // empty
      .loop(0, 4)
      .read(U, {iv(0), iv(1)})
      .endNest();
  Program P = B.build();
  EXPECT_EQ(P.nest(0).numIterations(), 0u);
}

TEST(ArrayInfoTest, LinearTileRowMajor) {
  ArrayInfo A;
  A.DimsInTiles = {3, 4};
  EXPECT_EQ(A.numTiles(), 12);
  EXPECT_EQ(A.linearTile({0, 0}), 0);
  EXPECT_EQ(A.linearTile({0, 3}), 3);
  EXPECT_EQ(A.linearTile({1, 0}), 4);
  EXPECT_EQ(A.linearTile({2, 3}), 11);
}

TEST(ProgramTest, TouchedTilesEvaluatesSubscripts) {
  ProgramBuilder B("touch");
  ArrayId U = B.addArray("U", {4, 4});
  ArrayId V = B.addArray("V", {4, 4});
  B.beginNest("n0", 1.0)
      .loop(0, 3)
      .loop(0, 3)
      .read(U, {iv(0), iv(1) + 1})
      .write(V, {iv(1), iv(0)})
      .endNest();
  Program P = B.build();
  auto Tiles = P.touchedTiles(0, IterVec{2, 1});
  ASSERT_EQ(Tiles.size(), 2u);
  EXPECT_EQ(Tiles[0].Tile.Array, U);
  EXPECT_EQ(Tiles[0].Tile.Linear, 2 * 4 + 2);
  EXPECT_EQ(Tiles[0].Kind, AccessKind::Read);
  EXPECT_EQ(Tiles[1].Tile.Array, V);
  EXPECT_EQ(Tiles[1].Tile.Linear, 1 * 4 + 2);
  EXPECT_EQ(Tiles[1].Kind, AccessKind::Write);
}

TEST(ProgramTest, TotalBytesAccessed) {
  Program P = rectProgram(3, 2); // 6 iterations x 1 access
  EXPECT_EQ(P.totalBytesAccessed(1000), 6000u);
}

TEST(IterationSpaceTest, FlattensNestsInProgramOrder) {
  ProgramBuilder B("two");
  ArrayId U = B.addArray("U", {4, 4});
  B.beginNest("n0", 1.0).loop(0, 2).loop(0, 2).read(U, {iv(0), iv(1)}).endNest();
  B.beginNest("n1", 1.0).loop(0, 3).read(U, {iv(0), AffineExpr::constant(0)}).endNest();
  Program P = B.build();
  IterationSpace S(P);
  EXPECT_EQ(S.size(), 7u);
  EXPECT_EQ(S.nestBegin(0), 0u);
  EXPECT_EQ(S.nestEnd(0), 4u);
  EXPECT_EQ(S.nestBegin(1), 4u);
  EXPECT_EQ(S.nestEnd(1), 7u);
  EXPECT_EQ(S.nestOf(0), 0u);
  EXPECT_EQ(S.nestOf(4), 1u);
  EXPECT_EQ(toIterVec(S.iterOf(3)), (IterVec{1, 1}));
  EXPECT_EQ(toIterVec(S.iterOf(6)), (IterVec{2}));
}

TEST(IterationSpaceTest, IterOfViewsMixedDepthNestsInPlace) {
  // A 1-deep, a 3-deep and a 2-deep nest: each nest's rows have its own
  // width in the flat coordinate array.
  ProgramBuilder B("mixed");
  ArrayId U = B.addArray("U", {4, 4, 4});
  B.beginNest("n0", 1.0)
      .loop(0, 3)
      .read(U, {iv(0), AffineExpr::constant(0), AffineExpr::constant(0)})
      .endNest();
  B.beginNest("n1", 1.0)
      .loop(0, 2)
      .loop(1, 3)
      .loop(0, 2)
      .read(U, {iv(0), iv(1), iv(2)})
      .endNest();
  B.beginNest("n2", 1.0)
      .loop(2, 4)
      .loop(0, 2)
      .write(U, {iv(0), iv(1), AffineExpr::constant(3)})
      .endNest();
  Program P = B.build();
  IterationSpace S(P);

  std::vector<std::pair<NestId, IterVec>> Want;
  for (const LoopNest &Nest : P.nests())
    Nest.forEachIteration(
        [&](const IterVec &I) { Want.emplace_back(Nest.id(), I); });
  ASSERT_EQ(S.size(), Want.size());
  ASSERT_EQ(S.size(), 3u + 8u + 4u);
  for (GlobalIter G = 0; G != GlobalIter(S.size()); ++G) {
    EXPECT_EQ(S.nestOf(G), Want[G].first) << "iteration " << G;
    EXPECT_EQ(toIterVec(S.iterOf(G)), Want[G].second) << "iteration " << G;
  }
  EXPECT_EQ(toIterVec(S.iterOf(2)), (IterVec{2}));
  EXPECT_EQ(toIterVec(S.iterOf(3)), (IterVec{0, 1, 0}));
  EXPECT_EQ(toIterVec(S.iterOf(10)), (IterVec{1, 2, 1}));
  EXPECT_EQ(toIterVec(S.iterOf(11)), (IterVec{2, 0}));
  EXPECT_EQ(toIterVec(S.iterOf(14)), (IterVec{3, 1}));
}

TEST(IterationSpaceTest, IterOfViewsTriangularNest) {
  // Rows of a triangular nest have one width but a varying count per outer
  // value; iterOf must still land on the enumeration order.
  ProgramBuilder B("tri");
  ArrayId U = B.addArray("U", {5, 5});
  B.beginNest("pre", 1.0).loop(0, 2).read(U, {iv(0), iv(0)}).endNest();
  B.beginNest("tri", 1.0)
      .loop(0, 5)
      .loop(AffineExpr::constant(0), iv(0) + 1) // j <= i
      .write(U, {iv(0), iv(1)})
      .endNest();
  Program P = B.build();
  IterationSpace S(P);
  ASSERT_EQ(S.size(), 2u + 15u);
  EXPECT_EQ(S.nestBegin(1), 2u);
  GlobalIter G = S.nestBegin(1);
  for (int64_t I = 0; I != 5; ++I)
    for (int64_t J = 0; J <= I; ++J, ++G) {
      EXPECT_EQ(S.nestOf(G), 1u);
      EXPECT_EQ(toIterVec(S.iterOf(G)), (IterVec{I, J})) << "iteration " << G;
    }
  EXPECT_EQ(G, S.nestEnd(1));
}

TEST(IterationSpaceTest, RejectsSpacesBeyondMaxIterations) {
  // 70000 x 70000 = 4.9e9 iterations, past MaxIterations: the count fails
  // fast (the innermost trip count is added in closed form) before any
  // coordinate is stored.
  ProgramBuilder B("huge");
  ArrayId U = B.addArray("U", {70000, 70000});
  B.beginNest("n0", 1.0)
      .loop(0, 70000)
      .loop(0, 70000)
      .read(U, {iv(0), iv(1)})
      .endNest();
  Program P = B.build();
  EXPECT_EQ(P.nest(0).numIterations(), uint64_t(70000) * 70000);
  EXPECT_THROW(IterationSpace S(P), std::invalid_argument);

  // Two nests that fit alone but not together.
  ProgramBuilder B2("split");
  ArrayId V = B2.addArray("V", {int64_t(MaxIterations)});
  for (const char *Name : {"a", "b"})
    B2.beginNest(Name, 1.0)
        .loop(0, int64_t(MaxIterations / 2 + 1))
        .read(V, {iv(0)})
        .endNest();
  Program P2 = B2.build();
  EXPECT_THROW(IterationSpace S2(P2), std::invalid_argument);
}

TEST(IterationSpaceTest, CountsOversizedNestsWithoutWalkingThem) {
  // 31 constant-bound loops of two trips: 2^31 iterations, one past
  // MaxIterations. The count is the product of the trip counts.
  ProgramBuilder B("deep");
  ArrayId U = B.addArray("U", {2});
  B.beginNest("n0", 1.0);
  for (int K = 0; K != 31; ++K)
    B.loop(0, 2);
  B.read(U, {iv(0)}).endNest();
  Program P = B.build();
  EXPECT_EQ(P.nest(0).numIterations(), uint64_t(1) << 31);
  EXPECT_THROW(IterationSpace S(P), std::invalid_argument);

  // A triangular band is walked, but only until the count passes the
  // limit: 70000 * 70001 / 2 outer points would take seconds.
  ProgramBuilder B2("tri");
  ArrayId V = B2.addArray("V", {70000, 70000});
  B2.beginNest("n0", 1.0)
      .loop(0, 70000)
      .loop(AffineExpr::constant(0), iv(0) + 1)
      .loop(0, 70000)
      .read(V, {iv(0), iv(2)})
      .endNest();
  Program P2 = B2.build();
  uint64_t Capped = P2.nest(0).numIterations(MaxIterations);
  EXPECT_GT(Capped, MaxIterations);
  EXPECT_LE(Capped, MaxIterations + 70000);
  EXPECT_EQ(P2.nest(0).numIterations(/*Limit=*/0), 70000u);
  EXPECT_THROW(IterationSpace S2(P2), std::invalid_argument);
}

TEST(IterationSpaceTest, StopsWalkingEmptyInnerRanges) {
  // Every inner range is empty, so no count ever grows: only the walk
  // budget stops 4e9 outer points from being visited one by one.
  ProgramBuilder B("empty");
  ArrayId U = B.addArray("U", {4000000000});
  B.beginNest("n0", 1.0)
      .loop(0, 4000000000)
      .loop(iv(0) + 1, iv(0) + 1)
      .read(U, {iv(0)})
      .endNest();
  Program P = B.build();
  EXPECT_EQ(P.nest(0).numIterations(MaxIterations), MaxIterations + 1);
  EXPECT_EQ(P.nest(0).numIterations(/*Limit=*/0), 1u);
  EXPECT_THROW(IterationSpace S(P), std::invalid_argument);

  // Within the budget the walk runs to the end and the count stays exact,
  // so an emptiness probe (Limit 0) still sees an empty nest.
  ProgramBuilder B2("small");
  ArrayId V = B2.addArray("V", {1000});
  B2.beginNest("n0", 1.0)
      .loop(0, 1000)
      .loop(iv(0) + 1, iv(0) + 1)
      .read(V, {iv(0)})
      .endNest();
  Program P2 = B2.build();
  EXPECT_EQ(P2.nest(0).numIterations(), 0u);
  EXPECT_EQ(P2.nest(0).numIterations(/*Limit=*/0), 0u);
  EXPECT_EQ(IterationSpace(P2).size(), 0u);
}

TEST(IterationSpaceTest, SumsInnerTripCountsInClosedForm) {
  // 2e9 outer points, every inner range empty: counted in closed form, not
  // walked, and the empty nest is never enumerated.
  ProgramBuilder B("empty");
  ArrayId U = B.addArray("U", {2000000000});
  B.beginNest("n0", 1.0)
      .loop(0, 2000000000)
      .loop(iv(0) + 1, iv(0) + 1)
      .read(U, {iv(0)})
      .endNest();
  Program P = B.build();
  EXPECT_EQ(P.nest(0).numIterations(), 0u);
  EXPECT_EQ(P.nest(0).numIterations(/*Limit=*/0), 0u);
  EXPECT_EQ(IterationSpace(P).size(), 0u);

  // Only the last ten outer points have a non-empty inner range: 1 + ... +
  // 10 iterations, and the walk visits just those points.
  ProgramBuilder B2("tail");
  ArrayId V = B2.addArray("V", {2000000000});
  B2.beginNest("n0", 1.0)
      .loop(0, 2000000000)
      .loop(AffineExpr::constant(1999999990), iv(0) + 1)
      .read(V, {iv(1)})
      .endNest();
  Program P2 = B2.build();
  EXPECT_EQ(P2.nest(0).numIterations(), 55u);
  IterationSpace S2(P2);
  ASSERT_EQ(S2.size(), 55u);
  EXPECT_EQ(S2.iterOf(0)[0], 1999999990);
  EXPECT_EQ(S2.iterOf(54)[1], 1999999999);

  // Rising, falling and flat inner counts, each starting empty, positive
  // or negative: the closed form, and its stop once past a limit, agree
  // with a walk that adds one outer point's count at a time.
  for (int64_t Slope : {-3, -1, 0, 1, 2})
    for (int64_t Offset : {-20, -1, 0, 3, 25}) {
      ProgramBuilder B3("affine");
      ArrayId W = B3.addArray("W", {64});
      B3.beginNest("n0", 1.0)
          .loop(-5, 12)
          .loop(iv(0), iv(0) * (Slope + 1) + Offset)
          .read(W, {AffineExpr::constant(0)})
          .endNest();
      Program P3 = B3.build();
      const LoopNest &Nest = P3.nest(0);
      for (uint64_t Limit : {uint64_t(0), uint64_t(7), uint64_t(40),
                             uint64_t(MaxIterations)}) {
        uint64_t Walked = 0;
        for (int64_t V0 = -5; V0 < 12 && Walked <= Limit; ++V0)
          Walked += uint64_t(std::max<int64_t>(0, V0 * Slope + Offset));
        EXPECT_EQ(Nest.numIterations(Limit), Walked)
            << "slope " << Slope << " offset " << Offset << " limit "
            << Limit;
      }
      uint64_t Visited = 0;
      Nest.forEachIteration([&](const IterVec &) { ++Visited; });
      EXPECT_EQ(Visited, Nest.numIterations());
    }
}

TEST(ProgramBuilderTest, BuildsMultiNestProgram) {
  ProgramBuilder B("app");
  ArrayId U = B.addArray("U", {8, 8});
  B.beginNest("a", 2.5).loop(0, 8).loop(0, 8).read(U, {iv(0), iv(1)}).endNest();
  B.beginNest("b", 1.5).loop(0, 8).loop(0, 8).write(U, {iv(0), iv(1)}).endNest();
  Program P = B.build();
  EXPECT_EQ(P.name(), "app");
  EXPECT_EQ(P.nests().size(), 2u);
  EXPECT_DOUBLE_EQ(P.nest(0).computePerIterMs(), 2.5);
  EXPECT_DOUBLE_EQ(P.nest(1).computePerIterMs(), 1.5);
  EXPECT_EQ(P.nest(1).accesses()[0].Kind, AccessKind::Write);
}

TEST(PrettyPrinterTest, PrintsLoopsAndAccesses) {
  ProgramBuilder B("pp");
  ArrayId U = B.addArray("U", {4, 4});
  B.beginNest("nest", 1.0)
      .loop(0, 4)
      .loop(AffineExpr::constant(0), iv(0) + 1)
      .read(U, {iv(0), iv(1)})
      .write(U, {iv(1), iv(0)})
      .endNest();
  Program P = B.build();
  std::string S = printProgram(P);
  EXPECT_NE(S.find("program pp"), std::string::npos);
  EXPECT_NE(S.find("array U"), std::string::npos);
  EXPECT_NE(S.find("for i0"), std::string::npos);
  EXPECT_NE(S.find("for i1"), std::string::npos);
  EXPECT_NE(S.find("read  U[i0][i1]"), std::string::npos);
  EXPECT_NE(S.find("write U[i1][i0]"), std::string::npos);
}

#ifndef NDEBUG
TEST(ProgramDeathTest, OutOfBoundsAccessAsserts) {
  ProgramBuilder B("oob");
  ArrayId U = B.addArray("U", {2, 2});
  B.beginNest("n0", 1.0)
      .loop(0, 3) // runs to i0 == 2, out of the 2-tile dim
      .read(U, {iv(0), AffineExpr::constant(0)})
      .endNest();
  Program P = B.build();
  EXPECT_DEATH((void)P.touchedTiles(0, IterVec{2}), "out of bounds");
}
#endif
