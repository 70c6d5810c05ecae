//===- tests/layout_test.cpp - disk layout tests ----------------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/ProgramBuilder.h"
#include "layout/DiskLayout.h"

#include <gtest/gtest.h>

#include <bit>

using namespace dra;

namespace {

Program oneArray(int64_t Tiles) {
  ProgramBuilder B("p");
  ArrayId U = B.addArray("U", {Tiles});
  B.beginNest("n", 1.0).loop(0, Tiles).read(U, {iv(0)}).endNest();
  return B.build();
}

} // namespace

TEST(LayoutTest, RoundRobinStriping) {
  Program P = oneArray(16);
  StripingConfig C;
  C.StripeFactor = 4;
  DiskLayout L(P, C);
  // Tile k (one stripe unit) lives on disk k mod 4.
  for (int64_t K = 0; K != 16; ++K)
    EXPECT_EQ(L.primaryDiskOfTile({0, K}), unsigned(K % 4));
}

TEST(LayoutTest, StartDiskOffsetsTheCycle) {
  Program P = oneArray(8);
  StripingConfig C;
  C.StripeFactor = 4;
  C.StartDisk = 2;
  DiskLayout L(P, C);
  EXPECT_EQ(L.primaryDiskOfTile({0, 0}), 2u);
  EXPECT_EQ(L.primaryDiskOfTile({0, 1}), 3u);
  EXPECT_EQ(L.primaryDiskOfTile({0, 2}), 0u);
}

TEST(LayoutTest, DefaultTileEqualsStripeUnit) {
  Program P = oneArray(4);
  DiskLayout L(P, StripingConfig());
  EXPECT_EQ(L.tileBytes(), StripingConfig().StripeUnitBytes);
  // A tile maps to exactly one disk.
  for (int64_t K = 0; K != 4; ++K)
    EXPECT_EQ(std::popcount(L.diskMaskOfTile({0, K})), 1);
}

TEST(LayoutTest, LargeTileSpansSeveralDisks) {
  ProgramBuilder B("p");
  ArrayId U = B.addArray("U", {4});
  B.beginNest("n", 1.0).loop(0, 4).read(U, {iv(0)}).endNest();
  Program P = B.build();
  StripingConfig C;
  C.StripeUnitBytes = 32 * 1024;
  C.StripeFactor = 8;
  DiskLayout L(P, C, /*TileBytes=*/96 * 1024); // 3 stripes per tile
  uint64_t Disks = L.diskMaskOfTile({U, 0});
  EXPECT_EQ(std::popcount(Disks), 3);
  EXPECT_EQ(Disks, 0b111u); // disks {0, 1, 2}
  uint64_t Disks1 = L.diskMaskOfTile({U, 1});
  EXPECT_EQ(Disks1, 0b111000u); // disks {3, 4, 5}
}

TEST(LayoutTest, FilesAlignToFullStripeCycles) {
  ProgramBuilder B("p");
  ArrayId U = B.addArray("U", {3}); // 3 tiles: not a full cycle of 4
  ArrayId V = B.addArray("V", {4});
  B.beginNest("n", 1.0).loop(0, 3).read(U, {iv(0)}).read(V, {iv(0)}).endNest();
  Program P = B.build();
  StripingConfig C;
  C.StripeFactor = 4;
  DiskLayout L(P, C);
  // V starts on the starting disk, not wherever U happened to end.
  EXPECT_EQ(L.fileBase(V) % (C.StripeUnitBytes * C.StripeFactor), 0u);
  EXPECT_EQ(L.primaryDiskOfTile({V, 0}), 0u);
}

TEST(LayoutTest, SplitRequestSingleStripe) {
  Program P = oneArray(8);
  StripingConfig C;
  C.StripeFactor = 4;
  DiskLayout L(P, C);
  auto Subs = L.splitRequest(0, C.StripeUnitBytes);
  ASSERT_EQ(Subs.size(), 1u);
  EXPECT_EQ(Subs[0].Disk, 0u);
  EXPECT_EQ(Subs[0].Bytes, C.StripeUnitBytes);
  EXPECT_EQ(Subs[0].DiskByteOffset, 0u);
}

TEST(LayoutTest, SplitRequestCrossesStripes) {
  Program P = oneArray(8);
  StripingConfig C;
  C.StripeFactor = 4;
  DiskLayout L(P, C);
  uint64_t U = C.StripeUnitBytes;
  // Half a stripe in stripe 0 + half in stripe 1.
  auto Subs = L.splitRequest(U / 2, U);
  ASSERT_EQ(Subs.size(), 2u);
  EXPECT_EQ(Subs[0].Disk, 0u);
  EXPECT_EQ(Subs[0].Bytes, U / 2);
  EXPECT_EQ(Subs[1].Disk, 1u);
  EXPECT_EQ(Subs[1].Bytes, U / 2);
  EXPECT_EQ(Subs[1].DiskByteOffset, 0u);
}

TEST(LayoutTest, SplitRequestWrapsCycleAndMergesSameDisk) {
  Program P = oneArray(16);
  StripingConfig C;
  C.StripeFactor = 2;
  DiskLayout L(P, C);
  uint64_t U = C.StripeUnitBytes;
  // 4 stripes from offset 0 over 2 disks: stripes 0,2 on disk 0 and 1,3 on
  // disk 1; same-disk fragments are NOT adjacent on disk, so they merge
  // only when contiguous. Stripe 0 is disk0@[0,U), stripe 2 is disk0@[U,2U)
  // -> not contiguous with stripe 0's fragment? They are: disk offset of
  // stripe 2 is cycle 1 * U = U, which continues stripe 0's [0, U).
  auto Subs = L.splitRequest(0, 4 * U);
  // Fragments alternate disk 0 / disk 1 so no merging happens in order.
  ASSERT_EQ(Subs.size(), 4u);
  EXPECT_EQ(Subs[0].Disk, 0u);
  EXPECT_EQ(Subs[1].Disk, 1u);
  EXPECT_EQ(Subs[2].Disk, 0u);
  EXPECT_EQ(Subs[2].DiskByteOffset, U);
  EXPECT_EQ(Subs[3].Disk, 1u);
}

TEST(LayoutTest, EveryByteMapsToExactlyOneDisk) {
  Program P = oneArray(32);
  StripingConfig C;
  C.StripeFactor = 8;
  C.StartDisk = 3;
  DiskLayout L(P, C);
  uint64_t Total = 0;
  std::vector<uint64_t> PerDisk(8, 0);
  auto Subs = L.splitRequest(0, L.totalBytes());
  for (const auto &S : Subs) {
    Total += S.Bytes;
    PerDisk[S.Disk] += S.Bytes;
  }
  EXPECT_EQ(Total, L.totalBytes());
  for (uint64_t B : PerDisk)
    EXPECT_EQ(B, L.totalBytes() / 8); // 32 tiles spread evenly over 8 disks
}

TEST(LayoutTest, TileByteOffsetRowMajor) {
  ProgramBuilder B("p");
  ArrayId U = B.addArray("U", {2, 3});
  B.beginNest("n", 1.0).loop(0, 2).loop(0, 3).read(U, {iv(0), iv(1)}).endNest();
  Program P = B.build();
  DiskLayout L(P, StripingConfig());
  EXPECT_EQ(L.tileByteOffset({U, 0}), 0u);
  EXPECT_EQ(L.tileByteOffset({U, 5}), 5 * L.tileBytes());
}

// Parameterized: for any stripe factor, consecutive tiles land on
// consecutive disks (mod factor) — the fundamental round-robin invariant.
class StripeFactorSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(StripeFactorSweep, ConsecutiveTilesRotate) {
  unsigned F = GetParam();
  Program P = oneArray(64);
  StripingConfig C;
  C.StripeFactor = F;
  DiskLayout L(P, C);
  for (int64_t K = 0; K + 1 < 64; ++K) {
    unsigned D0 = L.primaryDiskOfTile({0, K});
    unsigned D1 = L.primaryDiskOfTile({0, K + 1});
    EXPECT_EQ(D1, (D0 + 1) % F);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, StripeFactorSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u, 16u));
