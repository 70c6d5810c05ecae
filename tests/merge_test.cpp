//===- tests/merge_test.cpp - ledger and rollup combine tests ----------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
//
// Hand-computed combines of the partial results that still sum: the
// EnergyLedger's category-wise += and the AttributionRollup's grouping of
// per-disk attribution maps. Each test builds two small partials whose
// combined values are computed by hand, so a silent change to either rule
// fails loudly.
//
//===----------------------------------------------------------------------===//

#include "sim/Attribution.h"
#include "sim/EnergyLedger.h"

#include <gtest/gtest.h>

using namespace dra;

TEST(MergeTest, EnergyLedgerCategoryWiseSum) {
  EnergyLedger A, B;
  A.ActiveReadJ = 1.0;
  A.ActiveWriteJ = 0.25;
  A.addIdle(12000, 3.0);
  A.addIdle(6000, 0.5);
  A.SpinDownJ = 0.125;
  B.ActiveReadJ = 2.0;
  B.addIdle(12000, 1.0);
  B.addIdle(3000, 0.75);
  B.SpinUpJ = 0.5;
  B.StandbyJ = 0.0625;
  B.RpmStepJ = 0.25;
  B.ReadyPenaltyJ = 1.5;
  A += B;
  EXPECT_DOUBLE_EQ(A.ActiveReadJ, 3.0);
  EXPECT_DOUBLE_EQ(A.ActiveWriteJ, 0.25);
  EXPECT_DOUBLE_EQ(A.IdleByRpmJ.at(12000), 4.0);
  EXPECT_DOUBLE_EQ(A.IdleByRpmJ.at(6000), 0.5);
  EXPECT_DOUBLE_EQ(A.IdleByRpmJ.at(3000), 0.75);
  EXPECT_DOUBLE_EQ(A.SpinDownJ, 0.125);
  EXPECT_DOUBLE_EQ(A.SpinUpJ, 0.5);
  EXPECT_DOUBLE_EQ(A.StandbyJ, 0.0625);
  EXPECT_DOUBLE_EQ(A.RpmStepJ, 0.25);
  EXPECT_DOUBLE_EQ(A.ReadyPenaltyJ, 1.5);
  EXPECT_DOUBLE_EQ(A.totalJ(), 3.0 + 0.25 + 4.0 + 0.5 + 0.75 + 0.125 + 0.5 +
                                   0.0625 + 0.25 + 1.5);
}

TEST(MergeTest, AttributionKeyWiseEntrySum) {
  // Two disks' maps and, by hand, their key-wise sum. The rollup is
  // associative over disk grouping: folding the disks one by one equals
  // folding the summed map.
  AttribKey K0{0, 0, 0}, K1{0, 1, 0}, KU; // KU = unattributed sentinel
  AttributionMap A, B, Whole;
  A[K0].BusyMs = 10.0;
  A[K0].NumRequests = 4;
  A[K0].Energy.ActiveReadJ = 2.0;
  A[KU].Energy.SpinDownJ = 0.5;
  B[K0].BusyMs = 5.0;
  B[K0].NumRequests = 1;
  B[K1].ReadyDelayMs = 3.0;
  B[K1].NumRequests = 2;
  Whole[K0].BusyMs = 15.0;
  Whole[K0].NumRequests = 5;
  Whole[K0].Energy.ActiveReadJ = 2.0;
  Whole[K1].ReadyDelayMs = 3.0;
  Whole[K1].NumRequests = 2;
  Whole[KU].Energy.SpinDownJ = 0.5;

  AttributionRollup Split, Summed;
  Split.add(A);
  Split.add(B);
  Summed.add(Whole);
  EXPECT_DOUBLE_EQ(Split.Total.BusyMs, 15.0);
  EXPECT_DOUBLE_EQ(Split.Total.BusyMs, Summed.Total.BusyMs);
  EXPECT_EQ(Split.Total.NumRequests, 7u);
  EXPECT_EQ(Split.Total.NumRequests, Summed.Total.NumRequests);
  EXPECT_DOUBLE_EQ(Split.Total.ReadyDelayMs, Summed.Total.ReadyDelayMs);
  EXPECT_DOUBLE_EQ(Split.Unattributed.Energy.SpinDownJ, 0.5);
  EXPECT_DOUBLE_EQ(Split.Unattributed.Energy.SpinDownJ,
                   Summed.Unattributed.Energy.SpinDownJ);
  EXPECT_DOUBLE_EQ(Split.PerNest.at(0).BusyMs, 15.0);
  EXPECT_DOUBLE_EQ(Summed.PerNest.at(0).BusyMs, 15.0);
  EXPECT_EQ(Split.PerRef.at({0u, 0u}).NumRequests, 5u);
  EXPECT_EQ(Split.PerRef.at({0u, 1u}).NumRequests, 2u);
  EXPECT_EQ(Summed.PerRef.at({0u, 1u}).NumRequests, 2u);
}
