//===- core/DiskReuseScheduler.cpp - Fig. 3 restructuring ------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/DiskReuseScheduler.h"

#include <bit>
#include <cassert>

using namespace dra;

namespace {

/// Masks the disk bits the Fig. 3 sweep can ever visit. Bits at or above
/// NumDisks are preserved in diskMask() queries but never schedulable,
/// exactly as in the published rescan formulation.
uint64_t visitableBits(unsigned NumDisks) {
  return NumDisks >= 64 ? ~uint64_t(0) : (uint64_t(1) << NumDisks) - 1;
}

} // namespace

DiskReuseScheduler::DiskReuseScheduler(const TileAccessTable &Table,
                                       const DiskLayout &Layout)
    : Layout(Layout) {
  assert(Layout.numDisks() <= 64 && "disk mask limited to 64 I/O nodes");
  Mask.resize(Table.numIters());
  for (GlobalIter G = 0, E = GlobalIter(Table.numIters()); G != E; ++G) {
    uint64_t M = 0;
    for (const TileAccess &TA : Table.row(G))
      M |= Layout.diskMaskOfTile(TA.Tile);
    Mask[G] = M;
  }
}

Schedule DiskReuseScheduler::scheduleMasked(
    const std::vector<uint64_t> &Masks, const IterationGraph &Graph,
    unsigned NumDisks, const std::vector<GlobalIter> &Subset,
    unsigned *RoundsOut, unsigned StartDisk,
    std::vector<SchedulerRoundStats> *RoundStatsOut) {
  if (RoundStatsOut)
    RoundStatsOut->clear();

  // The unscheduled iterations, in original program order. Unlike the
  // published formulation this set is never rescanned; it only seeds the
  // per-disk ready buckets and the predecessor counts.
  std::vector<GlobalIter> Q;
  if (Subset.empty()) {
    Q.resize(Masks.size());
    for (GlobalIter G = 0; G != GlobalIter(Masks.size()); ++G)
      Q[G] = G;
  } else {
    Q = Subset;
    for (size_t I = 1; I < Q.size(); ++I)
      assert(Q[I - 1] < Q[I] && "subset must be in ascending program order");
  }

  const uint64_t Visitable = visitableBits(NumDisks);

  // Exact per-disk bucket size: every iteration sits in the bucket of each
  // disk in its mask.
  std::vector<size_t> BucketCap(NumDisks, 0);
  for (GlobalIter G : Q) {
    uint64_t M = Masks[G] & Visitable;
    while (M != 0) {
      unsigned D = unsigned(std::countr_zero(M));
      ++BucketCap[D];
      M &= M - 1;
    }
  }

  // Buckets[d]: the candidate iterations touching disk d, in ascending
  // global index. Draining a bucket is one forward sweep that schedules
  // every ready entry and keeps the rest (compacting in place) — exactly
  // the published rescan restricted to disk d's candidates. An iteration
  // readied mid-sweep always has a larger index than the iteration that
  // readied it (edges point forward), so it sits ahead of the cursor and
  // is picked up in the same sweep, just as in the published formulation.
  std::vector<std::vector<GlobalIter>> Buckets(NumDisks);
  for (unsigned D = 0; D != NumDisks; ++D)
    Buckets[D].reserve(BucketCap[D]);
  for (GlobalIter G : Q) {
    uint64_t M = Masks[G] & Visitable;
    while (M != 0) {
      unsigned D = unsigned(std::countr_zero(M));
      Buckets[D].push_back(G);
      M &= M - 1;
    }
  }

  std::vector<uint32_t> RemainingPreds(Masks.size(), 0);
  for (GlobalIter G : Q)
    RemainingPreds[G] = Graph.inDegree(G);

  // Multi-disk iterations sit in several buckets; the first disk to sweep
  // them wins and later sweeps drop them.
  std::vector<uint8_t> Done(Masks.size(), 0);

  Schedule Result;
  Result.Order.reserve(Q.size());
  Result.RoundOf.reserve(Q.size());
  unsigned Rounds = 0;

  size_t Left = Q.size();
  while (Left != 0) {
    ++Rounds;
    size_t Before = Left;
    for (unsigned DI = 0; DI != NumDisks; ++DI) {
      unsigned D = (StartDisk + DI) % NumDisks;
      std::vector<GlobalIter> &B = Buckets[D];
      size_t Out = 0;
      for (size_t I = 0; I != B.size(); ++I) {
        GlobalIter G = B[I];
        if (Done[G])
          continue; // Scheduled via another of its disks; drop.
        if (RemainingPreds[G] != 0) {
          B[Out++] = G; // Keep for a later round.
          continue;
        }
        Done[G] = 1;
        Result.Order.push_back(G);
        Result.RoundOf.push_back(Rounds - 1);
        --Left;
        for (GlobalIter V : Graph.succs(G)) {
          assert(RemainingPreds[V] > 0 && "in-degree bookkeeping broken");
          --RemainingPreds[V];
        }
      }
      B.resize(Out);
    }
    assert(Left < Before &&
           "no progress in a full round; dependence graph is cyclic?");
    if (RoundStatsOut)
      RoundStatsOut->push_back({uint64_t(Before), uint64_t(Before - Left)});
  }
  if (RoundsOut)
    *RoundsOut = Rounds;
  return Result;
}

Schedule DiskReuseScheduler::schedule(const IterationGraph &Graph,
                                      const std::vector<GlobalIter> &Subset,
                                      unsigned StartDisk) const {
  return scheduleMasked(Mask, Graph, Layout.numDisks(), Subset, &Rounds,
                        StartDisk, &RoundStats);
}
